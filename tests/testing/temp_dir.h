// A temporary directory private to the running test process.
//
// ctest runs every discovered gtest case as its own process, and two build
// trees' suites can run on one machine at the same time, so fixed file
// names under ::testing::TempDir() collide between them. ProcessTempDir()
// is a directory under it named by the process id: created empty on first
// use (a directory left by an earlier process with the same id is
// replaced) and removed when the process exits.

#ifndef PRIVIM_TESTS_TESTING_TEMP_DIR_H_
#define PRIVIM_TESTS_TESTING_TEMP_DIR_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "gtest/gtest.h"

namespace privim {
namespace testing {

inline const std::string& ProcessTempDir() {
  struct Dir {
    Dir()
        : path(::testing::TempDir() + "/privim_test_" +
               std::to_string(::getpid())) {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
      std::filesystem::create_directories(path);
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
    std::string path;
  };
  static const Dir dir;
  return dir.path;
}

}  // namespace testing
}  // namespace privim

#endif  // PRIVIM_TESTS_TESTING_TEMP_DIR_H_
