// Subprocess runner for crash-safety tests: launches a command (typically
// privim_cli) with fault-injection environment variables set, captures its
// combined output and exit code, and distinguishes an injected crash
// (fault::kFaultExitCode) from a genuine failure.

#ifndef PRIVIM_TESTS_TESTING_FAULT_INJECTION_H_
#define PRIVIM_TESTS_TESTING_FAULT_INJECTION_H_

#include <string>
#include <utility>
#include <vector>

namespace privim {
namespace testing {

struct SubprocessResult {
  int exit_code = -1;        ///< WEXITSTATUS, or -1 if the launch failed
  bool signalled = false;    ///< terminated by a signal instead of exiting
  std::string output;        ///< combined stdout + stderr
};

/// Runs `command` through the shell with the given environment variables
/// prepended (values are shell-escaped). Blocks until the child exits.
SubprocessResult RunSubprocess(
    const std::string& command,
    const std::vector<std::pair<std::string, std::string>>& env = {});

/// Path of the privim_cli binary baked in at compile time, or "" when the
/// test target was built without one (callers should GTEST_SKIP).
std::string PrivimCliBinary();

/// A command prefix that runs the command under a 4 GB address-space limit
/// (util-linux prlimit, which execs the command, so the pid stays the
/// command's): an allocation that a hostile input claims then fails at once
/// instead of paging the machine. Empty where prlimit is missing and in
/// sanitizer builds, whose runtimes reserve more address space than that.
std::string AddressSpaceLimitPrefix();

}  // namespace testing
}  // namespace privim

#endif  // PRIVIM_TESTS_TESTING_FAULT_INJECTION_H_
