#include "testing/fault_injection.h"

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>

namespace privim {
namespace testing {
namespace {

std::string ShellQuote(const std::string& value) {
  std::string quoted = "'";
  for (const char c : value) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  quoted += "'";
  return quoted;
}

}  // namespace

SubprocessResult RunSubprocess(
    const std::string& command,
    const std::vector<std::pair<std::string, std::string>>& env) {
  std::string full = "env";
  for (const auto& [name, value] : env) {
    full += " " + name + "=" + ShellQuote(value);
  }
  full += " " + command + " 2>&1";

  SubprocessResult result;
  FILE* pipe = ::popen(full.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  size_t n = 0;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = ::pclose(pipe);
  if (status < 0) return result;
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.signalled = true;
    result.exit_code = 128 + WTERMSIG(status);
  }
  return result;
}

std::string PrivimCliBinary() {
#ifdef PRIVIM_CLI_BINARY
  return PRIVIM_CLI_BINARY;
#else
  return "";
#endif
}

std::string AddressSpaceLimitPrefix() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "";
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "";
#endif
#endif
  static const bool available =
      std::system("prlimit --version > /dev/null 2>&1") == 0;
  return available ? "prlimit --as=4096000000 -- " : "";
#endif
}

}  // namespace testing
}  // namespace privim
