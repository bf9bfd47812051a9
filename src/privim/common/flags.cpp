#include "privim/common/flags.h"

#include <cstdlib>
#include <string_view>

namespace privim {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) continue;
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc &&
               std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      values_[std::string(arg)] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const int64_t value = std::strtoll(it->second.c_str(), &end, 10);
  return (end && *end == '\0') ? value : def;
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  return (end && *end == '\0') ? value : def;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

Result<int64_t> Flags::GetValidatedInt(const std::string& name,
                                       int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const int64_t value = std::strtoll(it->second.c_str(), &end, 10);
  if (it->second.empty() || !end || *end != '\0') {
    return Status::InvalidArgument("--" + name + " expects an integer, got \"" +
                                   it->second + "\"");
  }
  return value;
}

Result<int64_t> Flags::ValidatedThreads() const {
  int64_t def = 0;
  const std::string env = GetEnv("PRIVIM_THREADS", "");
  if (!env.empty()) {
    char* end = nullptr;
    const int64_t value = std::strtoll(env.c_str(), &end, 10);
    if (!end || *end != '\0' || value < 0) {
      return Status::InvalidArgument(
          "PRIVIM_THREADS expects a non-negative integer, got \"" + env +
          "\"");
    }
    def = value;
  }
  Result<int64_t> threads = GetValidatedInt("threads", def);
  if (!threads.ok()) return threads.status();
  if (threads.value() < 0) {
    return Status::InvalidArgument(
        "--threads must be >= 0 (0 = hardware concurrency), got " +
        std::to_string(threads.value()));
  }
  return threads.value();
}

Result<std::string> Flags::MetricsOutPath() const {
  auto it = values_.find("metrics-out");
  if (it == values_.end()) return std::string();
  // A bare `--metrics-out` (or one followed by another --flag) parses as the
  // boolean placeholder "true" — that is a missing path, not a file name.
  if (it->second.empty() || it->second == "true") {
    return Status::InvalidArgument(
        "--metrics-out requires a file path, e.g. --metrics-out=run.json");
  }
  return it->second;
}

std::string Flags::GetEnv(const std::string& name, const std::string& def) {
  const char* value = std::getenv(name.c_str());
  return value ? value : def;
}

}  // namespace privim
