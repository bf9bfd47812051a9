// Tiny command-line / environment flag parser for benches and examples.
//
// Flags are `--name=value` or `--name value`; `--name` alone sets a boolean.
// Environment fallback lets the whole bench suite be steered without
// arguments, e.g. PRIVIM_BENCH_SCALE=tiny ctest.

#ifndef PRIVIM_COMMON_FLAGS_H_
#define PRIVIM_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "privim/common/status.h"

namespace privim {

/// Parsed view over argv plus environment fallbacks.
class Flags {
 public:
  Flags() = default;
  Flags(int argc, char** argv);
  /// Builds a view over pre-parsed values (used by FlagRegistry, which
  /// validates and canonicalizes argv before handing the map over).
  explicit Flags(std::map<std::string, std::string> values)
      : values_(std::move(values)) {}

  /// True if --name was given.
  bool Has(const std::string& name) const;

  /// Value of --name, or `def` when absent.
  std::string GetString(const std::string& name, const std::string& def) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// Strict variant of GetInt: a present-but-malformed value is an
  /// InvalidArgument error naming the flag and the offending text, instead
  /// of silently falling back to the default.
  Result<int64_t> GetValidatedInt(const std::string& name, int64_t def) const;

  /// Worker-thread count for the global thread pool: `--threads N`, falling
  /// back to the PRIVIM_THREADS environment variable. 0 (the default) means
  /// hardware concurrency; 1 selects the serial path (every ParallelFor runs
  /// inline). Pass the result to SetGlobalThreadPoolSize at startup.
  /// Rejects non-numeric or negative `--threads` (and a non-numeric or
  /// negative PRIVIM_THREADS) with a clear error.
  Result<int64_t> ValidatedThreads() const;

  /// Path given to `--metrics-out`. Returns "" when the flag is absent;
  /// errors when the flag is present without a file path (e.g. a bare
  /// `--metrics-out` at the end of the command line).
  Result<std::string> MetricsOutPath() const;

  /// Environment variable lookup with default.
  static std::string GetEnv(const std::string& name, const std::string& def);

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace privim

#endif  // PRIVIM_COMMON_FLAGS_H_
