// Shared helpers for the benchmark harness (perfbench_harness).
//
// The harness is the benchmark's own C++ program: it generates the seeded
// inputs, runs the timed and traced training runs, replays serving traffic
// in-process, and generates open-loop TCP load. Every subcommand prints one
// JSON object on its last stdout line; run.py turns those into the
// benchmark's metrics.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <span>  // privim/graph/graph.h uses std::span
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "privim/common/status.h"
#include "privim/gnn/models.h"

namespace perfbench {

/// "--key value" command-line arguments after the subcommand.
class Args {
 public:
  static privim::Result<Args> Parse(int argc, char** argv, int first);

  std::string Str(const std::string& key, const std::string& fallback) const;
  int64_t Int(const std::string& key, int64_t fallback) const;
  double Double(const std::string& key, double fallback) const;
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// Flat JSON object built in insertion order; values are rendered eagerly.
class JsonOut {
 public:
  JsonOut& Num(const std::string& key, double value);
  JsonOut& Int(const std::string& key, int64_t value);
  JsonOut& Str(const std::string& key, const std::string& value);
  /// A list of numbers, e.g. every sample of one timing.
  JsonOut& Nums(const std::string& key, const std::vector<double>& values);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Monotonic seconds since an arbitrary epoch.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// 64-bit FNV-1a, used for the input and model digests.
uint64_t Fnv1a(std::string_view bytes, uint64_t hash = 0xcbf29ce484222325ULL);
std::string Hex(uint64_t value);

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

/// The serialized model bytes (the released artifact).
std::string ModelBytes(const privim::GnnModel& model);

/// Prints the JSON object as the last stdout line and returns 0.
int Emit(const JsonOut& out);
/// Prints a failure to stderr and returns 1.
int Fail(const privim::Status& status);

// Subcommands (one per source file).
int GenMain(const Args& args);
int TrainMain(const Args& args);
int TrainTraceMain(const Args& args);
int ServeTraceMain(const Args& args);
int LoadgenMain(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
