// perfbench_harness SUBCOMMAND [--key value ...]
//
//   gen          seeded scale-free graph + request schedule, with digests
//   train        one timed RunPrivIm in this process (plus output checks)
//   train-trace  RunPrivIm's phases composed with spans, and the DP-SGD replay
//   serve-trace  in-process serving layers and SubmitAsync replay
//   loadgen      open-loop TCP load against privim_serve --listen

#include "harness.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "privim/gnn/serialization.h"

namespace perfbench {

privim::Result<Args> Args::Parse(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return privim::Status::InvalidArgument("expected --key value, got " +
                                             key);
    }
    args.values_[key.substr(2)] = argv[i + 1];
  }
  return args;
}

std::string Args::Str(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int64_t Args::Int(const std::string& key, int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtoll(it->second.c_str(),
                                                       nullptr, 10);
}

double Args::Double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : std::strtod(it->second.c_str(), nullptr);
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

JsonOut& JsonOut::Num(const std::string& key, double value) {
  fields_.emplace_back(key, Number(value));
  return *this;
}

JsonOut& JsonOut::Int(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonOut& JsonOut::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}

JsonOut& JsonOut::Nums(const std::string& key,
                       const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Number(values[i]);
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}

std::string JsonOut::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(fields_[i].first) + ":" + fields_[i].second;
  }
  return out + "}";
}

uint64_t Fnv1a(std::string_view bytes, uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string ModelBytes(const privim::GnnModel& model) {
  std::ostringstream out;
  const privim::Status written = privim::WriteGnnModel(model, out);
  return written.ok() ? out.str() : std::string();
}

int Emit(const JsonOut& out) {
  std::printf("%s\n", out.Render().c_str());
  std::fflush(stdout);
  return 0;
}

int Fail(const privim::Status& status) {
  std::fprintf(stderr, "perfbench_harness: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Fail;
  if (argc < 2) {
    return Fail(privim::Status::InvalidArgument(
        "usage: perfbench_harness gen|train|train-trace|serve-trace|loadgen "
        "[--key value ...]"));
  }
  const privim::Result<perfbench::Args> args =
      perfbench::Args::Parse(argc, argv, 2);
  if (!args.ok()) return Fail(args.status());
  const std::string command = argv[1];
  if (command == "gen") return perfbench::GenMain(args.value());
  if (command == "train") return perfbench::TrainMain(args.value());
  if (command == "train-trace") return perfbench::TrainTraceMain(args.value());
  if (command == "serve-trace") return perfbench::ServeTraceMain(args.value());
  if (command == "loadgen") return perfbench::LoadgenMain(args.value());
  return Fail(privim::Status::InvalidArgument("unknown subcommand " + command));
}
