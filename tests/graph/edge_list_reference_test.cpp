// LoadEdgeList against the line-at-a-time loader it replaced
// (testing/reference_edge_list.h). On seeded corpora and on seeded byte
// mutations of them, the loader must give the reference's six CSR arrays
// and graph.load.* counter deltas, or the reference's exact status
// message. The one exception is a line the reference let through by
// accident (a '-' id, a NUL byte in an id or weight): the load must fail
// there, with "malformed line N".

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "privim/common/rng.h"
#include "privim/common/thread_pool.h"
#include "privim/graph/graph_io.h"
#include "privim/obs/metrics.h"
#include "testing/reference_csr.h"
#include "testing/reference_edge_list.h"
#include "testing/temp_dir.h"

namespace privim {
namespace {

using std::string_literals::operator""s;

std::string TempPath(const std::string& name) {
  return privim::testing::ProcessTempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The first line the reference reads as data and the loader rejects by its
// stricter grammar: an id field that starts with '-' or holds a NUL byte, or
// a weight field that holds one. 0 when there is none.
int64_t FirstNewlyRejectedLine(const std::string& bytes) {
  std::istringstream in(bytes);
  std::string line;
  for (int64_t number = 1; std::getline(in, line); ++number) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#' || line[0] == '%' ||
        line.find_first_not_of(" \t") == std::string::npos) {
      continue;
    }
    std::istringstream fields(line);
    std::string src, dst, weight;
    fields >> src >> dst >> weight;
    for (const std::string& id : {src, dst}) {
      if (id.find('\0') != std::string::npos) return number;
      if (!id.empty() && id[0] == '-') return number;
    }
    if (weight.find('\0') != std::string::npos) return number;
  }
  return 0;
}

// N of a "malformed line N in ..." status; the largest int64 for OK.
int64_t MalformedLine(const Status& status) {
  if (status.ok()) return std::numeric_limits<int64_t>::max();
  long long line = 0;
  return std::sscanf(status.message().c_str(), "malformed line %lld",
                     &line) == 1
             ? line
             : 0;
}

// Empty when LoadEdgeList agrees with the reference on `bytes`; otherwise
// what differs.
std::string LoaderDifference(const std::string& bytes, bool undirected) {
  // One file per test: ctest runs the tests of this suite side by side.
  const std::string path = TempPath(
      std::string(
          ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
      ".txt");
  WriteFile(path, bytes);
  obs::Counter* edges = obs::GlobalMetrics().GetCounter("graph.load.edges");
  obs::Counter* loops =
      obs::GlobalMetrics().GetCounter("graph.load.self_loops_dropped");
  const uint64_t edges_before = edges->Value();
  const uint64_t loops_before = loops->Value();
  const Result<Graph> expected =
      testing::ReferenceLoadEdgeList(path, undirected);
  const uint64_t expected_edges = edges->Value() - edges_before;
  const uint64_t expected_loops = loops->Value() - loops_before;
  const Result<Graph> got = LoadEdgeList(path, undirected);
  const uint64_t got_edges = edges->Value() - edges_before - expected_edges;
  const uint64_t got_loops = loops->Value() - loops_before - expected_loops;
  std::remove(path.c_str());

  const int64_t newly = FirstNewlyRejectedLine(bytes);
  if (newly > 0 && newly <= MalformedLine(expected.status())) {
    const std::string want =
        "malformed line " + std::to_string(newly) + " in " + path + ": ";
    if (got.ok() || got.status().code() != StatusCode::kIOError ||
        got.status().message().rfind(want, 0) != 0) {
      return "want \"" + want + "...\", got " + got.status().ToString();
    }
    return "";
  }
  if (!expected.ok() || !got.ok()) {
    if (got.status().ToString() == expected.status().ToString()) return "";
    return "status " + got.status().ToString() + ", reference " +
           expected.status().ToString();
  }
  const std::string csr = testing::CsrDifference(got.value(), expected.value());
  if (!csr.empty()) return csr;
  if (got_edges != expected_edges || got_loops != expected_loops) {
    return "graph.load.* deltas " + std::to_string(got_edges) + "/" +
           std::to_string(got_loops) + ", reference " +
           std::to_string(expected_edges) + "/" +
           std::to_string(expected_loops);
  }
  return "";
}

// `lines` random lines over ids in [0, id_bound): mostly "src dst" and
// "src dst weight", with comments, blank lines, CRLF ends, tabs, self-loops
// and repeated pairs in both orientations mixed in.
std::string RandomCorpus(uint64_t seed, int64_t lines, uint64_t id_bound) {
  static const char* const kWeights[] = {"0.5",  "1",      "0.25", "1e-3",
                                         "+0.75", "0x1p-3", "2.5",  "1e-50",
                                         "0.1",  "7E-1"};
  Rng rng(seed);
  std::string out;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  for (int64_t i = 0; i < lines; ++i) {
    const uint64_t kind = rng.NextBounded(20);
    if (kind == 0) {
      out += "# comment " + std::to_string(i) + "\n";
      continue;
    }
    if (kind == 1) {
      out += (rng.NextBounded(2) == 0 ? "\n" : " \t\r\n");
      continue;
    }
    uint64_t src = rng.NextBounded(id_bound);
    uint64_t dst = rng.NextBounded(id_bound);
    if (kind == 2) dst = src;  // a self-loop
    if (kind <= 5 && !pairs.empty()) {
      // An earlier pair again, half the time reversed.
      std::tie(src, dst) = pairs[rng.NextBounded(pairs.size())];
      if (rng.NextBounded(2) == 0) std::swap(src, dst);
    }
    pairs.emplace_back(src, dst);
    out += std::to_string(src) + (rng.NextBounded(4) == 0 ? "\t" : " ") +
           std::to_string(dst);
    if (rng.NextBounded(2) == 0) {
      out += " ";
      out += kWeights[rng.NextBounded(std::size(kWeights))];
    }
    out += (rng.NextBounded(8) == 0 ? "\r\n" : "\n");
  }
  return out;
}

std::vector<std::string> Corpora() {
  std::vector<std::string> corpora = {
      // Comments, blank and space/tab-only lines, CRLF, tabs, trailing
      // whitespace, and a last line with no '\n'.
      "# comment\n% other\n\n \t \n\t\n0 1\r\n1\t2\n  2 3 \t\r\n\r\n3 0",
      // Lines of only '\v', '\f', two '\r' or "\r ": data lines, no fields.
      "0 1\n\v\n",
      "0 1\n\f\n",
      "0 1\n\r\r\n",
      "0 1\n\r \n",
      "0 1\n \v\t\n",
      // '\v', '\f' and a stray '\r' between fields.
      "0\v1\f0.5\n1\r2\n2 \r 0\r\n",
      // Weights: exponents, '+', hex floats, underflow (to 0 or a
      // denormal), values above 1, none, -0, and the float range's edges.
      "0 1 1e-3\n1 2 +0.25\n2 3 0x1.8p-2\n3 4 1e-50\n4 5 2.5E+1\n5 6\n"
      "6 7 -0\n7 8 0X1P-149\n8 9 1e-320\n9 0 3.4028235e38\n0 2 -1e-400\n",
      // Self-loops (numbered or not), pairs in both orientations with other
      // weights, '+' ids and leading zeros.
      "5 5\n0 1 0.5\n1 0 0.25\n0 1 0.75\n+2 007 0.125\n7 2 1\n3 3 0.5\n"
      "2 +7\n",
      "0 0\n5 5\n",
      // Ids near INT64_MAX, and one past it.
      "9223372036854775807 0\n0 9223372036854775806 0.5\n"
      "9223372036854775807 9223372036854775806\n",
      "1 9223372036854775808\n",
      // Rejections the two loaders share.
      "0 1\nnot numbers\n",
      "0 1 abc\n",
      "0 1 nan\n",
      "0 1 -inf\n",
      "0 1 1e999\n",
      "0 1 -1e-45\n",
      "0 1 0.5 extra\n",
      "0 1 0.5 x\0y\n"s,
      "0\n",
      "+ 1\n",
      "++1 2\n",
      "+-1 2\n",
      "0x10 1\n",
      "1 2 0x\n",
      "1 2 1e\n",
      // Newly rejected: a '-' id and a NUL byte in an id or weight.
      "0 1\n-1 2\n",
      "2 -7 0.5\n",
      "-0 1\n",
      "-x 1 0.5 extra\n",
      "0 1\0x\n"s,
      "0 1 0.5\0zz\n"s,
      "\0 \0\n"s,
      "# a comment may hold \0\n0 1\n"s,
      // Dense ids 0..n-1 and sparse large ids.
      RandomCorpus(1, 60, 40),
      RandomCorpus(2, 60, uint64_t{1} << 40),
  };
  return corpora;
}

TEST(EdgeListReferenceTest, CorporaMatchTheReference) {
  const std::vector<std::string> corpora = Corpora();
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SetGlobalThreadPoolSize(threads);
    for (size_t i = 0; i < corpora.size(); ++i) {
      for (const bool undirected : {false, true}) {
        EXPECT_EQ(LoaderDifference(corpora[i], undirected), "")
            << "corpus " << i << ", undirected " << undirected << ", "
            << threads << " threads";
      }
    }
  }
  SetGlobalThreadPoolSize(0);
}

TEST(EdgeListReferenceTest, IdsCrossingTheDenseBoundKeepFirstAppearance) {
  // The loader numbers ids below a quarter of the file size through a
  // table and larger ones through a hash map. Ids drawn from [0, 5 * lines)
  // straddle that bound all through the file, so first appearances
  // alternate between the two.
  const int64_t lines = 400;
  const std::string bytes = RandomCorpus(3, lines, 5 * lines);
  const int64_t bound = static_cast<int64_t>(bytes.size()) / 4;
  ASSERT_LT(bound, 4 * lines);
  ASSERT_GT(bound, lines / 2);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SetGlobalThreadPoolSize(threads);
    for (const bool undirected : {false, true}) {
      EXPECT_EQ(LoaderDifference(bytes, undirected), "")
          << "undirected " << undirected << ", " << threads << " threads";
    }
  }
  SetGlobalThreadPoolSize(0);
}

TEST(EdgeListReferenceTest, LinesAcrossReadBlocks) {
  // Past the loader's 1 MiB read block: lines (CRLF ones too) straddle
  // block ends, a comment line longer than the block makes the buffer
  // grow, and the last line has no '\n'. Long ids keep the line count (and the reference's time under
  // the sanitizers) down; the small ones take the dense table.
  std::string bytes = RandomCorpus(4, 25000, uint64_t{1} << 40);
  bytes += RandomCorpus(5, 20000, 30000);
  bytes += "# " + std::string(size_t{3} << 19, 'x') + "\r\n";
  bytes += RandomCorpus(6, 10000, uint64_t{1} << 40);
  bytes += "29999 12345 0.5";
  ASSERT_GT(bytes.size(), size_t{5} << 19);
  // The assembly's thread invariance is pinned elsewhere; one thread count
  // per direction keeps this to two reference loads.
  for (const bool undirected : {false, true}) {
    const size_t threads = undirected ? 4 : 1;
    SetGlobalThreadPoolSize(threads);
    EXPECT_EQ(LoaderDifference(bytes, undirected), "")
        << "undirected " << undirected << ", " << threads << " threads";
  }
  SetGlobalThreadPoolSize(0);
}

TEST(EdgeListReferenceTest, MissingFileMatchesTheReference) {
  const std::string path = TempPath("no_such_dir/edges.txt");
  EXPECT_EQ(LoadEdgeList(path, false).status().ToString(),
            testing::ReferenceLoadEdgeList(path, false).status().ToString());
}

TEST(EdgeListReferenceTest, SeededMutationsMatchTheReference) {
  // Flips, stray bytes the grammar cares about, deletions and truncation,
  // one to three per input, over every corpus.
  static const char kInserts[] = {'-', '+', '.', 'e', '\0', '\r',
                                  ' ', '\n', '#', '\t', '9', 'x'};
  const std::vector<std::string> corpora = Corpora();
  Rng rng(20);
  constexpr int kMutations = 10000;
  int failures = 0;
  for (int i = 0; i < kMutations && failures < 10; ++i) {
    std::string bytes = corpora[rng.NextBounded(corpora.size())];
    const uint64_t edits = 1 + rng.NextBounded(3);
    for (uint64_t e = 0; e < edits; ++e) {
      const size_t at = bytes.empty() ? 0 : rng.NextBounded(bytes.size());
      switch (rng.NextBounded(5)) {
        case 0:  // flip one bit
          if (!bytes.empty()) {
            bytes[at] ^= static_cast<char>(1 << rng.NextBounded(8));
          }
          break;
        case 1:  // any byte
          if (!bytes.empty()) {
            bytes[at] = static_cast<char>(rng.NextBounded(256));
          }
          break;
        case 2:
        case 3:
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                       kInserts[rng.NextBounded(sizeof(kInserts))]);
          break;
        default:  // delete one byte, or cut the tail off
          if (!bytes.empty()) {
            if (rng.NextBounded(2) == 0) {
              bytes.erase(at, 1);
            } else {
              bytes.resize(at);
            }
          }
          break;
      }
    }
    const std::string difference =
        LoaderDifference(bytes, /*undirected=*/(i & 1) != 0);
    if (!difference.empty()) {
      ++failures;
      ADD_FAILURE() << "mutation " << i << ": " << difference << "\ninput: \""
                    << bytes << "\"";
    }
  }
}

}  // namespace
}  // namespace privim
