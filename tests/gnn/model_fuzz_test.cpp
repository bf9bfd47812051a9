// Seeded mutations of the model text format (gnn/serialization.*), which
// `privim_cli select` and privim_serve's admin swap read from untrusted
// files. No external fuzzer: a seeded Rng drives the mutations, so every
// run reads the same corpus and a failure reproduces from the case number
// in its message.
//
// The invariant: every read is OK or IOError, never a crash, an abort or a
// sanitizer report, and its memory is bounded by the bytes it read. A
// model that reads back writes bytes that read back to the same bytes.

#include <cctype>
#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "privim/common/rng.h"
#include "privim/gnn/models.h"
#include "privim/gnn/serialization.h"

namespace privim {
namespace {

std::string Encode(const GnnModel& model) {
  std::ostringstream out;
  EXPECT_TRUE(WriteGnnModel(model, out).ok());
  return out.str();
}

Result<std::unique_ptr<GnnModel>> Decode(const std::string& bytes) {
  std::istringstream in(bytes);
  return ReadGnnModel(in);
}

/// One small model of every kind, its weights scaled off the fresh draws.
std::vector<std::string> Corpus() {
  std::vector<std::string> corpus;
  for (const GnnKind kind : {GnnKind::kGcn, GnnKind::kSage, GnnKind::kGat,
                             GnnKind::kGrat, GnnKind::kGin}) {
    GnnConfig config;
    config.kind = kind;
    config.input_dim = 3;
    config.hidden_dim = 4;
    config.num_layers = 2;
    Rng rng(static_cast<uint64_t>(kind) + 5);
    std::unique_ptr<GnnModel> model = CreateGnnModel(config, &rng).value();
    for (const Variable& p : model->parameters()) {
      Tensor& t = const_cast<Variable&>(p).mutable_value();
      for (int64_t i = 0; i < t.size(); ++i) t.data()[i] *= 1.37f;
    }
    corpus.push_back(Encode(*model));
  }
  return corpus;
}

/// The [begin, end) byte ranges of the whitespace-separated tokens.
std::vector<std::pair<size_t, size_t>> Tokens(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(
                                  text[i]))) {
      ++i;
    }
    const size_t begin = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(
                                  text[i]))) {
      ++i;
    }
    if (i > begin) tokens.emplace_back(begin, i);
  }
  return tokens;
}

/// Zero, negative, huge and overflowing integers, and the non-finite and
/// out-of-range floats.
const char* const kHostileNumbers[] = {
    "0",   "-1",    "-4000000000", "4000000000", "9223372036854775807",
    "9223372036854775808", "99999999999999999999", "1e3",  "0x10",
    "nan", "-nan",  "inf",         "-inf",       "1e999",
    "0x1p-149", "+7", "7x", "",
};

std::string Mutate(const std::string& base, uint64_t kind, Rng* rng) {
  std::string text = base;
  switch (kind) {
    case 0: {  // flip bytes
      const uint64_t flips = 1 + rng->NextBounded(4);
      for (uint64_t f = 0; f < flips; ++f) {
        const size_t at = rng->NextBounded(text.size());
        text[at] = static_cast<char>(rng->NextBounded(256));
      }
      return text;
    }
    case 1:  // truncate
      return text.substr(0, rng->NextBounded(text.size()));
    default: {  // rewrite a header number, a shape or a weight
      const std::vector<std::pair<size_t, size_t>> tokens = Tokens(text);
      // Tokens 0-13 are the magic, the version and the six key/value
      // pairs; every later one is a shape or a weight. Rewrite a header
      // value half of the time.
      static const size_t kHeaderValues[] = {5, 7, 9, 11, 13};
      const size_t index =
          rng->NextBounded(2) == 0
              ? kHeaderValues[rng->NextBounded(std::size(kHeaderValues))]
              : 14 + rng->NextBounded(tokens.size() - 14);
      const std::string value =
          kHostileNumbers[rng->NextBounded(std::size(kHostileNumbers))];
      const auto [begin, end] = tokens[index];
      return text.replace(begin, end - begin, value);
    }
  }
}

TEST(ModelFileFuzzTest, SeededMutationsReadOkOrIOErrorAndRoundTrip) {
  const std::vector<std::string> corpus = Corpus();
  for (const std::string& text : corpus) {
    const Result<std::unique_ptr<GnnModel>> model = Decode(text);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_EQ(Encode(*model.value()), text);
  }
  Rng rng(20261021);
  int accepted = 0;
  constexpr int kCases = 12000;
  for (int i = 0; i < kCases; ++i) {
    const std::string& base = corpus[static_cast<size_t>(i) % corpus.size()];
    const std::string mutated =
        Mutate(base, static_cast<uint64_t>(i / 5) % 3, &rng);
    const Result<std::unique_ptr<GnnModel>> model = Decode(mutated);
    if (!model.ok()) {
      ASSERT_EQ(model.status().code(), StatusCode::kIOError)
          << "case " << i << ": " << model.status().ToString();
      continue;
    }
    ++accepted;
    const std::string written = Encode(*model.value());
    const Result<std::unique_ptr<GnnModel>> again = Decode(written);
    ASSERT_TRUE(again.ok()) << "case " << i << ": "
                            << again.status().ToString();
    ASSERT_EQ(Encode(*again.value()), written) << "case " << i;
  }
  // The corpus must exercise both outcomes: weights rewritten to nan/inf
  // and flips inside digits still read.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCases);
}

// A 150-byte file whose header declares hidden_dim 4e9 once made the
// reader build (and Glorot-fill) every declared shape before it read one
// value. Now the header is checked against the layout and a tensor grows
// only as its values arrive.
TEST(ModelFileFuzzTest, HostileHeaderFailsWithoutAllocatingItsClaim) {
  const std::string head =
      "privim-model v1\nkind grat\ninput_dim 8\nhidden_dim 4000000000\n"
      "num_layers 3\nleaky_slope 0x1.99999ap-3\nparams 14\n"
      "4000000000 1\n0x1p-1 0x1p-2 0x1p-3\n";
  // GRAT's h x h weight overflows int64.
  Result<std::unique_ptr<GnnModel>> model = Decode(head);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kIOError);
  EXPECT_NE(model.status().message().find("overflow"), std::string::npos)
      << model.status().ToString();

  // A one-layer GCN of that width fits int64 (3.2e10 elements in W alone),
  // so the read gets as far as the values and runs out of them.
  model = Decode(
      "privim-model v1\nkind gcn\ninput_dim 8\nhidden_dim 4000000000\n"
      "num_layers 1\nleaky_slope 0x1.99999ap-3\nparams 4\n"
      "4000000000 1\n0x1p-1 0x1p-2 0x1p-3\n");
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kIOError);
  EXPECT_NE(model.status().message().find("truncated"), std::string::npos)
      << model.status().ToString();

  // A layer count no file could hold.
  model = Decode(
      "privim-model v1\nkind gin\ninput_dim 8\nhidden_dim 4\n"
      "num_layers 4611686018427387904\nleaky_slope 0x1.99999ap-3\n"
      "params 2\n");
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace privim
