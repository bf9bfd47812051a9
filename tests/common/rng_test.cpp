#include "privim/common/rng.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "gtest/gtest.h"

namespace privim {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 20; ++i) differences += (a.Next() != b.Next());
  EXPECT_GT(differences, 15);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(5);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(13);
  const uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(bound)];
  for (int count : counts) {
    EXPECT_NEAR(count, n / static_cast<int>(bound), 600);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t x = rng.NextInt(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  for (double p : {0.1, 0.5, 0.9}) {
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(p);
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
  }
}

TEST(RngTest, BernoulliDegenerate) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(23);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianShiftScale) {
  Rng rng(29);
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian(5.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(31);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, LaplaceSymmetricWithCorrectScale) {
  Rng rng(37);
  const int n = 200000;
  double sum = 0.0, abs_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextLaplace(3.0);
    sum += x;
    abs_sum += std::abs(x);
  }
  EXPECT_NEAR(sum / n, 0.0, 0.1);
  // E|Laplace(b)| = b.
  EXPECT_NEAR(abs_sum / n, 3.0, 0.1);
}

TEST(RngTest, DiscreteProportionalToWeights) {
  Rng rng(53);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextDiscrete(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, DiscreteIgnoresZeroWeights) {
  Rng rng(59);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.NextDiscrete(weights), 1u);
}

TEST(RngTest, DiscreteDegenerateReturnsSize) {
  Rng rng(61);
  EXPECT_EQ(rng.NextDiscrete({0.0, 0.0}), 2u);
  EXPECT_EQ(rng.NextDiscrete({}), 0u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(67);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = items;
  rng.Shuffle(&items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, original);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(71);
  std::vector<int> items(50);
  for (int i = 0; i < 50; ++i) items[i] = i;
  rng.Shuffle(&items);
  int moved = 0;
  for (int i = 0; i < 50; ++i) moved += (items[i] != i);
  EXPECT_GT(moved, 30);
}

TEST(RngTest, SaveRestoreResumesStreamExactly) {
  Rng rng(2024);
  for (int i = 0; i < 10; ++i) rng.Next();
  const RngState state = rng.SaveState();

  std::vector<uint64_t> expected;
  for (int i = 0; i < 20; ++i) expected.push_back(rng.Next());

  Rng other(1);  // different seed; state restore must fully overwrite it
  ASSERT_TRUE(other.RestoreState(state).ok());
  for (int i = 0; i < 20; ++i) EXPECT_EQ(other.Next(), expected[i]);
}

TEST(RngTest, SaveRestorePreservesCachedGaussian) {
  // Box-Muller produces values in pairs; the cached second value is part
  // of the observable stream, so a snapshot between the two draws must
  // carry it.
  Rng rng(55);
  rng.NextGaussian();  // consumes one pair member, caches the other
  const RngState state = rng.SaveState();
  EXPECT_TRUE(state.has_cached_gaussian);
  const double expected_cached = rng.NextGaussian();
  const double expected_fresh = rng.NextGaussian();

  Rng restored(0);
  ASSERT_TRUE(restored.RestoreState(state).ok());
  EXPECT_EQ(restored.NextGaussian(), expected_cached);
  EXPECT_EQ(restored.NextGaussian(), expected_fresh);
}

TEST(RngTest, RestoreRejectsAllZeroState) {
  RngState dead;  // all-zero engine state is a xoshiro fixed point
  Rng rng(3);
  EXPECT_EQ(rng.RestoreState(dead).code(), StatusCode::kInvalidArgument);
  // The generator is still usable after the rejected restore.
  EXPECT_NE(rng.Next(), 0u);
}

TEST(RngTest, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent1(99), parent2(99);
  Rng child1 = parent1.Split();
  Rng child2 = parent2.Split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child1.Next(), child2.Next());

  // The child stream should differ from the parent continuation.
  Rng parent3(99);
  Rng child3 = parent3.Split();
  int differences = 0;
  for (int i = 0; i < 20; ++i) differences += (child3.Next() != parent3.Next());
  EXPECT_GT(differences, 15);
}

}  // namespace
}  // namespace privim
