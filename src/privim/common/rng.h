// Deterministic, splittable pseudo-random number generation.
//
// Everything stochastic in PrivIM (graph generation, random walks, Poisson
// subsampling, DP noise, weight init, Monte-Carlo diffusion) draws from an
// `Rng`, so a run is reproducible from a single 64-bit seed. The engine is
// xoshiro256**, seeded through SplitMix64 as its authors recommend.

#ifndef PRIVIM_COMMON_RNG_H_
#define PRIVIM_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "privim/common/status.h"

namespace privim {

/// Complete serializable state of an Rng. Restoring it resumes the stream
/// at exactly the draw where SaveState was taken — including the cached
/// second Box-Muller Gaussian, which is part of the observable stream.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool has_cached_gaussian = false;
  double cached_gaussian = 0.0;

  bool operator==(const RngState& other) const {
    return s[0] == other.s[0] && s[1] == other.s[1] && s[2] == other.s[2] &&
           s[3] == other.s[3] &&
           has_cached_gaussian == other.has_cached_gaussian &&
           cached_gaussian == other.cached_gaussian;
  }
};

/// xoshiro256** engine with convenience distributions.
///
/// Not thread-safe; use `Split()` to derive independent per-thread/per-task
/// streams deterministically.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four-word state from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Raw 64 random bits (UniformRandomBitGenerator interface).
  uint64_t operator()() { return Next(); }
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }

  /// Raw 64 random bits.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// nearly-divisionless method (unbiased).
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// True with probability p (p clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Standard normal via Box-Muller (cached pair).
  double NextGaussian();

  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Exponential with rate `lambda` (mean 1/lambda).
  double NextExponential(double lambda = 1.0);

  /// Standard Laplace (location 0, scale b).
  double NextLaplace(double scale);

  /// Samples an index in [0, weights.size()) proportionally to `weights`.
  /// All weights must be >= 0 with a positive sum; returns size() on a
  /// degenerate (all-zero) input so callers can detect it.
  size_t NextDiscrete(const std::vector<double>& weights);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Derives a new, statistically independent generator. Deterministic: the
  /// k-th split of a given Rng state is always the same.
  Rng Split();

  /// Snapshot of the full generator state (checkpoint/resume).
  RngState SaveState() const;

  /// Restores a state captured by SaveState. The all-zero engine state is
  /// invalid for xoshiro and is rejected.
  Status RestoreState(const RngState& state);

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Derives the `stream`-th independent RNG stream of `base_seed` without
/// touching any shared generator state. This is the per-task scheme the
/// parallel hot paths use: task i draws from SplitRng(base_seed, i), so the
/// random numbers a task sees depend only on (base_seed, i) — never on which
/// worker ran it or how many threads exist — and results are bit-identical
/// at any thread count.
Rng SplitRng(uint64_t base_seed, uint64_t stream);

}  // namespace privim

#endif  // PRIVIM_COMMON_RNG_H_
