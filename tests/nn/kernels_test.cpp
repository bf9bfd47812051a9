// Randomized correctness checks for the dense/sparse kernel specializations
// (MatMulATB, MatMulABT, the attention aggregation's pullback and the
// transposed-SpMM pullback) against naive references — byte for byte at
// every register-panel width and block boundary, on the finite and the
// masked path, including zeros opposite non-finite entries — plus
// central-difference parity for the MatMul/SpMM pullbacks.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "privim/nn/infer/program.h"
#include "privim/nn/ops.h"
#include "privim/nn/tensor.h"
#include "testing/gradcheck.h"

namespace privim {
namespace {

using testing::ExpectGradientsMatch;

Tensor RandomTensor(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Gaussian(rows, cols, 1.0f, &rng);
}

// Naive references accumulate in the same increasing-index order the
// kernels document, so 1e-6 is comfortably met (the orders agree exactly).
Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      float sum = 0.0f;
      for (int64_t k = 0; k < a.cols(); ++k) sum += a.at(i, k) * b.at(k, j);
      c.at(i, j) = sum;
    }
  }
  return c;
}

Tensor NaiveATB(const Tensor& a, const Tensor& b) {
  Tensor c(a.cols(), b.cols());
  for (int64_t j = 0; j < a.cols(); ++j) {
    for (int64_t l = 0; l < b.cols(); ++l) {
      float sum = 0.0f;
      for (int64_t i = 0; i < a.rows(); ++i) sum += a.at(i, j) * b.at(i, l);
      c.at(j, l) = sum;
    }
  }
  return c;
}

Tensor NaiveABT(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.rows());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.rows(); ++j) {
      float sum = 0.0f;
      for (int64_t k = 0; k < a.cols(); ++k) sum += a.at(i, k) * b.at(j, k);
      c.at(i, j) = sum;
    }
  }
  return c;
}

void ExpectTensorsNear(const Tensor& got, const Tensor& want, float tol) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (int64_t r = 0; r < got.rows(); ++r) {
    for (int64_t c = 0; c < got.cols(); ++c) {
      EXPECT_NEAR(got.at(r, c), want.at(r, c), tol)
          << "mismatch at (" << r << ", " << c << ")";
    }
  }
}

std::shared_ptr<const SparseMatrix> RandomSparse(int64_t rows, int64_t cols,
                                                 int64_t entries,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(entries));
  for (int64_t i = 0; i < entries; ++i) {
    triplets.push_back(
        {static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(rows))),
         static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(cols))),
         static_cast<float>(rng.NextGaussian(0.0, 1.0))});
  }
  return MakeSparseCsr(rows, cols, std::move(triplets));
}

TEST(KernelsTest, MatMulValuesMatchesNaive) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    const Tensor a = RandomTensor(17, 9, seed);
    const Tensor b = RandomTensor(9, 21, seed + 100);
    ExpectTensorsNear(MatMulValues(a, b), NaiveMatMul(a, b), 1e-6f);
  }
}

TEST(KernelsTest, MatMulATBMatchesNaive) {
  for (const uint64_t seed : {21u, 22u, 23u}) {
    const Tensor a = RandomTensor(25, 8, seed);
    const Tensor b = RandomTensor(25, 32, seed + 100);
    ExpectTensorsNear(MatMulATB(a, b), NaiveATB(a, b), 1e-6f);
  }
}

TEST(KernelsTest, MatMulABTMatchesNaive) {
  for (const uint64_t seed : {31u, 32u, 33u}) {
    const Tensor a = RandomTensor(25, 32, seed);
    const Tensor b = RandomTensor(8, 32, seed + 100);
    ExpectTensorsNear(MatMulABT(a, b), NaiveABT(a, b), 1e-6f);
  }
}

TEST(KernelsTest, MatMulATBHandlesSparseInput) {
  // ReLU-style sparsity in `a` exercises the zero-skip path.
  Tensor a = RandomTensor(19, 7, 41);
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      if (a.at(r, c) < 0.0f) a.at(r, c) = 0.0f;
    }
  }
  const Tensor b = RandomTensor(19, 13, 42);
  ExpectTensorsNear(MatMulATB(a, b), NaiveATB(a, b), 1e-6f);
}

// --- Byte-exact checks at every register-panel width. The kernels reduce
// each output in fixed-width panels (and eight rows at a time, one per
// lane, for a one-column product); the naive references above sum in the
// same order, so the results must agree to the byte. Widths 1, 8, 16, 32
// and 64 hit each panel form; 21 = 16 + 1 x 5 leaves a tail no panel
// covers. Row counts 1-17 cross every ragged eight-row block and 29, 30
// and 33 are subgraph sizes DP-SGD trains on; depths 7, 9 and 33 leave a
// ragged eight-column block. Each case also runs on copies with one inf
// planted in b away from any zero of a: the kernel then takes its masked
// instantiation, and the reference, which sums inf wherever the kernel
// does, must still agree. -----------------------------------------------

bool SameBytes(const Tensor& got, const Tensor& want) {
  return got.rows() == want.rows() && got.cols() == want.cols() &&
         std::memcmp(got.data(), want.data(),
                     static_cast<size_t>(want.size()) * sizeof(float)) == 0;
}

// ReLU-style sparsity: negative entries become +0, and every fifth entry
// becomes -0 (a zero from a negative product), which must contribute
// nothing either.
Tensor SparseTensor(int64_t rows, int64_t cols, uint64_t seed) {
  Tensor t = RandomTensor(rows, cols, seed);
  for (int64_t i = 0; i < t.size(); ++i) {
    float& v = t.data()[i];
    if (v < 0.0f) v = 0.0f;
    if (i % 5 == 0) v = -0.0f;
  }
  return t;
}

const int64_t kPanelWidths[] = {1, 8, 16, 32, 64, 21};
const int64_t kRowCounts[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
                              12, 13, 14, 15, 16, 17, 29, 30, 33};

// Replaces every +-0 in row r (or column c) of `a` with 0.5, so that no
// zero of `a` meets the inf planted opposite it.
void ClearZerosInRow(Tensor* a, int64_t r) {
  for (int64_t c = 0; c < a->cols(); ++c) {
    if (a->at(r, c) == 0.0f) a->at(r, c) = 0.5f;
  }
}

void ClearZerosInColumn(Tensor* a, int64_t c) {
  for (int64_t r = 0; r < a->rows(); ++r) {
    if (a->at(r, c) == 0.0f) a->at(r, c) = 0.5f;
  }
}

TEST(KernelsTest, MatMulValuesIsByteEqualToNaiveAtEveryPanelWidth) {
  const float inf = std::numeric_limits<float>::infinity();
  for (const int64_t rows : kRowCounts) {
    for (const int64_t width : kPanelWidths) {
      for (const int64_t inner : {1, 7, 9, 32, 33}) {
        SCOPED_TRACE("rows " + std::to_string(rows) + " width " +
                     std::to_string(width) + " inner " +
                     std::to_string(inner));
        Tensor a = SparseTensor(rows, inner, 100 + width + 1000 * rows);
        Tensor b = RandomTensor(inner, width, 200 + inner);
        EXPECT_TRUE(SameBytes(MatMulValues(a, b), NaiveMatMul(a, b)));
        Tensor into(a.rows(), width, 7.0f);  // stale contents are overwritten
        MatMulValuesInto(a, b, &into);
        EXPECT_TRUE(SameBytes(into, NaiveMatMul(a, b)));

        b.at(inner / 2, width / 2) = inf;
        ClearZerosInColumn(&a, inner / 2);
        EXPECT_TRUE(SameBytes(MatMulValues(a, b), NaiveMatMul(a, b)))
            << "inf planted";
      }
    }
  }
}

TEST(KernelsTest, MatMulATBIsByteEqualToNaiveAtEveryPanelWidth) {
  const float inf = std::numeric_limits<float>::infinity();
  for (const int64_t acols : kRowCounts) {
    for (const int64_t width : kPanelWidths) {
      for (const int64_t depth : {7, 9, 23, 33}) {
        SCOPED_TRACE("acols " + std::to_string(acols) + " width " +
                     std::to_string(width) + " depth " +
                     std::to_string(depth));
        Tensor a = SparseTensor(depth, acols, 300 + width + 1000 * acols);
        Tensor b = RandomTensor(depth, width, 400 + depth);
        EXPECT_TRUE(SameBytes(MatMulATB(a, b), NaiveATB(a, b)));
        std::vector<float> into(static_cast<size_t>(acols * width), 7.0f);
        MatMulATBInto(a, b, into.data());
        EXPECT_TRUE(std::memcmp(into.data(), NaiveATB(a, b).data(),
                                into.size() * sizeof(float)) == 0);

        b.at(depth / 2, width / 2) = inf;
        ClearZerosInRow(&a, depth / 2);
        EXPECT_TRUE(SameBytes(MatMulATB(a, b), NaiveATB(a, b)))
            << "inf planted";
      }
    }
  }
}

TEST(KernelsTest, MatMulABTIsByteEqualToNaiveAtEveryPanelWidth) {
  const float inf = std::numeric_limits<float>::infinity();
  for (const int64_t rows : kRowCounts) {
    for (const int64_t width : kPanelWidths) {
      for (const int64_t inner : {1, 7, 9, 32, 33}) {
        SCOPED_TRACE("rows " + std::to_string(rows) + " width " +
                     std::to_string(width) + " inner " +
                     std::to_string(inner));
        Tensor a = SparseTensor(rows, inner, 500 + width + 1000 * rows);
        Tensor b = RandomTensor(width, inner, 600 + inner);
        EXPECT_TRUE(SameBytes(MatMulABT(a, b), NaiveABT(a, b)));

        b.at(width / 2, inner / 2) = inf;
        ClearZerosInColumn(&a, inner / 2);
        EXPECT_TRUE(SameBytes(MatMulABT(a, b), NaiveABT(a, b)))
            << "inf planted";
      }
    }
  }
}

// A zero in `a` contributes nothing even where the opposite `b` entry is
// inf or NaN (0 * inf would be NaN): exactly what skipping the zero gives.
// A NaN in `a` still reaches its outputs.
TEST(KernelsTest, ZeroOppositeNonFiniteContributesNothingAndNaNPropagates) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto zero_skip_matmul = [](const Tensor& a, const Tensor& b) {
    Tensor c(a.rows(), b.cols());
    for (int64_t i = 0; i < a.rows(); ++i) {
      for (int64_t j = 0; j < b.cols(); ++j) {
        float sum = 0.0f;
        for (int64_t k = 0; k < a.cols(); ++k) {
          if (a.at(i, k) == 0.0f) continue;
          sum += a.at(i, k) * b.at(k, j);
        }
        c.at(i, j) = sum;
      }
    }
    return c;
  };
  const auto zero_skip_atb = [](const Tensor& a, const Tensor& b) {
    Tensor c(a.cols(), b.cols());
    for (int64_t j = 0; j < a.cols(); ++j) {
      for (int64_t l = 0; l < b.cols(); ++l) {
        float sum = 0.0f;
        for (int64_t i = 0; i < a.rows(); ++i) {
          if (a.at(i, j) == 0.0f) continue;
          sum += a.at(i, j) * b.at(i, l);
        }
        c.at(j, l) = sum;
      }
    }
    return c;
  };

  for (const int64_t width : kPanelWidths) {
    // a * b: row 3 of a is zero (+0 and -0) where b's rows carry inf/NaN.
    Tensor a = SparseTensor(17, 6, 700 + width);
    Tensor b = RandomTensor(6, width, 800 + width);
    for (int64_t j = 0; j < width; ++j) {
      b.at(2, j) = j % 2 == 0 ? inf : nan;
      b.at(4, j) = -inf;
    }
    for (int64_t i = 0; i < a.rows(); ++i) {
      a.at(i, 2) = i % 2 == 0 ? 0.0f : -0.0f;
      a.at(i, 4) = 0.0f;
    }
    a.at(5, 1) = nan;
    const Tensor c = MatMulValues(a, b);
    EXPECT_TRUE(SameBytes(c, zero_skip_matmul(a, b))) << "width " << width;
    for (int64_t j = 0; j < width; ++j) {
      EXPECT_TRUE(std::isnan(c.at(5, j))) << "width " << width;
      EXPECT_FALSE(std::isnan(c.at(6, j))) << "width " << width;
    }

    // a^T * b: column 1 of a is zero where b's rows carry inf/NaN.
    Tensor at = SparseTensor(12, 9, 900 + width);
    Tensor bt = RandomTensor(12, width, 1000 + width);
    for (int64_t i = 0; i < at.rows(); i += 3) {
      at.at(i, 1) = i % 2 == 0 ? 0.0f : -0.0f;
      for (int64_t l = 0; l < width; ++l) bt.at(i, l) = l % 2 ? inf : nan;
      for (int64_t j = 0; j < at.cols(); ++j) {
        if (j != 1) at.at(i, j) = 0.0f;
      }
    }
    at.at(1, 7) = nan;
    const Tensor ct = MatMulATB(at, bt);
    EXPECT_TRUE(SameBytes(ct, zero_skip_atb(at, bt))) << "width " << width;
    for (int64_t l = 0; l < width; ++l) {
      EXPECT_TRUE(std::isnan(ct.at(7, l))) << "width " << width;
      EXPECT_FALSE(std::isnan(ct.at(1, l))) << "width " << width;
    }
  }
}

// --- The attention aggregation's pullback (infer::EdgeAggregateGradInto)
// against the tape's operations written out: MulColBroadcast's dot — float
// products summed in double, j ascending — and GatherRows' scatter, edges
// ascending. The kernel reads the attention edges from an in-CSR; the
// reference reads them as the tape's lists, expanded from that CSR in the
// documented order (the arcs, destinations ascending, then one self-loop
// per node). Edge counts 1-17 cross every ragged eight-edge block and 88 is
// train_sgd's mean attention-edge count; each CSR has num_edges / 3 nodes
// (at least one), some of them with no in-arcs, so blocks straddle empty
// rows and the arcs' end. d = 7, 8, 32 and 33 give no full eight-column
// block, exactly one, four, and four with a ragged tail. A double sum of a
// few dozen ordinary float products is exact in any order, so each case
// runs again with a cancelling pair of huge products planted in columns 1
// and d - 2 (+2^60, then -2^60): summed in j order the first swallows
// column 0 and the pair cancels before column d - 1 is added, so any other
// order gives other bytes. ----------------------------------------------

// A random in-CSR holding `num_edges` attention edges: n nodes and
// num_edges - n arcs with random destinations and sources.
struct RandomAttentionCsr {
  int64_t n = 0;
  std::vector<int64_t> offsets;
  std::vector<int32_t> sources;

  RandomAttentionCsr(int64_t num_edges, Rng* rng)
      : n(std::max<int64_t>(1, num_edges / 3)) {
    const int64_t arcs = num_edges - n;
    std::vector<int32_t> dst;
    for (int64_t k = 0; k < arcs; ++k) {
      dst.push_back(static_cast<int32_t>(rng->NextBounded(n)));
    }
    std::sort(dst.begin(), dst.end());
    offsets.assign(static_cast<size_t>(n) + 1, 0);
    for (const int32_t v : dst) ++offsets[static_cast<size_t>(v) + 1];
    for (int64_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    for (int64_t k = 0; k < arcs; ++k) {
      // The last node is the first arc's source, so its t row is read by
      // an arc as well as by its self-loop.
      sources.push_back(k == 0 ? static_cast<int32_t>(n - 1)
                               : static_cast<int32_t>(rng->NextBounded(n)));
    }
  }

  infer::AttentionEdges edges() const {
    return {n, offsets.data(), sources.data()};
  }

  /// The tape's lists: the arcs in CSR order, then the self-loops.
  void Lists(std::vector<int32_t>* asrc, std::vector<int32_t>* adst) const {
    for (int64_t v = 0; v < n; ++v) {
      for (int64_t k = offsets[v]; k < offsets[v + 1]; ++k) {
        asrc->push_back(sources[static_cast<size_t>(k)]);
        adst->push_back(static_cast<int32_t>(v));
      }
    }
    for (int64_t v = 0; v < n; ++v) {
      asrc->push_back(static_cast<int32_t>(v));
      adst->push_back(static_cast<int32_t>(v));
    }
  }
};

void NaiveEdgeAggregateGrad(const Tensor& alpha, const Tensor& t,
                            const Tensor& g, const std::vector<int32_t>& asrc,
                            const std::vector<int32_t>& adst, Tensor* dalpha,
                            Tensor* dt) {
  for (size_t e = 0; e < asrc.size(); ++e) {
    double dot = 0.0;
    for (int64_t j = 0; j < t.cols(); ++j) {
      dot += g.at(adst[e], j) * t.at(asrc[e], j);
    }
    dalpha->at(static_cast<int64_t>(e), 0) = static_cast<float>(dot);
  }
  for (size_t e = 0; e < asrc.size(); ++e) {
    for (int64_t j = 0; j < t.cols(); ++j) {
      dt->at(asrc[e], j) += alpha.at(static_cast<int64_t>(e), 0) *
                            g.at(adst[e], j);
    }
  }
}

TEST(KernelsTest, EdgeAggregatePullbackIsByteEqualToNaive) {
  std::vector<int64_t> edge_counts;
  for (int64_t count = 1; count <= 17; ++count) edge_counts.push_back(count);
  edge_counts.push_back(88);
  for (const int64_t d : {7, 8, 32, 33}) {
    for (const int64_t num_edges : edge_counts) {
      SCOPED_TRACE("d " + std::to_string(d) + " edges " +
                   std::to_string(num_edges));
      const uint64_t seed = static_cast<uint64_t>(100 * d + num_edges);
      Rng rng(seed);
      const RandomAttentionCsr csr(num_edges, &rng);
      const int64_t n = csr.n;
      std::vector<int32_t> asrc, adst;
      csr.Lists(&asrc, &adst);
      ASSERT_EQ(static_cast<int64_t>(asrc.size()), num_edges);
      const Tensor alpha = RandomTensor(num_edges, 1, seed + 1);
      Tensor t = RandomTensor(n, d, seed + 2);
      Tensor g = RandomTensor(n, d, seed + 3);
      for (const bool cancelling : {false, true}) {
        if (cancelling) {
          const float huge = std::ldexp(1.0f, 30);
          for (int64_t i = 0; i < n; ++i) {
            g.at(i, 1) = huge;
            t.at(i, 1) = huge;
            g.at(i, d - 2) = huge;
            t.at(i, d - 2) = -huge;
          }
        }
        Tensor want_dalpha(num_edges, 1), want_dt(n, d);
        NaiveEdgeAggregateGrad(alpha, t, g, asrc, adst, &want_dalpha,
                               &want_dt);
        Tensor dalpha(num_edges, 1, 7.0f);  // stale contents are overwritten
        Tensor dt(n, d);
        infer::EdgeAggregateGradInto(alpha, t, g, csr.edges(), &dalpha,
                                     &dt);
        EXPECT_TRUE(SameBytes(dalpha, want_dalpha)) << "cancelling "
                                                    << cancelling;
        EXPECT_TRUE(SameBytes(dt, want_dt)) << "cancelling " << cancelling;
      }
    }
  }
}

TEST(KernelsTest, TransposedSpMMPullbackMatchesNaive) {
  for (const uint64_t seed : {51u, 52u, 53u}) {
    const int64_t n = 14, m = 11, d = 6;
    const auto sparse = RandomSparse(n, m, 30, seed);
    const Tensor xval = RandomTensor(m, d, seed + 100);
    // Weighting y elementwise gives a non-trivial upstream gradient W, so
    // the pullback computes dx = S^T W through the transposed CSR walk.
    const Tensor w = RandomTensor(n, d, seed + 200);

    Variable x(xval, /*requires_grad=*/true);
    Variable y = SpMM(sparse, x);
    Sum(Multiply(y, Variable(w, /*requires_grad=*/false))).Backward();

    // Naive S^T W via the triplet expansion of the CSR, row-ascending —
    // the same scatter order the pullback uses.
    Tensor want(m, d);
    for (int64_t r = 0; r < sparse->rows; ++r) {
      for (int64_t e = sparse->offsets[static_cast<size_t>(r)];
           e < sparse->offsets[static_cast<size_t>(r + 1)]; ++e) {
        const int32_t c = sparse->indices[static_cast<size_t>(e)];
        const float v = sparse->values[static_cast<size_t>(e)];
        for (int64_t j = 0; j < d; ++j) {
          want.at(c, j) += v * w.at(r, j);
        }
      }
    }
    ExpectTensorsNear(x.grad(), want, 1e-6f);
  }
}

TEST(KernelsTest, MatMulPullbackGradcheck) {
  const Tensor aval = RandomTensor(6, 5, 61);
  const Tensor bval = RandomTensor(5, 4, 62);
  const Tensor w = RandomTensor(6, 4, 63);
  // d/da of sum(W ⊙ (a b)): exercises the MatMulABT pullback kernel.
  ExpectGradientsMatch(Variable(aval, true), [&](Variable a) {
    return Sum(Multiply(MatMul(a, Variable(bval, false)),
                        Variable(w, false)));
  });
  // d/db of the same loss: exercises the MatMulATB pullback kernel.
  ExpectGradientsMatch(Variable(bval, true), [&](Variable b) {
    return Sum(Multiply(MatMul(Variable(aval, false), b),
                        Variable(w, false)));
  });
}

TEST(KernelsTest, SpMMPullbackGradcheck) {
  const auto sparse = RandomSparse(9, 7, 20, 71);
  const Tensor xval = RandomTensor(7, 3, 72);
  const Tensor w = RandomTensor(9, 3, 73);
  ExpectGradientsMatch(Variable(xval, true), [&](Variable x) {
    return Sum(Multiply(SpMM(sparse, x), Variable(w, false)));
  });
}

}  // namespace
}  // namespace privim
