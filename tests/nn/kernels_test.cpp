// Randomized correctness checks for the dense/sparse kernel specializations
// (MatMulATB, MatMulABT, and the transposed-SpMM pullback) against naive
// references — byte for byte at every register-panel width, including
// zeros opposite non-finite entries — plus central-difference parity for
// the MatMul/SpMM pullbacks.

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
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
// each output in fixed-width panels (and 8 outputs at a time for a
// one-column product); the naive references above sum in the same order,
// so the results must agree to the byte. Widths 1, 8, 16, 32 and 64 hit
// each panel form; 21 = 16 + 1 x 5 leaves a tail no panel covers. --------

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

TEST(KernelsTest, MatMulValuesIsByteEqualToNaiveAtEveryPanelWidth) {
  for (const int64_t width : kPanelWidths) {
    for (const int64_t inner : {int64_t{1}, int64_t{9}, int64_t{32}}) {
      const Tensor a = SparseTensor(19, inner, 100 + width);
      const Tensor b = RandomTensor(inner, width, 200 + inner);
      EXPECT_TRUE(SameBytes(MatMulValues(a, b), NaiveMatMul(a, b)))
          << "width " << width << " inner " << inner;
      Tensor into(a.rows(), width, 7.0f);  // stale contents are overwritten
      MatMulValuesInto(a, b, &into);
      EXPECT_TRUE(SameBytes(into, NaiveMatMul(a, b)));
    }
  }
}

TEST(KernelsTest, MatMulATBIsByteEqualToNaiveAtEveryPanelWidth) {
  for (const int64_t width : kPanelWidths) {
    for (const int64_t acols : {int64_t{1}, int64_t{8}, int64_t{19}}) {
      const Tensor a = SparseTensor(23, acols, 300 + width);
      const Tensor b = RandomTensor(23, width, 400 + acols);
      EXPECT_TRUE(SameBytes(MatMulATB(a, b), NaiveATB(a, b)))
          << "width " << width << " acols " << acols;
    }
  }
}

TEST(KernelsTest, MatMulABTIsByteEqualToNaiveAtEveryPanelWidth) {
  for (const int64_t width : kPanelWidths) {
    for (const int64_t inner : {int64_t{1}, int64_t{32}}) {
      const Tensor a = SparseTensor(19, inner, 500 + width);
      const Tensor b = RandomTensor(width, inner, 600 + inner);
      EXPECT_TRUE(SameBytes(MatMulABT(a, b), NaiveABT(a, b)))
          << "width " << width << " inner " << inner;
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
