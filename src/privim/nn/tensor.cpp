#include "privim/nn/tensor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "privim/nn/arena.h"

namespace privim {

Tensor::Tensor(int64_t rows, int64_t cols, float fill)
    : rows_(rows), cols_(cols) {
  assert(rows >= 0 && cols >= 0);
  const size_t n = static_cast<size_t>(rows * cols);
  nn::TensorArena* arena = nn::ActiveArena();
  if (arena != nullptr) {
    data_ = arena->Acquire(n);
    std::fill(data_.begin(), data_.end(), fill);
  } else {
    data_.assign(n, fill);
  }
}

Tensor::Tensor(const Tensor& other) : rows_(other.rows_), cols_(other.cols_) {
  nn::TensorArena* arena = nn::ActiveArena();
  if (arena != nullptr) {
    data_ = arena->Acquire(other.data_.size());
    std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  } else {
    data_ = other.data_;
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  const size_t n = other.data_.size();
  if (data_.capacity() < n) {
    nn::TensorArena* arena = nn::ActiveArena();
    if (arena != nullptr) {
      arena->Recycle(std::move(data_));
      data_ = arena->Acquire(n);
    }
  }
  data_.resize(n);
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_.clear();
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  ReleaseStorage();
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = std::move(other.data_);
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_.clear();
  return *this;
}

Tensor::~Tensor() { ReleaseStorage(); }

void Tensor::ReleaseStorage() {
  if (data_.capacity() != 0) {
    nn::TensorArena* arena = nn::ActiveArena();
    if (arena != nullptr) {
      arena->Recycle(std::move(data_));
      data_.clear();
    }
    // No active arena: the vector frees (or keeps) its storage normally.
  }
  rows_ = 0;
  cols_ = 0;
}

Tensor Tensor::Uninitialized(int64_t rows, int64_t cols) {
  assert(rows >= 0 && cols >= 0);
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  const size_t n = static_cast<size_t>(rows * cols);
  nn::TensorArena* arena = nn::ActiveArena();
  if (arena != nullptr) {
    t.data_ = arena->Acquire(n);
  } else {
    t.data_.resize(n);  // no uninitialized-resize without an arena
  }
  return t;
}

Tensor Tensor::FromVector(int64_t rows, int64_t cols,
                          std::vector<float> values) {
  assert(static_cast<int64_t>(values.size()) == rows * cols);
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.data_ = std::move(values);
  return t;
}

Tensor Tensor::Gaussian(int64_t rows, int64_t cols, float stddev, Rng* rng) {
  Tensor t(rows, cols);
  for (float& x : t.data_) {
    x = static_cast<float>(rng->NextGaussian(0.0, stddev));
  }
  return t;
}

Tensor Tensor::GlorotUniform(int64_t fan_in, int64_t fan_out, Rng* rng) {
  Tensor t(fan_in, fan_out);
  const float limit =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  for (float& x : t.data_) {
    x = limit * (2.0f * static_cast<float>(rng->NextDouble()) - 1.0f);
  }
  return t;
}

void Tensor::AddInPlace(const Tensor& other) {
  assert(SameShape(other));
  float* PRIVIM_RESTRICT dst = data_.data();
  const float* PRIVIM_RESTRICT src = other.data_.data();
  const size_t n = data_.size();
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void Tensor::ScaleInPlace(float factor) {
  for (float& x : data_) x *= factor;
}

float Tensor::L2Norm() const {
  double sum = 0.0;
  for (float x : data_) sum += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(sum));
}

float Tensor::Sum() const {
  double sum = 0.0;
  for (float x : data_) sum += x;
  return static_cast<float>(sum);
}

float Tensor::MaxAbs() const {
  float max_abs = 0.0f;
  for (float x : data_) max_abs = std::max(max_abs, std::abs(x));
  return max_abs;
}

namespace {

// The kernels below take their buffers as restrict-qualified function
// parameters: GCC only trusts restrict on parameters, not on locals, so
// hoisting the loops here removes the runtime "loop versioned for aliasing"
// overlap checks the inner loops would otherwise re-run on every entry.

// Register-resident matmul kernels. Outputs are reduced in tiles whose
// accumulators stay in registers for the whole reduction and are stored
// once: two output rows at a time (sharing each load of b), in column
// panels of 32, 16 and 8 picked greedily from the output width, then one
// column at a time; a one-column output is reduced 8 outputs at a time, so
// 8 independent chains hide the add latency. Tiling changes neither the
// terms nor their per-element order.
//
// Zero entries of `a` (ReLU activations are sparse) contribute nothing: a
// branch-free mask adds +0 in their place. That is exact: accumulators
// start at +0 and a round-to-nearest sum that starts at +0 never becomes
// -0, so adding +0 leaves every accumulator unchanged. Skipping the zero
// gives the same result even where the opposite `b` entry is inf or NaN
// (0 * b would be NaN). A NaN in `a` still propagates.

#if defined(__GNUC__) || defined(__clang__)
#define PRIVIM_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define PRIVIM_ALWAYS_INLINE inline
#endif

// Eight float lanes (GCC/Clang vector extension; lowered to two 4-lane
// halves on targets without 256-bit registers) and their bit patterns.
typedef float Lanes8 __attribute__((vector_size(32)));
typedef uint32_t Bits8 __attribute__((vector_size(32)));

// Unaligned lane loads and stores. Vectors travel by pointer: passing
// them by value would change the ABI between the target clones.
PRIVIM_ALWAYS_INLINE void LoadLanes(const float* p, Lanes8* v) {
  std::memcpy(v, p, sizeof(*v));
}

PRIVIM_ALWAYS_INLINE void StoreLanes(const Lanes8& v, float* p) {
  std::memcpy(p, &v, sizeof(v));
}

// All-ones when `a` contributes, all-zeros when it is +-0. A mask rather
// than a conditional, so the compiler cannot turn it back into a branch.
PRIVIM_ALWAYS_INLINE uint32_t KeepMask(float a) {
  return 0u - static_cast<uint32_t>(a != 0.0f);
}

// a * b, or +0 where `keep` is zero.
PRIVIM_ALWAYS_INLINE float MaskedTerm(float a, float b, uint32_t keep) {
  return std::bit_cast<float>(std::bit_cast<uint32_t>(a * b) & keep);
}

// A tile of R output rows x W columns, W a multiple of 8: row r's
// c[r * crow + 0..W) = sum over k ascending of a[r * arow + k * astride] *
// b[k * bstride + 0..W), with the R * W accumulators held in R * W / 8
// vector registers. The R rows share every load of b.
template <int R, int W>
PRIVIM_ALWAYS_INLINE void ReduceTile(const float* PRIVIM_RESTRICT a,
                                     int64_t arow, int64_t astride,
                                     const float* PRIVIM_RESTRICT b,
                                     int64_t bstride, int64_t depth,
                                     float* PRIVIM_RESTRICT c, int64_t crow) {
  constexpr int kVecs = W / 8;
  Lanes8 acc[R][kVecs];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < kVecs; ++v) acc[r][v] = Lanes8{};
  }
  for (int64_t k = 0; k < depth; ++k) {
    // The broadcast adds +0, which only turns a -0 into +0; zeros are
    // masked out below either way.
    Lanes8 av[R];
    Bits8 keep[R];
    for (int r = 0; r < R; ++r) {
      av[r] = Lanes8{} + a[r * arow + k * astride];
      keep[r] = reinterpret_cast<Bits8>(av[r] != Lanes8{});
    }
    const float* PRIVIM_RESTRICT brow = b + k * bstride;
    for (int v = 0; v < kVecs; ++v) {
      Lanes8 bv;
      LoadLanes(brow + 8 * v, &bv);
      for (int r = 0; r < R; ++r) {
        const Lanes8 term = av[r] * bv;
        acc[r][v] +=
            reinterpret_cast<Lanes8>(reinterpret_cast<Bits8>(term) & keep[r]);
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < kVecs; ++v) StoreLanes(acc[r][v], c + r * crow + 8 * v);
  }
}

// One output column of one row (narrow tails).
PRIVIM_ALWAYS_INLINE void ReduceScalar(const float* PRIVIM_RESTRICT a,
                                       int64_t astride,
                                       const float* PRIVIM_RESTRICT b,
                                       int64_t bstride, int64_t depth,
                                       float* PRIVIM_RESTRICT c) {
  float acc = 0.0f;
  for (int64_t k = 0; k < depth; ++k) {
    const float ak = a[k * astride];
    acc += MaskedTerm(ak, b[k * bstride], KeepMask(ak));
  }
  *c = acc;
}

// R output rows of width `cols` as a sequence of register tiles.
template <int R>
PRIVIM_ALWAYS_INLINE void ReduceRows(const float* PRIVIM_RESTRICT a,
                                     int64_t arow, int64_t astride,
                                     const float* PRIVIM_RESTRICT b,
                                     int64_t cols, int64_t depth,
                                     float* PRIVIM_RESTRICT c, int64_t crow) {
  int64_t j = 0;
  for (; j + 32 <= cols; j += 32) {
    ReduceTile<R, 32>(a, arow, astride, b + j, cols, depth, c + j, crow);
  }
  if (j + 16 <= cols) {
    ReduceTile<R, 16>(a, arow, astride, b + j, cols, depth, c + j, crow);
    j += 16;
  }
  if (j + 8 <= cols) {
    ReduceTile<R, 8>(a, arow, astride, b + j, cols, depth, c + j, crow);
    j += 8;
  }
  for (; j < cols; ++j) {
    for (int r = 0; r < R; ++r) {
      ReduceScalar(a + r * arow, astride, b + j, cols, depth,
                   c + r * crow + j);
    }
  }
}

// c = a * b, c[i][j] = sum over k ascending of a[i][k] * b[k][j]. Writes
// every entry of c; its previous contents are never read.
PRIVIM_VEC_CLONES
void MatMulKernel(const float* PRIVIM_RESTRICT adata,
                  const float* PRIVIM_RESTRICT bdata,
                  float* PRIVIM_RESTRICT cdata, int64_t rows, int64_t inner,
                  int64_t bcols) {
  int64_t i = 0;
  if (bcols == 1) {
    // Eight rows at a time: one scalar register chain per output row.
    for (; i + 8 <= rows; i += 8) {
      const float* PRIVIM_RESTRICT ablock = adata + i * inner;
      float acc[8] = {};
      for (int64_t k = 0; k < inner; ++k) {
        const float bk = bdata[k];
        for (int r = 0; r < 8; ++r) {
          const float ark = ablock[r * inner + k];
          acc[r] += MaskedTerm(ark, bk, KeepMask(ark));
        }
      }
      for (int r = 0; r < 8; ++r) cdata[i + r] = acc[r];
    }
  }
  for (; i + 2 <= rows; i += 2) {
    ReduceRows<2>(adata + i * inner, inner, 1, bdata, bcols, inner,
                  cdata + i * bcols, bcols);
  }
  if (i < rows) {
    ReduceRows<1>(adata + i * inner, inner, 1, bdata, bcols, inner,
                  cdata + i * bcols, bcols);
  }
}

// c = a^T * b without materializing a^T: c[j][l] = sum over i ascending of
// a[i][j] * b[i][l] — the same per-element order as multiplying by a
// materialized transpose, so gradients stay bit-identical. Output row j
// reads column j of a (stride acols) against the rows of b.
PRIVIM_VEC_CLONES
void MatMulATBKernel(const float* PRIVIM_RESTRICT adata,
                     const float* PRIVIM_RESTRICT bdata,
                     float* PRIVIM_RESTRICT cdata, int64_t rows, int64_t acols,
                     int64_t bcols) {
  int64_t j = 0;
  if (bcols == 1) {
    // Eight output rows at a time: lanes j..j+7 of each row of a.
    for (; j + 8 <= acols; j += 8) {
      Lanes8 acc = Lanes8{};
      for (int64_t i = 0; i < rows; ++i) {
        Lanes8 av;
        LoadLanes(adata + i * acols + j, &av);
        const Lanes8 term = av * bdata[i];
        const Bits8 keep = reinterpret_cast<Bits8>(av != Lanes8{});
        acc += reinterpret_cast<Lanes8>(reinterpret_cast<Bits8>(term) & keep);
      }
      StoreLanes(acc, cdata + j);
    }
  }
  for (; j + 2 <= acols; j += 2) {
    ReduceRows<2>(adata + j, 1, acols, bdata, bcols, rows, cdata + j * bcols,
                  bcols);
  }
  if (j < acols) {
    ReduceRows<1>(adata + j, 1, acols, bdata, bcols, rows, cdata + j * bcols,
                  bcols);
  }
}

// b (rows x cols) row-major -> bt = b^T (cols x rows) row-major.
void TransposeInto(const float* PRIVIM_RESTRICT bdata,
                   float* PRIVIM_RESTRICT btdata, int64_t rows,
                   int64_t cols) {
  for (int64_t j = 0; j < rows; ++j) {
    for (int64_t k = 0; k < cols; ++k) {
      btdata[k * rows + j] = bdata[j * cols + k];
    }
  }
}

}  // namespace

Tensor MatMulValues(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.rows());
  Tensor c = Tensor::Uninitialized(a.rows(), b.cols());
  MatMulKernel(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols());
  return c;
}

void MatMulValuesInto(const Tensor& a, const Tensor& b, Tensor* c) {
  assert(a.cols() == b.rows());
  assert(c->rows() == a.rows() && c->cols() == b.cols());
  MatMulKernel(a.data(), b.data(), c->data(), a.rows(), a.cols(), b.cols());
}

Tensor MatMulATB(const Tensor& a, const Tensor& b) {
  assert(a.rows() == b.rows());
  Tensor c = Tensor::Uninitialized(a.cols(), b.cols());
  MatMulATBKernel(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols());
  return c;
}

Tensor MatMulABT(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.cols());
  Tensor c = Tensor::Uninitialized(a.rows(), b.rows());
  // Pack b^T into a per-thread scratch block (b is a small weight matrix in
  // every caller; the scratch's capacity persists across calls, so nothing
  // is allocated in steady state and nothing lands on the tape), then run
  // the a * b kernel. c[i][j] still receives its a[i][k]*b[j][k] terms in
  // increasing-k order — exactly the dot-product order — so results are
  // bit-identical to the transpose-then-multiply formulation while the
  // inner loop vectorizes over j instead of running a serial reduction.
  static thread_local std::vector<float> bt_scratch;
  const size_t need = static_cast<size_t>(b.size());
  if (bt_scratch.size() < need) bt_scratch.resize(need);
  TransposeInto(b.data(), bt_scratch.data(), b.rows(), b.cols());
  MatMulKernel(a.data(), bt_scratch.data(), c.data(), a.rows(), a.cols(),
               b.rows());
  return c;
}

}  // namespace privim
