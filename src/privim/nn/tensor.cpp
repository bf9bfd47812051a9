#include "privim/nn/tensor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "privim/nn/arena.h"
#include "privim/nn/lanes.h"

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

namespace {

// dst += src, element by element: both clones perform the same adds.
PRIVIM_VEC_CLONES
void AddKernel(float* PRIVIM_RESTRICT dst, const float* PRIVIM_RESTRICT src,
               size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

}  // namespace

void Tensor::AddInPlace(const Tensor& other) {
  assert(SameShape(other));
  AddKernel(data_.data(), other.data_.data(), data_.size());
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

using nn::Bits8;
using nn::Broadcast;
using nn::Lanes8;
using nn::LoadBlock;
using nn::LoadFirstBlock;
using nn::LoadFirstLanes;
using nn::LoadLanes;
using nn::StoreFirstLanes;
using nn::StoreLanes;
using nn::Transpose8x8;

// The kernels below take their buffers as restrict-qualified function
// parameters: GCC only trusts restrict on parameters, not on locals, so
// hoisting the loops here removes the runtime "loop versioned for aliasing"
// overlap checks the inner loops would otherwise re-run on every entry.

// Register-resident matmul kernels. Outputs are reduced in tiles whose
// accumulators stay in registers for the whole reduction and are stored
// once: two output rows at a time (sharing each load of b), in column
// panels of 32, 16 and 8 picked greedily from the output width, then one
// column at a time. A one-column output is reduced eight rows at a time,
// one row per lane (ReduceColumnBlock). Tiling changes neither the terms
// nor their per-element order.
//
// Zero entries of `a` (ReLU activations are sparse) must contribute
// nothing, even where the opposite `b` entry is inf or NaN (0 * inf would
// be NaN). Where every entry of b is finite that holds by itself: a zero of
// `a` then makes a +-0 term, and adding +-0 leaves every accumulator
// unchanged, because accumulators start at +0 and a round-to-nearest sum
// that starts at +0 never becomes -0. So each kernel first checks b in one
// pass (AllFinite) and runs its unmasked body; only a b holding inf or NaN
// runs the masked body, where a branch-free mask adds +0 in place of every
// zero of `a`. Both give the bytes of skipping the zeros. A NaN in `a`
// still propagates.

// True when no entry of p[0, n) is inf or NaN (exponent bits all ones).
PRIVIM_ALWAYS_INLINE bool AllFinite(const float* PRIVIM_RESTRICT p,
                                    int64_t n) {
  constexpr uint32_t kExponent = 0x7f800000u;
  Bits8 special = Bits8{};
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Bits8 bits;
    std::memcpy(&bits, p + i, sizeof(bits));
    special |= reinterpret_cast<Bits8>((bits & kExponent) == kExponent);
  }
  uint32_t any = 0;
  for (int l = 0; l < 8; ++l) any |= special[l];
  for (; i < n; ++i) {
    any |= static_cast<uint32_t>(
        (std::bit_cast<uint32_t>(p[i]) & kExponent) == kExponent);
  }
  return any == 0;
}

// *term = av * bv, where masked (kMasked) lanes whose `av` is +-0 are +0.
// `term` may alias `av`.
template <bool kMasked>
PRIVIM_ALWAYS_INLINE void Term(const Lanes8& av, const Lanes8& bv,
                               Lanes8* term) {
  const Lanes8 product = av * bv;
  if constexpr (kMasked) {
    const Bits8 keep = reinterpret_cast<Bits8>(av != Lanes8{});
    *term = reinterpret_cast<Lanes8>(reinterpret_cast<Bits8>(product) & keep);
  } else {
    *term = product;
  }
}

template <bool kMasked>
PRIVIM_ALWAYS_INLINE void AddTerm(const Lanes8& av, const Lanes8& bv,
                                  Lanes8* acc) {
  Lanes8 term;
  Term<kMasked>(av, bv, &term);
  *acc += term;
}

// The scalar form: a * b, or +0 where kMasked and `a` is +-0.
template <bool kMasked>
PRIVIM_ALWAYS_INLINE float ScalarTerm(float a, float b) {
  if constexpr (kMasked) {
    const uint32_t keep = 0u - static_cast<uint32_t>(a != 0.0f);
    return std::bit_cast<float>(std::bit_cast<uint32_t>(a * b) & keep);
  } else {
    return a * b;
  }
}

// A tile of R output rows x W columns, W a multiple of 8: row r's
// c[r * crow + 0..W) = sum over k ascending of a[r * arow + k * astride] *
// b[k * bstride + 0..W), with the R * W accumulators held in R * W / 8
// vector registers. The R rows share every load of b.
template <bool kMasked, int R, int W>
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
    Lanes8 av[R];
    for (int r = 0; r < R; ++r) Broadcast(a + r * arow + k * astride, &av[r]);
    const float* PRIVIM_RESTRICT brow = b + k * bstride;
    for (int v = 0; v < kVecs; ++v) {
      Lanes8 bv;
      LoadLanes(brow + 8 * v, &bv);
      for (int r = 0; r < R; ++r) AddTerm<kMasked>(av[r], bv, &acc[r][v]);
    }
  }
  // Unrolled, so each accumulator is stored from its register rather than
  // copied out through the stack.
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) StoreLanes(acc[r][v], c + r * crow + 8 * v);
  }
}

// One output column of one row (narrow tails).
template <bool kMasked>
PRIVIM_ALWAYS_INLINE void ReduceScalar(const float* PRIVIM_RESTRICT a,
                                       int64_t astride,
                                       const float* PRIVIM_RESTRICT b,
                                       int64_t bstride, int64_t depth,
                                       float* PRIVIM_RESTRICT c) {
  float acc = 0.0f;
  for (int64_t k = 0; k < depth; ++k) {
    acc += ScalarTerm<kMasked>(a[k * astride], b[k * bstride]);
  }
  *c = acc;
}

// R output rows of width `cols` as a sequence of register tiles.
template <bool kMasked, int R>
PRIVIM_ALWAYS_INLINE void ReduceRows(const float* PRIVIM_RESTRICT a,
                                     int64_t arow, int64_t astride,
                                     const float* PRIVIM_RESTRICT b,
                                     int64_t cols, int64_t depth,
                                     float* PRIVIM_RESTRICT c, int64_t crow) {
  int64_t j = 0;
  for (; j + 32 <= cols; j += 32) {
    ReduceTile<kMasked, R, 32>(a, arow, astride, b + j, cols, depth, c + j,
                               crow);
  }
  if (j + 16 <= cols) {
    ReduceTile<kMasked, R, 16>(a, arow, astride, b + j, cols, depth, c + j,
                               crow);
    j += 16;
  }
  if (j + 8 <= cols) {
    ReduceTile<kMasked, R, 8>(a, arow, astride, b + j, cols, depth, c + j,
                              crow);
    j += 8;
  }
  for (; j < cols; ++j) {
    for (int r = 0; r < R; ++r) {
      ReduceScalar<kMasked>(a + r * arow, astride, b + j, cols, depth,
                            c + r * crow + j);
    }
  }
}

// Rows [0, count) of a one-column product, count <= 8, one row per lane:
// c[r] = sum over k ascending of a[r * inner + k] * b[k]. For each eight
// columns, the rows' terms are formed against b's eight entries (lane k),
// transposed in registers so that vector kk holds column k + kk's term of
// every row, and added in kk order: lane r adds row r's terms in the
// scalar chain's order. Lanes past `count` repeat the last row and are not
// stored; a depth tail is loaded zero-padded and only its `inner - k`
// columns are added.
template <bool kMasked>
PRIVIM_ALWAYS_INLINE void ReduceColumnBlock(const float* PRIVIM_RESTRICT a,
                                            int64_t inner, int64_t count,
                                            const float* PRIVIM_RESTRICT b,
                                            float* PRIVIM_RESTRICT c) {
  const float* row[8];
  for (int r = 0; r < 8; ++r) row[r] = a + (r < count ? r : count - 1) * inner;
  Lanes8 acc = Lanes8{};
  int64_t k = 0;
  for (; k + 8 <= inner; k += 8) {
    Lanes8 bv, terms[8];
    LoadLanes(b + k, &bv);
    LoadBlock(row, k, terms);
    for (int r = 0; r < 8; ++r) Term<kMasked>(terms[r], bv, &terms[r]);
    Transpose8x8(terms);
    for (int kk = 0; kk < 8; ++kk) acc += terms[kk];
  }
  if (k < inner) {
    Lanes8 bv, terms[8];
    LoadFirstLanes(b + k, inner - k, &bv);
    LoadFirstBlock(row, k, inner - k, terms);
    for (int r = 0; r < 8; ++r) Term<kMasked>(terms[r], bv, &terms[r]);
    Transpose8x8(terms);
    for (int64_t kk = 0; kk < inner - k; ++kk) acc += terms[kk];
  }
  if (count == 8) {
    StoreLanes(acc, c);
  } else {
    StoreFirstLanes(acc, count, c);
  }
}

template <bool kMasked>
PRIVIM_ALWAYS_INLINE void MatMulBody(const float* PRIVIM_RESTRICT adata,
                                     const float* PRIVIM_RESTRICT bdata,
                                     float* PRIVIM_RESTRICT cdata,
                                     int64_t rows, int64_t inner,
                                     int64_t bcols) {
  if (bcols == 1) {
    for (int64_t i = 0; i < rows; i += 8) {
      ReduceColumnBlock<kMasked>(adata + i * inner, inner,
                                 std::min<int64_t>(8, rows - i), bdata,
                                 cdata + i);
    }
    return;
  }
  int64_t i = 0;
  for (; i + 2 <= rows; i += 2) {
    ReduceRows<kMasked, 2>(adata + i * inner, inner, 1, bdata, bcols, inner,
                           cdata + i * bcols, bcols);
  }
  if (i < rows) {
    ReduceRows<kMasked, 1>(adata + i * inner, inner, 1, bdata, bcols, inner,
                           cdata + i * bcols, bcols);
  }
}

// c = a * b, c[i][j] = sum over k ascending of a[i][k] * b[k][j]. Writes
// every entry of c; its previous contents are never read.
PRIVIM_VEC_CLONES
void MatMulKernel(const float* PRIVIM_RESTRICT adata,
                  const float* PRIVIM_RESTRICT bdata,
                  float* PRIVIM_RESTRICT cdata, int64_t rows, int64_t inner,
                  int64_t bcols) {
  if (AllFinite(bdata, inner * bcols)) {
    MatMulBody<false>(adata, bdata, cdata, rows, inner, bcols);
  } else {
    MatMulBody<true>(adata, bdata, cdata, rows, inner, bcols);
  }
}

template <bool kMasked>
PRIVIM_ALWAYS_INLINE void MatMulATBBody(const float* PRIVIM_RESTRICT adata,
                                        const float* PRIVIM_RESTRICT bdata,
                                        float* PRIVIM_RESTRICT cdata,
                                        int64_t rows, int64_t acols,
                                        int64_t bcols) {
  if (!kMasked && bcols == 1) {
    // c^T = b^T * a, one row wide: the a * b tiles, broadcasting b[i]
    // against rows of a, so each tile advances up to four 8-lane chains at
    // once. Each lane still adds a[i][j] * b[i] over i ascending (the
    // product commutes exactly), and with b finite nothing is masked.
    ReduceRows<false, 1>(bdata, 0, 1, adata, acols, rows, cdata, 0);
    return;
  }
  int64_t j = 0;
  for (; j + 2 <= acols; j += 2) {
    ReduceRows<kMasked, 2>(adata + j, 1, acols, bdata, bcols, rows,
                           cdata + j * bcols, bcols);
  }
  if (j < acols) {
    ReduceRows<kMasked, 1>(adata + j, 1, acols, bdata, bcols, rows,
                           cdata + j * bcols, bcols);
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
  if (AllFinite(bdata, rows * bcols)) {
    MatMulATBBody<false>(adata, bdata, cdata, rows, acols, bcols);
  } else {
    MatMulATBBody<true>(adata, bdata, cdata, rows, acols, bcols);
  }
}

// b (rows x cols) row-major -> bt = b^T (cols x rows) row-major, in 8 x 8
// blocks transposed in registers. A ragged block loads its rows
// zero-padded (rows past the last repeat it) and stores only its valid
// part.
PRIVIM_VEC_CLONES
void TransposeInto(const float* PRIVIM_RESTRICT bdata,
                   float* PRIVIM_RESTRICT btdata, int64_t rows,
                   int64_t cols) {
  for (int64_t j = 0; j < rows; j += 8) {
    const int64_t nrows = std::min<int64_t>(8, rows - j);
    for (int64_t k = 0; k < cols; k += 8) {
      const int64_t ncols = std::min<int64_t>(8, cols - k);
      const float* src[8];
      for (int r = 0; r < 8; ++r) {
        src[r] = bdata + (j + (r < nrows ? r : nrows - 1)) * cols;
      }
      Lanes8 blk[8];
      if (ncols == 8) {
        LoadBlock(src, k, blk);
      } else {
        LoadFirstBlock(src, k, ncols, blk);
      }
      Transpose8x8(blk);
      for (int64_t kk = 0; kk < ncols; ++kk) {
        float* dst = btdata + (k + kk) * rows + j;
        if (nrows == 8) {
          StoreLanes(blk[kk], dst);
        } else {
          StoreFirstLanes(blk[kk], nrows, dst);
        }
      }
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
  Tensor c = Tensor::Uninitialized(a.cols(), b.cols());
  MatMulATBInto(a, b, c.data());
  return c;
}

void MatMulATBInto(const Tensor& a, const Tensor& b, float* c) {
  assert(a.rows() == b.rows());
  MatMulATBKernel(a.data(), b.data(), c, a.rows(), a.cols(), b.cols());
}

Tensor MatMulABT(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.cols());
  Tensor c = Tensor::Uninitialized(a.rows(), b.rows());
  // Run the a * b kernel on b^T: c[i][j] still receives its a[i][k]*b[j][k]
  // terms in increasing-k order — exactly the dot-product order — so
  // results are bit-identical to the transpose-then-multiply formulation
  // while the inner loop vectorizes over j instead of running a serial
  // reduction. A one-row or one-column b is its own transpose in memory;
  // any other is packed into a buffer from the active arena (b is a small
  // weight matrix in every caller, so a warm arena allocates nothing).
  if (b.rows() == 1 || b.cols() == 1) {
    MatMulKernel(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.rows());
    return c;
  }
  Tensor bt = Tensor::Uninitialized(b.cols(), b.rows());
  TransposeInto(b.data(), bt.data(), b.rows(), b.cols());
  MatMulKernel(a.data(), bt.data(), c.data(), a.rows(), a.cols(), b.rows());
  return c;
}

}  // namespace privim
