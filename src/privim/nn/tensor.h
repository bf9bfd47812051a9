// Dense row-major float32 matrix — the value type of the autograd engine.
//
// PrivIM's models are small (3 layers x 32 hidden units on <=80-node
// subgraphs), so a straightforward cache-friendly dense kernel plus a CSR
// sparse-dense product (ops.h) is all the linear algebra the paper needs.
// Storage is arena-aware: while an nn::ArenaScope is active on the current
// thread, construction draws buffers from the scope's TensorArena and
// destruction returns them, so a training loop that replays the same tape
// performs zero tensor heap allocations after its first pass (see arena.h).

#ifndef PRIVIM_NN_TENSOR_H_
#define PRIVIM_NN_TENSOR_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "privim/common/rng.h"

// No-aliasing hint for kernel hot loops; the compiler needs it to vectorize
// the feature-dimension inner loops under strict (-ffp-contract=off) FP.
#if defined(__GNUC__) || defined(__clang__)
#define PRIVIM_RESTRICT __restrict__
#else
#define PRIVIM_RESTRICT
#endif

// Runtime-dispatched AVX2 clones for the dense/sparse kernels. The wide
// clone only changes vector width on element-wise loops, and the explicit
// eight-lane code (nn/lanes.h) performs the same lane operations in every
// clone: -ffp-contract=off forbids FMA and sequential reductions are never
// vectorized, so both clones produce bit-identical results and the
// golden/determinism suites hold on any dispatch. Disabled under
// sanitizers (ifunc resolvers run before interceptors are ready) and on
// non-x86 targets.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define PRIVIM_VEC_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define PRIVIM_VEC_CLONES
#endif

namespace privim {

/// 2D row-major float matrix. A column vector is (n x 1), a scalar (1 x 1).
class Tensor {
 public:
  Tensor() = default;
  Tensor(int64_t rows, int64_t cols, float fill = 0.0f);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  static Tensor Zeros(int64_t rows, int64_t cols) {
    return Tensor(rows, cols, 0.0f);
  }
  /// Storage with unspecified contents — the caller must assign every
  /// element before reading any. Skips the zero-fill for kernels that
  /// overwrite their whole output (most pullbacks), which matters at the
  /// 25x32 shapes the training loop runs.
  static Tensor Uninitialized(int64_t rows, int64_t cols);
  static Tensor Ones(int64_t rows, int64_t cols) {
    return Tensor(rows, cols, 1.0f);
  }
  static Tensor Scalar(float value) { return Tensor(1, 1, value); }
  /// Builds from a flat row-major buffer; `values.size()` must be rows*cols.
  static Tensor FromVector(int64_t rows, int64_t cols,
                           std::vector<float> values);
  /// I.i.d. N(0, stddev^2) entries.
  static Tensor Gaussian(int64_t rows, int64_t cols, float stddev, Rng* rng);
  /// Glorot/Xavier-uniform init for a (fan_in x fan_out) weight matrix.
  static Tensor GlorotUniform(int64_t fan_in, int64_t fan_out, Rng* rng);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  float& at(int64_t r, int64_t c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  float at(int64_t r, int64_t c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

  /// this += other (same shape).
  void AddInPlace(const Tensor& other);
  /// this *= scalar.
  void ScaleInPlace(float factor);

  /// Frobenius / l2 norm of all entries.
  float L2Norm() const;

  /// Sum of all entries.
  float Sum() const;

  /// Max |entry|.
  float MaxAbs() const;

 private:
  // Returns the buffer to the active arena (if any) and resets the shape.
  void ReleaseStorage();

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<float> data_;
};

/// Dense matrix product c = a * b.
Tensor MatMulValues(const Tensor& a, const Tensor& b);

/// c = a * b into a caller-owned output (c must already be shaped
/// a.rows x b.cols; previous contents are overwritten). Runs the exact
/// kernel behind MatMulValues — the inference engine (nn/infer/) uses this
/// to reuse preallocated buffers while staying bit-identical to the tape.
void MatMulValuesInto(const Tensor& a, const Tensor& b, Tensor* c);

/// c = a^T * b without materializing a^T: c is (a.cols x b.cols) and
/// c[j][l] = sum_i a[i][j] * b[i][l]. Contributions accumulate in
/// increasing-i order (bit-identical to MatMulValues(transpose(a), b)).
Tensor MatMulATB(const Tensor& a, const Tensor& b);

/// MatMulATB into caller-owned storage: c receives a.cols * b.cols floats,
/// row-major; its previous contents are never read. The compiled reverse
/// pass writes weight gradients straight into its flat gradient this way.
void MatMulATBInto(const Tensor& a, const Tensor& b, float* c);

/// c = a * b^T without materializing b^T on the tape: c is
/// (a.rows x b.rows) and c[i][j] = sum_k a[i][k] * b[j][k], accumulated in
/// increasing-k order (bit-identical to MatMulValues(a, transpose(b))).
Tensor MatMulABT(const Tensor& a, const Tensor& b);

}  // namespace privim

#endif  // PRIVIM_NN_TENSOR_H_
