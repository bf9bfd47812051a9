// Differentiable operations over `Variable`s.
//
// The set is exactly what the paper's five GNNs (Appendix G), the Eq. 5
// influence loss, and the baselines need: dense affine algebra, pointwise
// nonlinearities, CSR sparse-dense products for message passing, and
// gather / segment ops for edge-level attention (GAT/GRAT).
// Every op's pullback is validated by central differences in the tests.
//
// Index-taking ops (GatherRows / SegmentSoftmax / SegmentSum) view their
// indices through std::span and do not copy them: the caller's index storage
// must outlive any Backward() through the op. In practice indices live in a
// GraphContext that outlives the whole training run.

#ifndef PRIVIM_NN_OPS_H_
#define PRIVIM_NN_OPS_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "privim/nn/autograd.h"

namespace privim {

// ---------------------------------------------------------------------------
// Dense algebra
// ---------------------------------------------------------------------------

/// c = a * b (dense matmul). The pullback uses the transpose-free
/// MatMulABT / MatMulATB kernels (tensor.h) — no transposed copies.
Variable MatMul(const Variable& a, const Variable& b);

/// Elementwise a + b (same shape).
Variable Add(const Variable& a, const Variable& b);

/// Elementwise a - b (same shape).
Variable Subtract(const Variable& a, const Variable& b);

/// Elementwise a * b (same shape).
Variable Multiply(const Variable& a, const Variable& b);

/// Adds a (1 x d) bias row to every row of a (n x d) matrix.
Variable AddRowBroadcast(const Variable& x, const Variable& bias);

/// Multiplies every column of x (n x d) by the (n x 1) column `scale`.
Variable MulColBroadcast(const Variable& scale, const Variable& x);

/// Elementwise alpha * x + beta with constant scalars.
Variable Affine(const Variable& x, float alpha, float beta);

/// Multiplies x by a learnable 1x1 scalar variable (used by GIN's
/// (1 + omega) self-term).
Variable ScaleByScalar(const Variable& x, const Variable& scalar);

// ---------------------------------------------------------------------------
// Pointwise nonlinearities
// ---------------------------------------------------------------------------

Variable Relu(const Variable& x);
Variable LeakyRelu(const Variable& x, float negative_slope = 0.2f);
Variable Sigmoid(const Variable& x);
Variable Tanh(const Variable& x);
Variable Exp(const Variable& x);
/// Natural log of max(x, eps) for numerical safety.
Variable Log(const Variable& x, float eps = 1e-12f);

/// phi(x) = 1 - exp(-x): the smooth [0, 1) squash used for diffusion
/// probabilities in Eq. 3/5 (a lower bound on the true IC probability;
/// see core/loss.h PhiKind for the bound analysis).
Variable OneMinusExpNeg(const Variable& x);

/// Clamps to [lo, hi]; gradient is passed through inside the interval and
/// zeroed outside (saturating clamp).
Variable Clamp(const Variable& x, float lo, float hi);

// ---------------------------------------------------------------------------
// Reductions and reshaping
// ---------------------------------------------------------------------------

/// Sum of all entries -> 1x1.
Variable Sum(const Variable& x);

/// Mean of all entries -> 1x1.
Variable Mean(const Variable& x);

/// Horizontal concatenation [a | b] of (n x d1) and (n x d2).
Variable ConcatCols(const Variable& a, const Variable& b);

/// out[i] = x[indices[i]] (row gather); backward scatter-adds. `indices`
/// is viewed, not copied (see lifetime note at the top of this header).
Variable GatherRows(const Variable& x, std::span<const int32_t> indices);

// ---------------------------------------------------------------------------
// Sparse message passing
// ---------------------------------------------------------------------------

/// Immutable CSR matrix whose values are treated as constants (graph
/// structure / influence probabilities are data, not parameters). The SpMM
/// pullback walks this same CSR in transposed (scatter) order, so no
/// transposed copy is ever built.
struct SparseMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int64_t> offsets;   // rows + 1
  std::vector<int32_t> indices;   // column ids
  std::vector<float> values;
};

/// COO triplet for building sparse matrices.
struct Triplet {
  int32_t row = 0;
  int32_t col = 0;
  float value = 0.0f;
};

/// Builds a CSR matrix from triplets (duplicates are summed).
std::shared_ptr<const SparseMatrix> MakeSparseCsr(
    int64_t rows, int64_t cols, std::vector<Triplet> triplets);

/// y = S * x where S is (n x m) sparse and x is (m x d) dense.
Variable SpMM(std::shared_ptr<const SparseMatrix> sparse, const Variable& x);

// ---------------------------------------------------------------------------
// Forward-value kernels (no tape)
// ---------------------------------------------------------------------------
// The tape-free inference engine (nn/infer/) runs the same forward math on
// preallocated buffers. These functions ARE the forward halves of the ops
// above — one implementation, two callers — which makes fused-vs-tape
// bit-identity structural rather than a tolerance claim (see also
// activations.h and MatMulValuesInto in tensor.h).

/// y = S * x into a caller-owned output (y must be shaped sp.rows x x.cols;
/// previous contents are overwritten). Exactly the SpMM forward.
void SpMMValuesInto(const SparseMatrix& sparse, const Tensor& x, Tensor* y);

// The compiled program's reverse pass (nn/infer) shares these pullback
// halves with the tape in the same way.

/// dx = S^T * g into a caller-owned output (dx must be shaped sp.cols x
/// g.cols; previous contents are overwritten). Exactly the SpMM pullback.
void SpMMTransposeValuesInto(const SparseMatrix& sparse, const Tensor& g,
                             Tensor* dx);

/// A zeroed table of `size` doubles whose storage is a float buffer from
/// the active TensorArena, two floats an entry: the per-node double sums
/// of the attention softmax (the tape's SegmentSoftmax and the compiled
/// GRAT's), which return to the arena (or the heap) when the table dies,
/// where a thread_local table would stay allocated for the thread's life.
/// Entries are read and written through memcpy, which compiles to plain
/// loads and stores.
class DoubleTable {
 public:
  explicit DoubleTable(int64_t size) : storage_(Tensor::Zeros(size, 2)) {}

  double operator[](int64_t i) const {
    double value;
    std::memcpy(&value, storage_.data() + 2 * i, sizeof(value));
    return value;
  }
  void Add(int64_t i, double x) {
    float* slot = storage_.data() + 2 * i;
    double value;
    std::memcpy(&value, slot, sizeof(value));
    value += x;
    std::memcpy(slot, &value, sizeof(value));
  }

 private:
  Tensor storage_;
};

// ---------------------------------------------------------------------------
// Segment ops (edge-level attention)
// ---------------------------------------------------------------------------

/// Softmax of the (E x 1) scores within each segment: out_e =
/// exp(s_e) / sum_{e' : seg[e'] == seg[e]} exp(s_e'). Stable (max-shifted).
Variable SegmentSoftmax(const Variable& scores,
                        std::span<const int32_t> segments,
                        int64_t num_segments);

/// out[s] = sum over edges e with segments[e] == s of x[e] (x is E x d,
/// out is num_segments x d).
Variable SegmentSum(const Variable& x, std::span<const int32_t> segments,
                    int64_t num_segments);

}  // namespace privim

#endif  // PRIVIM_NN_OPS_H_
