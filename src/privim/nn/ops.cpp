#include "privim/nn/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "privim/nn/activations.h"

namespace privim {
namespace {

using internal::VariableNode;

// Elementwise unary op with pullback dy/dx expressed from (x, y).
template <typename ForwardFn, typename GradFn>
Variable PointwiseOp(const Variable& x, ForwardFn&& forward,
                     GradFn&& grad_from_xy) {
  Tensor out = Tensor::Uninitialized(x.rows(), x.cols());
  const Tensor& xv = x.value();
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = forward(xv.data()[i]);
  }
  return Variable::MakeOp(
      std::move(out), x,
      [grad = std::forward<GradFn>(grad_from_xy)](VariableNode* node) {
        VariableNode* parent = node->parents[0].get();
        if (!parent->requires_grad) return;
        Tensor dx = Tensor::Uninitialized(parent->value.rows(),
                                          parent->value.cols());
        const float* PRIVIM_RESTRICT xs = parent->value.data();
        const float* PRIVIM_RESTRICT ys = node->value.data();
        const float* PRIVIM_RESTRICT dys = node->grad.data();
        float* PRIVIM_RESTRICT dxs = dx.data();
        const int64_t n = dx.size();
        for (int64_t i = 0; i < n; ++i) {
          dxs[i] = dys[i] * grad(xs[i], ys[i]);
        }
        parent->AccumulateGrad(std::move(dx));
      });
}

SparseMatrix BuildCsr(int64_t rows, int64_t cols,
                      std::vector<Triplet> triplets) {
  const auto row_major = [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  // Callers that walk a CSR graph emit triplets already row-major; the
  // linear check dodges the sort on that common path.
  if (!std::is_sorted(triplets.begin(), triplets.end(), row_major)) {
    std::sort(triplets.begin(), triplets.end(), row_major);
  }
  SparseMatrix sp;
  sp.rows = rows;
  sp.cols = cols;
  sp.offsets.assign(rows + 1, 0);
  sp.indices.reserve(triplets.size());
  sp.values.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    float sum = 0.0f;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    sp.indices.push_back(triplets[i].col);
    sp.values.push_back(sum);
    ++sp.offsets[triplets[i].row + 1];
    i = j;
  }
  for (int64_t r = 0; r < rows; ++r) sp.offsets[r + 1] += sp.offsets[r];
  return sp;
}

// The CSR kernels take their buffers as restrict-qualified function
// parameters: GCC only trusts restrict on parameters, not locals, so this
// shape avoids the runtime aliasing checks the vectorized feature-dimension
// loops would otherwise re-run per stored entry.

// y += S * x for dense row-major x (m x d), y (n x d).
PRIVIM_VEC_CLONES
void SpMMKernel(int64_t rows, int64_t d,
                const int64_t* PRIVIM_RESTRICT offsets,
                const int32_t* PRIVIM_RESTRICT indices,
                const float* PRIVIM_RESTRICT values,
                const float* PRIVIM_RESTRICT xdata,
                float* PRIVIM_RESTRICT ydata) {
  for (int64_t r = 0; r < rows; ++r) {
    float* PRIVIM_RESTRICT yrow = ydata + r * d;
    for (int64_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      const float w = values[k];
      const float* PRIVIM_RESTRICT xrow =
          xdata + static_cast<int64_t>(indices[k]) * d;
      for (int64_t j = 0; j < d; ++j) yrow[j] += w * xrow[j];
    }
  }
}


// y += S^T * g without a transposed CSR: scatters each stored entry
// (r, c, w) as y[c] += w * g[r]. The outer loop runs r ascending, so every
// output row receives its contributions in increasing-r order — exactly the
// order a materialized transpose (whose rows are sorted by r) would use, so
// gradients are bit-identical to the old transpose-walking pullback.
PRIVIM_VEC_CLONES
void SpMMTransposeKernel(int64_t rows, int64_t d,
                         const int64_t* PRIVIM_RESTRICT offsets,
                         const int32_t* PRIVIM_RESTRICT indices,
                         const float* PRIVIM_RESTRICT values,
                         const float* PRIVIM_RESTRICT gdata,
                         float* PRIVIM_RESTRICT ydata) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* PRIVIM_RESTRICT grow = gdata + r * d;
    for (int64_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      const float w = values[k];
      float* PRIVIM_RESTRICT yrow =
          ydata + static_cast<int64_t>(indices[k]) * d;
      for (int64_t j = 0; j < d; ++j) yrow[j] += w * grow[j];
    }
  }
}

}  // namespace

void SpMMTransposeValuesInto(const SparseMatrix& sparse, const Tensor& g,
                             Tensor* dx) {
  assert(sparse.rows == g.rows() && sparse.cols == dx->rows() &&
         g.cols() == dx->cols());
  dx->Fill(0.0f);  // the kernel accumulates into its output
  SpMMTransposeKernel(sparse.rows, g.cols(), sparse.offsets.data(),
                      sparse.indices.data(), sparse.values.data(), g.data(),
                      dx->data());
}

void SegmentSoftmaxGradInto(const Tensor& alpha, const Tensor& dalpha,
                            const int32_t* segments, int64_t num_segments,
                            Tensor* dscores) {
  assert(alpha.cols() == 1 && dalpha.SameShape(alpha) &&
         dscores->SameShape(alpha));
  // Reused scratch; capacity persists across calls.
  static thread_local std::vector<double> seg_dot;
  seg_dot.assign(static_cast<size_t>(num_segments), 0.0);
  const int64_t edge_count = alpha.rows();
  for (int64_t e = 0; e < edge_count; ++e) {
    seg_dot[segments[e]] +=
        static_cast<double>(alpha.at(e, 0)) * dalpha.at(e, 0);
  }
  for (int64_t e = 0; e < edge_count; ++e) {
    dscores->at(e, 0) =
        alpha.at(e, 0) *
        (dalpha.at(e, 0) - static_cast<float>(seg_dot[segments[e]]));
  }
}

void SpMMValuesInto(const SparseMatrix& sparse, const Tensor& x, Tensor* y) {
  assert(sparse.cols == x.rows() && sparse.rows == y->rows() &&
         x.cols() == y->cols());
  y->Fill(0.0f);  // the kernel accumulates into its output
  SpMMKernel(sparse.rows, x.cols(), sparse.offsets.data(),
             sparse.indices.data(), sparse.values.data(), x.data(),
             y->data());
}

void SegmentSoftmaxValuesInto(const Tensor& scores, const int32_t* segments,
                              int64_t num_segments, Tensor* out) {
  assert(scores.cols() == 1 && out->rows() == scores.rows() &&
         out->cols() == 1);
  const int64_t num_edges = scores.rows();

  // Reused scratch: per-segment max and exp-sum. Capacity persists across
  // calls so the attention hot loop does not allocate here.
  static thread_local std::vector<float> seg_max;
  static thread_local std::vector<double> seg_sum;
  seg_max.assign(static_cast<size_t>(num_segments),
                 -std::numeric_limits<float>::infinity());
  seg_sum.assign(static_cast<size_t>(num_segments), 0.0);

  for (int64_t e = 0; e < num_edges; ++e) {
    seg_max[segments[e]] = std::max(seg_max[segments[e]], scores.at(e, 0));
  }
  for (int64_t e = 0; e < num_edges; ++e) {
    const float shifted = scores.at(e, 0) - seg_max[segments[e]];
    out->at(e, 0) = std::exp(shifted);
    seg_sum[segments[e]] += out->at(e, 0);
  }
  for (int64_t e = 0; e < num_edges; ++e) {
    const double denom = std::max(seg_sum[segments[e]], 1e-30);
    out->at(e, 0) = static_cast<float>(out->at(e, 0) / denom);
  }
}

Variable MatMul(const Variable& a, const Variable& b) {
  assert(a.cols() == b.rows());
  return Variable::MakeOp(
      MatMulValues(a.value(), b.value()), a, b, [](VariableNode* node) {
        VariableNode* a_node = node->parents[0].get();
        VariableNode* b_node = node->parents[1].get();
        if (a_node->requires_grad) {
          a_node->AccumulateGrad(MatMulABT(node->grad, b_node->value));
        }
        if (b_node->requires_grad) {
          b_node->AccumulateGrad(MatMulATB(a_node->value, node->grad));
        }
      });
}

Variable Add(const Variable& a, const Variable& b) {
  assert(a.value().SameShape(b.value()));
  Tensor out = a.value();
  out.AddInPlace(b.value());
  return Variable::MakeOp(std::move(out), a, b, [](VariableNode* node) {
    for (int p = 0; p < 2; ++p) {
      VariableNode* parent = node->parents[static_cast<size_t>(p)].get();
      if (parent->requires_grad) parent->AccumulateGrad(node->grad);
    }
  });
}

Variable Subtract(const Variable& a, const Variable& b) {
  assert(a.value().SameShape(b.value()));
  Tensor out = a.value();
  const float* bv = b.value().data();
  for (int64_t i = 0; i < out.size(); ++i) out.data()[i] -= bv[i];
  return Variable::MakeOp(std::move(out), a, b, [](VariableNode* node) {
    VariableNode* a_node = node->parents[0].get();
    VariableNode* b_node = node->parents[1].get();
    if (a_node->requires_grad) a_node->AccumulateGrad(node->grad);
    if (b_node->requires_grad) {
      Tensor neg = node->grad;
      neg.ScaleInPlace(-1.0f);
      b_node->AccumulateGrad(std::move(neg));
    }
  });
}

Variable Multiply(const Variable& a, const Variable& b) {
  assert(a.value().SameShape(b.value()));
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  const float* av = a.value().data();
  const float* bv = b.value().data();
  for (int64_t i = 0; i < out.size(); ++i) out.data()[i] = av[i] * bv[i];
  return Variable::MakeOp(std::move(out), a, b, [](VariableNode* node) {
    VariableNode* a_node = node->parents[0].get();
    VariableNode* b_node = node->parents[1].get();
    const float* PRIVIM_RESTRICT dys = node->grad.data();
    if (a_node->requires_grad) {
      Tensor da = Tensor::Uninitialized(a_node->value.rows(),
                                        a_node->value.cols());
      const float* PRIVIM_RESTRICT bv2 = b_node->value.data();
      float* PRIVIM_RESTRICT das = da.data();
      for (int64_t i = 0; i < da.size(); ++i) das[i] = dys[i] * bv2[i];
      a_node->AccumulateGrad(std::move(da));
    }
    if (b_node->requires_grad) {
      Tensor db = Tensor::Uninitialized(b_node->value.rows(),
                                        b_node->value.cols());
      const float* PRIVIM_RESTRICT av2 = a_node->value.data();
      float* PRIVIM_RESTRICT dbs = db.data();
      for (int64_t i = 0; i < db.size(); ++i) dbs[i] = dys[i] * av2[i];
      b_node->AccumulateGrad(std::move(db));
    }
  });
}

Variable AddRowBroadcast(const Variable& x, const Variable& bias) {
  assert(bias.rows() == 1 && bias.cols() == x.cols());
  Tensor out = x.value();
  const float* PRIVIM_RESTRICT bv = bias.value().data();
  for (int64_t i = 0; i < out.rows(); ++i) {
    float* PRIVIM_RESTRICT row = out.data() + i * out.cols();
    for (int64_t j = 0; j < out.cols(); ++j) row[j] += bv[j];
  }
  return Variable::MakeOp(std::move(out), x, bias, [](VariableNode* node) {
    VariableNode* x_node = node->parents[0].get();
    VariableNode* b_node = node->parents[1].get();
    if (x_node->requires_grad) x_node->AccumulateGrad(node->grad);
    if (b_node->requires_grad) {
      Tensor db(1, node->grad.cols());
      for (int64_t i = 0; i < node->grad.rows(); ++i) {
        const float* row = node->grad.data() + i * node->grad.cols();
        for (int64_t j = 0; j < node->grad.cols(); ++j) db.at(0, j) += row[j];
      }
      b_node->AccumulateGrad(std::move(db));
    }
  });
}

Variable MulColBroadcast(const Variable& scale, const Variable& x) {
  assert(scale.cols() == 1 && scale.rows() == x.rows());
  Tensor out = Tensor::Uninitialized(x.rows(), x.cols());
  for (int64_t i = 0; i < x.rows(); ++i) {
    const float s = scale.value().at(i, 0);
    const float* PRIVIM_RESTRICT xrow = x.value().data() + i * x.cols();
    float* PRIVIM_RESTRICT orow = out.data() + i * x.cols();
    for (int64_t j = 0; j < x.cols(); ++j) orow[j] = s * xrow[j];
  }
  return Variable::MakeOp(std::move(out), scale, x, [](VariableNode* node) {
    VariableNode* s_node = node->parents[0].get();
    VariableNode* x_node = node->parents[1].get();
    const Tensor& grad = node->grad;
    const int64_t d = grad.cols();
    if (s_node->requires_grad) {
      Tensor ds = Tensor::Uninitialized(s_node->value.rows(), 1);
      for (int64_t i = 0; i < grad.rows(); ++i) {
        const float* PRIVIM_RESTRICT grow = grad.data() + i * d;
        const float* PRIVIM_RESTRICT xrow = x_node->value.data() + i * d;
        double sum = 0.0;
        for (int64_t j = 0; j < d; ++j) sum += grow[j] * xrow[j];
        ds.at(i, 0) = static_cast<float>(sum);
      }
      s_node->AccumulateGrad(std::move(ds));
    }
    if (x_node->requires_grad) {
      Tensor dx = Tensor::Uninitialized(grad.rows(), d);
      for (int64_t i = 0; i < grad.rows(); ++i) {
        const float s = s_node->value.at(i, 0);
        const float* PRIVIM_RESTRICT grow = grad.data() + i * d;
        float* PRIVIM_RESTRICT drow = dx.data() + i * d;
        for (int64_t j = 0; j < d; ++j) drow[j] = s * grow[j];
      }
      x_node->AccumulateGrad(std::move(dx));
    }
  });
}

Variable Affine(const Variable& x, float alpha, float beta) {
  return PointwiseOp(
      x, [alpha, beta](float v) { return alpha * v + beta; },
      [alpha](float, float) { return alpha; });
}

Variable ScaleByScalar(const Variable& x, const Variable& scalar) {
  assert(scalar.rows() == 1 && scalar.cols() == 1);
  const float s = scalar.value().at(0, 0);
  Tensor out = x.value();
  out.ScaleInPlace(s);
  return Variable::MakeOp(std::move(out), x, scalar, [](VariableNode* node) {
    VariableNode* x_node = node->parents[0].get();
    VariableNode* s_node = node->parents[1].get();
    const float scale = s_node->value.at(0, 0);
    if (x_node->requires_grad) {
      Tensor dx = node->grad;
      dx.ScaleInPlace(scale);
      x_node->AccumulateGrad(std::move(dx));
    }
    if (s_node->requires_grad) {
      double sum = 0.0;
      const float* g = node->grad.data();
      const float* xv = x_node->value.data();
      for (int64_t i = 0; i < node->grad.size(); ++i) sum += g[i] * xv[i];
      s_node->AccumulateGrad(Tensor::Scalar(static_cast<float>(sum)));
    }
  });
}

Variable Relu(const Variable& x) {
  return PointwiseOp(
      x, [](float v) { return nn::ReluValue(v); },
      [](float xv, float) { return xv > 0.0f ? 1.0f : 0.0f; });
}

Variable LeakyRelu(const Variable& x, float negative_slope) {
  return PointwiseOp(
      x,
      [negative_slope](float v) {
        return nn::LeakyReluValue(v, negative_slope);
      },
      [negative_slope](float xv, float) {
        return xv > 0.0f ? 1.0f : negative_slope;
      });
}

Variable Sigmoid(const Variable& x) {
  return PointwiseOp(x, [](float v) { return nn::SigmoidValue(v); },
                     [](float, float yv) { return yv * (1.0f - yv); });
}

Variable Tanh(const Variable& x) {
  return PointwiseOp(x, [](float v) { return nn::TanhValue(v); },
                     [](float, float yv) { return 1.0f - yv * yv; });
}

Variable Exp(const Variable& x) {
  return PointwiseOp(x, [](float v) { return std::exp(v); },
                     [](float, float yv) { return yv; });
}

Variable Log(const Variable& x, float eps) {
  return PointwiseOp(
      x, [eps](float v) { return std::log(std::max(v, eps)); },
      [eps](float xv, float) { return 1.0f / std::max(xv, eps); });
}

Variable OneMinusExpNeg(const Variable& x) {
  return PointwiseOp(
      x, [](float v) { return -std::expm1(-v); },
      [](float, float yv) { return 1.0f - yv; });  // d/dx = exp(-x) = 1 - y
}

Variable Clamp(const Variable& x, float lo, float hi) {
  return PointwiseOp(
      x, [lo, hi](float v) { return std::clamp(v, lo, hi); },
      [lo, hi](float xv, float) {
        return (xv >= lo && xv <= hi) ? 1.0f : 0.0f;
      });
}

Variable Sum(const Variable& x) {
  return Variable::MakeOp(
      Tensor::Scalar(x.value().Sum()), x, [](VariableNode* node) {
        VariableNode* parent = node->parents[0].get();
        if (!parent->requires_grad) return;
        Tensor dx = Tensor::Uninitialized(parent->value.rows(),
                                          parent->value.cols());
        dx.Fill(node->grad.at(0, 0));
        parent->AccumulateGrad(std::move(dx));
      });
}

Variable Mean(const Variable& x) {
  const float inv =
      x.value().size() > 0 ? 1.0f / static_cast<float>(x.value().size()) : 0.0f;
  return Variable::MakeOp(
      Tensor::Scalar(x.value().Sum() * inv), x, [inv](VariableNode* node) {
        VariableNode* parent = node->parents[0].get();
        if (!parent->requires_grad) return;
        Tensor dx = Tensor::Uninitialized(parent->value.rows(),
                                          parent->value.cols());
        dx.Fill(node->grad.at(0, 0) * inv);
        parent->AccumulateGrad(std::move(dx));
      });
}

Variable ConcatCols(const Variable& a, const Variable& b) {
  assert(a.rows() == b.rows());
  const int64_t d1 = a.cols(), d2 = b.cols();
  Tensor out = Tensor::Uninitialized(a.rows(), d1 + d2);
  for (int64_t i = 0; i < a.rows(); ++i) {
    float* row = out.data() + i * (d1 + d2);
    const float* arow = a.value().data() + i * d1;
    const float* brow = b.value().data() + i * d2;
    std::copy(arow, arow + d1, row);
    std::copy(brow, brow + d2, row + d1);
  }
  return Variable::MakeOp(
      std::move(out), a, b, [d1, d2](VariableNode* node) {
        VariableNode* a_node = node->parents[0].get();
        VariableNode* b_node = node->parents[1].get();
        const Tensor& grad = node->grad;
        if (a_node->requires_grad) {
          Tensor da = Tensor::Uninitialized(grad.rows(), d1);
          for (int64_t i = 0; i < grad.rows(); ++i) {
            const float* grow = grad.data() + i * (d1 + d2);
            std::copy(grow, grow + d1, da.data() + i * d1);
          }
          a_node->AccumulateGrad(std::move(da));
        }
        if (b_node->requires_grad) {
          Tensor db = Tensor::Uninitialized(grad.rows(), d2);
          for (int64_t i = 0; i < grad.rows(); ++i) {
            const float* grow = grad.data() + i * (d1 + d2);
            std::copy(grow + d1, grow + d1 + d2, db.data() + i * d2);
          }
          b_node->AccumulateGrad(std::move(db));
        }
      });
}

Variable GatherRows(const Variable& x, std::span<const int32_t> indices) {
  const int64_t d = x.cols();
  Tensor out = Tensor::Uninitialized(static_cast<int64_t>(indices.size()), d);
  for (size_t i = 0; i < indices.size(); ++i) {
    assert(indices[i] >= 0 && indices[i] < x.rows());
    const float* src = x.value().data() + static_cast<int64_t>(indices[i]) * d;
    std::copy(src, src + d, out.data() + static_cast<int64_t>(i) * d);
  }
  return Variable::MakeOp(
      std::move(out), x, [idx = indices.data()](VariableNode* node) {
        VariableNode* parent = node->parents[0].get();
        if (!parent->requires_grad) return;
        const int64_t dim = node->value.cols();
        const int64_t count = node->value.rows();
        Tensor dx(parent->value.rows(), dim);
        for (int64_t i = 0; i < count; ++i) {
          const float* PRIVIM_RESTRICT grow = node->grad.data() + i * dim;
          float* PRIVIM_RESTRICT drow =
              dx.data() + static_cast<int64_t>(idx[i]) * dim;
          for (int64_t j = 0; j < dim; ++j) drow[j] += grow[j];
        }
        parent->AccumulateGrad(std::move(dx));
      });
}

std::shared_ptr<const SparseMatrix> MakeSparseCsr(
    int64_t rows, int64_t cols, std::vector<Triplet> triplets) {
  return std::make_shared<const SparseMatrix>(
      BuildCsr(rows, cols, std::move(triplets)));
}

Variable SpMM(std::shared_ptr<const SparseMatrix> sparse, const Variable& x) {
  assert(sparse->cols == x.rows());
  Tensor out = Tensor::Uninitialized(sparse->rows, x.cols());
  SpMMValuesInto(*sparse, x.value(), &out);
  Variable result = Variable::MakeOp(
      std::move(out), x, [sp = sparse.get()](VariableNode* node) {
        VariableNode* parent = node->parents[0].get();
        if (!parent->requires_grad) return;
        Tensor dx = Tensor::Uninitialized(parent->value.rows(),
                                          parent->value.cols());
        SpMMTransposeValuesInto(*sp, node->grad, &dx);
        parent->AccumulateGrad(std::move(dx));
      });
  // The pullback reads the CSR through a raw pointer (to stay inside
  // std::function's small buffer); the node carries the ownership.
  result.node()->keepalive = std::move(sparse);
  return result;
}

Variable SegmentSoftmax(const Variable& scores,
                        std::span<const int32_t> segments,
                        int64_t num_segments) {
  assert(scores.cols() == 1);
  assert(static_cast<size_t>(scores.rows()) == segments.size());
  const int64_t num_edges = scores.rows();

  Tensor out = Tensor::Uninitialized(num_edges, 1);
  SegmentSoftmaxValuesInto(scores.value(), segments.data(), num_segments,
                           &out);

  return Variable::MakeOp(
      std::move(out), scores,
      [segs = segments.data(), num_segments](VariableNode* node) {
        VariableNode* parent = node->parents[0].get();
        if (!parent->requires_grad) return;
        Tensor ds = Tensor::Uninitialized(node->value.rows(), 1);
        SegmentSoftmaxGradInto(node->value, node->grad, segs, num_segments,
                               &ds);
        parent->AccumulateGrad(std::move(ds));
      });
}

Variable SegmentSum(const Variable& x, std::span<const int32_t> segments,
                    int64_t num_segments) {
  assert(static_cast<size_t>(x.rows()) == segments.size());
  const int64_t d = x.cols();
  // Edges accumulate in increasing-index order; the compiled program's
  // kEdgeAggregate (nn/infer) relies on this order for bit-identity.
  Tensor out = Tensor::Zeros(num_segments, d);
  const float* xdata = x.value().data();
  for (int64_t e = 0; e < x.rows(); ++e) {
    const float* PRIVIM_RESTRICT xrow = xdata + e * d;
    float* PRIVIM_RESTRICT orow =
        out.data() + static_cast<int64_t>(segments[e]) * d;
    for (int64_t j = 0; j < d; ++j) orow[j] += xrow[j];
  }
  return Variable::MakeOp(
      std::move(out), x, [segs = segments.data()](VariableNode* node) {
        VariableNode* parent = node->parents[0].get();
        if (!parent->requires_grad) return;
        const int64_t dim = node->value.cols();
        Tensor dx = Tensor::Uninitialized(parent->value.rows(), dim);
        for (int64_t e = 0; e < dx.rows(); ++e) {
          const float* grow =
              node->grad.data() + static_cast<int64_t>(segs[e]) * dim;
          std::copy(grow, grow + dim, dx.data() + e * dim);
        }
        parent->AccumulateGrad(std::move(dx));
      });
}

}  // namespace privim
