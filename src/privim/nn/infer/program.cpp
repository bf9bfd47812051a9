#include "privim/nn/infer/program.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>

#include "privim/nn/activations.h"
#include "privim/nn/lanes.h"
#include "privim/nn/ops.h"

namespace privim {
namespace infer {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kSpMM:
      return "spmm";
    case OpCode::kDense:
      return "dense";
    case OpCode::kConcat:
      return "concat";
    case OpCode::kGinMix:
      return "gin_mix";
    case OpCode::kAttnSoftmax:
      return "attn_softmax";
    case OpCode::kEdgeAggregate:
      return "edge_aggregate";
    case OpCode::kBiasAct:
      return "bias_act";
  }
  return "?";
}

namespace {

const SparseMatrix* AdjFor(const GraphContext& ctx, AdjKind kind) {
  switch (kind) {
    case AdjKind::kGcn:
      return ctx.gcn_adj.get();
    case AdjKind::kMeanIn:
      return ctx.mean_in_adj.get();
    case AdjKind::kSumIn:
      return ctx.sum_in_adj.get();
  }
  return nullptr;
}

// act(x + b) over every row, for one activation. The activation is a
// template argument so the row loops stay branch-free and vectorize (a
// per-element switch compiles to a mispredicted branch per ReLU sign).
template <typename Act>
PRIVIM_ALWAYS_INLINE void BiasActRows(const float* PRIVIM_RESTRICT bias,
                                      int64_t rows, int64_t cols,
                                      float* PRIVIM_RESTRICT data, Act act) {
  for (int64_t i = 0; i < rows; ++i) {
    float* PRIVIM_RESTRICT row = data + i * cols;
    if (bias != nullptr) {
      for (int64_t j = 0; j < cols; ++j) row[j] = act(row[j] + bias[j]);
    } else {
      for (int64_t j = 0; j < cols; ++j) row[j] = act(row[j]);
    }
  }
}

// The fused bias+activation sweep. Applying act(x + b) in one pass performs
// the same two float operations, in the same order, as the tape's separate
// AddRowBroadcast and activation ops; -ffp-contract=off forbids the
// compiler from contracting them, so the result is bit-identical. Each
// element is independent, so the wide clone changes only how many run at
// once.
PRIVIM_VEC_CLONES
void BiasActSweep(const float* bias, Activation act, int64_t rows,
                  int64_t cols, float* data) {
  switch (act) {
    case Activation::kNone:
      BiasActRows(bias, rows, cols, data, [](float v) { return v; });
      break;
    case Activation::kRelu:
      BiasActRows(bias, rows, cols, data,
                  [](float v) { return nn::ReluValue(v); });
      break;
    case Activation::kSigmoid:
      BiasActRows(bias, rows, cols, data,
                  [](float v) { return nn::SigmoidValue(v); });
      break;
  }
}

// LeakyReluValue(x, slope), x > 0 ? x : slope * x, with the select built
// from bits: as a conditional the compiler branches on every score's sign.
PRIVIM_ALWAYS_INLINE float LeakyReluSelect(float x, float slope) {
  const uint32_t keep = 0u - static_cast<uint32_t>(x > 0.0f);
  return std::bit_cast<float>((std::bit_cast<uint32_t>(x) & keep) |
                              (std::bit_cast<uint32_t>(slope * x) & ~keep));
}

// GAT's attention weights (Eq. 35): the scores lrelu(s_src[u] + s_dst[v])
// softmaxed over each destination's edges, in place. A destination's edges
// are its in-row and then its self-loop, which is the order in which the
// tape's SegmentSoftmax visits that segment, so each max, double exp-sum
// and division is the tape's, in the tape's order, with no per-node table.
PRIVIM_VEC_CLONES
void AttnSoftmaxByDestination(const AttentionEdges& edges,
                              const float* PRIVIM_RESTRICT ssrc,
                              const float* PRIVIM_RESTRICT sdst, float slope,
                              float* PRIVIM_RESTRICT out) {
  const int64_t n = edges.num_nodes;
  const int64_t* PRIVIM_RESTRICT offsets = edges.offsets;
  const int32_t* PRIVIM_RESTRICT sources = edges.sources;
  float* PRIVIM_RESTRICT self = out + offsets[n];
  for (int64_t v = 0; v < n; ++v) {
    const int64_t begin = offsets[v];
    const int64_t end = offsets[v + 1];
    const float sv = sdst[v];
    float max = -std::numeric_limits<float>::infinity();
    for (int64_t k = begin; k < end; ++k) {
      out[k] = LeakyReluSelect(ssrc[sources[k]] + sv, slope);
      max = std::max(max, out[k]);
    }
    self[v] = LeakyReluSelect(ssrc[v] + sv, slope);
    max = std::max(max, self[v]);
    double sum = 0.0;
    for (int64_t k = begin; k < end; ++k) {
      out[k] = std::exp(out[k] - max);
      sum += out[k];
    }
    self[v] = std::exp(self[v] - max);
    sum += self[v];
    const double denom = std::max(sum, 1e-30);
    for (int64_t k = begin; k < end; ++k) {
      out[k] = static_cast<float>(out[k] / denom);
    }
    self[v] = static_cast<float>(self[v] / denom);
  }
}

// GRAT's attention weights (Eq. 39): the scores softmaxed over each
// source's edges, in place — the tape's SegmentSoftmax passes (max, exp
// and double sum, division) over per-source tables, edges ascending. An
// arc's segment is its in-CSR entry and a self-loop's is its node, so only
// the scores read a destination.
PRIVIM_VEC_CLONES
void AttnSoftmaxBySource(const AttentionEdges& edges,
                         const float* PRIVIM_RESTRICT ssrc,
                         const float* PRIVIM_RESTRICT sdst, float slope,
                         float* PRIVIM_RESTRICT seg_max, DoubleTable* seg_sum,
                         float* PRIVIM_RESTRICT out) {
  const int64_t n = edges.num_nodes;
  const int64_t* PRIVIM_RESTRICT offsets = edges.offsets;
  const int32_t* PRIVIM_RESTRICT sources = edges.sources;
  const int64_t arcs = offsets[n];
  float* PRIVIM_RESTRICT self = out + arcs;
  std::fill(seg_max, seg_max + n, -std::numeric_limits<float>::infinity());
  for (int64_t v = 0; v < n; ++v) {
    const float sv = sdst[v];
    for (int64_t k = offsets[v]; k < offsets[v + 1]; ++k) {
      out[k] = LeakyReluSelect(ssrc[sources[k]] + sv, slope);
      seg_max[sources[k]] = std::max(seg_max[sources[k]], out[k]);
    }
  }
  for (int64_t v = 0; v < n; ++v) {
    self[v] = LeakyReluSelect(ssrc[v] + sdst[v], slope);
    seg_max[v] = std::max(seg_max[v], self[v]);
  }
  for (int64_t k = 0; k < arcs; ++k) {
    out[k] = std::exp(out[k] - seg_max[sources[k]]);
    seg_sum->Add(sources[k], out[k]);
  }
  for (int64_t v = 0; v < n; ++v) {
    self[v] = std::exp(self[v] - seg_max[v]);
    seg_sum->Add(v, self[v]);
  }
  for (int64_t k = 0; k < arcs; ++k) {
    const double denom = std::max((*seg_sum)[sources[k]], 1e-30);
    out[k] = static_cast<float>(out[k] / denom);
  }
  for (int64_t v = 0; v < n; ++v) {
    const double denom = std::max((*seg_sum)[v], 1e-30);
    self[v] = static_cast<float>(self[v] / denom);
  }
}

// The softmax pullback, in place: g enters as the weights' gradient and
// leaves as the scores' — g[e] = alpha[e] * (g[e] - sum over e's segment
// of alpha * g), the sum in double over the segment's edges in edge
// order. GAT's segments are its destinations, summed in registers; GRAT's
// are its sources, summed in a table.
PRIVIM_VEC_CLONES
void AttnSoftmaxGradByDestination(const AttentionEdges& edges,
                                  const float* PRIVIM_RESTRICT alpha,
                                  float* PRIVIM_RESTRICT g) {
  const int64_t n = edges.num_nodes;
  const int64_t* PRIVIM_RESTRICT offsets = edges.offsets;
  const int64_t arcs = offsets[n];
  for (int64_t v = 0; v < n; ++v) {
    const int64_t begin = offsets[v];
    const int64_t end = offsets[v + 1];
    double dot = 0.0;
    for (int64_t k = begin; k < end; ++k) {
      dot += static_cast<double>(alpha[k]) * g[k];
    }
    dot += static_cast<double>(alpha[arcs + v]) * g[arcs + v];
    const float segment = static_cast<float>(dot);
    for (int64_t k = begin; k < end; ++k) g[k] = alpha[k] * (g[k] - segment);
    g[arcs + v] = alpha[arcs + v] * (g[arcs + v] - segment);
  }
}

PRIVIM_VEC_CLONES
void AttnSoftmaxGradBySource(const AttentionEdges& edges,
                             const float* PRIVIM_RESTRICT alpha,
                             DoubleTable* seg_dot, float* PRIVIM_RESTRICT g) {
  const int64_t n = edges.num_nodes;
  const int64_t arcs = edges.num_arcs();
  const int32_t* PRIVIM_RESTRICT sources = edges.sources;
  for (int64_t k = 0; k < arcs; ++k) {
    seg_dot->Add(sources[k], static_cast<double>(alpha[k]) * g[k]);
  }
  for (int64_t v = 0; v < n; ++v) {
    seg_dot->Add(v, static_cast<double>(alpha[arcs + v]) * g[arcs + v]);
  }
  for (int64_t k = 0; k < arcs; ++k) {
    g[k] = alpha[k] * (g[k] - static_cast<float>((*seg_dot)[sources[k]]));
  }
  for (int64_t v = 0; v < n; ++v) {
    g[arcs + v] = alpha[arcs + v] *
                  (g[arcs + v] - static_cast<float>((*seg_dot)[v]));
  }
}

// LeakyReLU's derivative at x, x > 0 ? 1 : slope, selected from bits.
PRIVIM_ALWAYS_INLINE float LeakyReluSlope(float x, float slope) {
  const uint32_t keep = 0u - static_cast<uint32_t>(x > 0.0f);
  return std::bit_cast<float>((std::bit_cast<uint32_t>(1.0f) & keep) |
                              (std::bit_cast<uint32_t>(slope) & ~keep));
}

// The score pullback: LeakyReLU's derivative, from the pre-activation
// s_src[u] + s_dst[v] recomputed with the forward's float add, times the
// scores' gradient dscore, handed on as 0 + d (the tape's Add) and
// scatter-added onto both projections, edges ascending (the tape's two
// GatherRows pullbacks onto zeros).
PRIVIM_VEC_CLONES
void AttnScoreGrad(const AttentionEdges& edges,
                   const float* PRIVIM_RESTRICT dscore,
                   const float* PRIVIM_RESTRICT ssrc,
                   const float* PRIVIM_RESTRICT sdst, float slope,
                   float* PRIVIM_RESTRICT dsrc, float* PRIVIM_RESTRICT ddst) {
  const int64_t n = edges.num_nodes;
  const int64_t* PRIVIM_RESTRICT offsets = edges.offsets;
  const int32_t* PRIVIM_RESTRICT sources = edges.sources;
  for (int64_t v = 0; v < n; ++v) {
    const float sv = sdst[v];
    for (int64_t k = offsets[v]; k < offsets[v + 1]; ++k) {
      const float d =
          0.0f + dscore[k] * LeakyReluSlope(ssrc[sources[k]] + sv, slope);
      dsrc[sources[k]] += d;
      ddst[v] += d;
    }
  }
  const float* PRIVIM_RESTRICT self = dscore + offsets[n];
  for (int64_t v = 0; v < n; ++v) {
    const float d = 0.0f + self[v] * LeakyReluSlope(ssrc[v] + sdst[v], slope);
    dsrc[v] += d;
    ddst[v] += d;
  }
}

// acc[q] += alpha * trow[8q .. 8q + 7], q < kVecs: one edge's scaled
// source row, added to a destination's row block in registers.
template <int kVecs>
PRIVIM_ALWAYS_INLINE void AddScaledRow(const float* alpha, const float* trow,
                                       nn::Lanes8* acc) {
  nn::Lanes8 s;
  nn::Broadcast(alpha, &s);
#pragma GCC unroll 4
  for (int q = 0; q < kVecs; ++q) {
    nn::Lanes8 x;
    nn::LoadLanes(trow + 8 * q, &x);
    acc[q] += s * x;
  }
}

// Columns [j, j + 8 * kVecs) of every destination's aggregate. The block
// starts at +0 (the tape's zeroed SegmentSum row), takes each edge's
// scaled source row — the destination's in-row, then its self-loop — and
// is stored once.
template <int kVecs>
PRIVIM_ALWAYS_INLINE void AggregateColumns(const AttentionEdges& edges,
                                           int64_t d, int64_t j,
                                           const float* alpha, const float* t,
                                           float* out) {
  const int64_t n = edges.num_nodes;
  const int64_t arcs = edges.num_arcs();
  for (int64_t v = 0; v < n; ++v) {
    nn::Lanes8 acc[kVecs];
#pragma GCC unroll 4
    for (int q = 0; q < kVecs; ++q) acc[q] = nn::Lanes8{};
    for (int64_t k = edges.offsets[v]; k < edges.offsets[v + 1]; ++k) {
      AddScaledRow<kVecs>(alpha + k,
                          t + static_cast<int64_t>(edges.sources[k]) * d + j,
                          acc);
    }
    AddScaledRow<kVecs>(alpha + arcs + v, t + v * d + j, acc);
#pragma GCC unroll 4
    for (int q = 0; q < kVecs; ++q) {
      nn::StoreLanes(acc[q], out + v * d + j + 8 * q);
    }
  }
}

// AddScaledRow for the first `count` < 8 columns, loaded zero-padded.
PRIVIM_ALWAYS_INLINE void AddScaledTail(const float* alpha, const float* trow,
                                        int64_t count, nn::Lanes8* acc) {
  nn::Lanes8 s, x;
  nn::Broadcast(alpha, &s);
  nn::LoadFirstLanes(trow, count, &x);
  *acc += s * x;
}

// AggregateColumns for the last `count` < 8 columns; only the valid lanes
// are stored.
PRIVIM_ALWAYS_INLINE void AggregateTailColumns(const AttentionEdges& edges,
                                               int64_t d, int64_t j,
                                               int64_t count,
                                               const float* alpha,
                                               const float* t, float* out) {
  const int64_t n = edges.num_nodes;
  const int64_t arcs = edges.num_arcs();
  for (int64_t v = 0; v < n; ++v) {
    nn::Lanes8 acc = nn::Lanes8{};
    for (int64_t k = edges.offsets[v]; k < edges.offsets[v + 1]; ++k) {
      AddScaledTail(alpha + k,
                    t + static_cast<int64_t>(edges.sources[k]) * d + j, count,
                    &acc);
    }
    AddScaledTail(alpha + arcs + v, t + v * d + j, count, &acc);
    nn::StoreFirstLanes(acc, count, out + v * d + j);
  }
}

// The attention aggregation out[v] = sum over v's edges u -> v of alpha[e]
// * t[u]. The tape rounds each scaled message to float (MulColBroadcast of
// the gathered row) and then adds the messages per destination in edge
// order onto a zeroed row (SegmentSum); each lane here performs that
// multiply and that add, in that order, and -ffp-contract=off keeps them
// two roundings, so the sums are bit-identical without the (edges x d)
// message buffer. The destination's row stays in registers, 32 columns at
// a time, across its edges.
PRIVIM_VEC_CLONES
void EdgeAggregateKernel(const AttentionEdges& edges, int64_t d,
                         const float* alpha, const float* t, float* out) {
  int64_t j = 0;
  for (; j + 32 <= d; j += 32) AggregateColumns<4>(edges, d, j, alpha, t, out);
  switch ((d - j) / 8) {
    case 3:
      AggregateColumns<3>(edges, d, j, alpha, t, out);
      break;
    case 2:
      AggregateColumns<2>(edges, d, j, alpha, t, out);
      break;
    case 1:
      AggregateColumns<1>(edges, d, j, alpha, t, out);
      break;
    default:
      break;
  }
  j += (d - j) / 8 * 8;
  if (j < d) AggregateTailColumns(edges, d, j, d - j, alpha, t, out);
}

// Adds the widened products of columns j..j+count-1 to eight edges' dots:
// p[jj] holds column j + jj's float products, one edge per lane, and each
// lane's double sum (lo: edges 0-3, hi: 4-7) takes them in j order.
PRIVIM_ALWAYS_INLINE void AddWidenedProducts(const nn::Lanes8* p,
                                             int64_t count, nn::Doubles4* lo,
                                             nn::Doubles4* hi) {
  for (int64_t jj = 0; jj < count; ++jj) {
    const nn::Doubles8 wide = __builtin_convertvector(p[jj], nn::Doubles8);
    *lo += __builtin_shufflevector(wide, wide, 0, 1, 2, 3);
    *hi += __builtin_shufflevector(wide, wide, 4, 5, 6, 7);
  }
}

// The attention aggregation's pullback for the output gradient g. The tape
// copies g's destination rows into the message gradient (SegmentSum), then
// MulColBroadcast sums each message row's product with its gathered source
// row — float products widened into a double, j ascending — into
// dalpha[e], and scales the row by alpha[e] into the gathered rows'
// gradient, which GatherRows scatter-adds onto the source nodes, edges
// ascending. This performs those operations without the (edges x d)
// buffers, eight edges at a time: the dot products — the float products
// of eight g and t rows, an 8 x 8 block per eight columns, transposed so
// that a lane is an edge, then widened and added in j order (lanes past
// the last edge repeat it and are not stored; a column tail is loaded
// zero-padded and only its valid columns are added) — then the block's
// scatter, edge by edge, so every row of dt still takes its terms in edge
// order. An arc's source is its in-CSR entry and its destination comes
// from a cursor over the offsets, which only moves forward (one
// conditional step, not a branch, covers an arc that starts the next
// row; the loop only runs past empty rows); a self-loop's ends are its
// node. `dt` must be zero on entry.
PRIVIM_VEC_CLONES
void EdgeAggregateGradKernel(const AttentionEdges& edges, int64_t d,
                             const float* PRIVIM_RESTRICT alpha,
                             const float* PRIVIM_RESTRICT t,
                             const float* PRIVIM_RESTRICT g,
                             float* PRIVIM_RESTRICT dalpha,
                             float* PRIVIM_RESTRICT dt) {
  const int64_t n = edges.num_nodes;
  const int64_t* PRIVIM_RESTRICT offsets = edges.offsets;
  const int32_t* PRIVIM_RESTRICT sources = edges.sources;
  const int64_t arcs = offsets[n];
  const int64_t num_edges = arcs + n;
  int64_t cursor = 0;  // the destination of the last arc looked up
  for (int64_t e = 0; e < num_edges; e += 8) {
    const int64_t count = std::min<int64_t>(8, num_edges - e);
    const float* grow[8];
    const float* trow[8];
    float* drow[8];
    for (int r = 0; r < 8; ++r) {
      const int64_t edge = e + (r < count ? r : count - 1);
      int64_t u = edge - arcs;
      int64_t v = u;
      if (edge < arcs) {
        cursor += offsets[cursor + 1] <= edge;
        while (offsets[cursor + 1] <= edge) ++cursor;
        u = sources[edge];
        v = cursor;
      }
      grow[r] = g + v * d;
      trow[r] = t + u * d;
      drow[r] = dt + u * d;
    }
    nn::Doubles4 lo = nn::Doubles4{};
    nn::Doubles4 hi = nn::Doubles4{};
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      nn::Lanes8 p[8], tv[8];
      nn::LoadBlock(grow, j, p);
      nn::LoadBlock(trow, j, tv);
      for (int r = 0; r < 8; ++r) p[r] *= tv[r];
      nn::Transpose8x8(p);
      AddWidenedProducts(p, 8, &lo, &hi);
    }
    if (j < d) {
      nn::Lanes8 p[8], tv[8];
      nn::LoadFirstBlock(grow, j, d - j, p);
      nn::LoadFirstBlock(trow, j, d - j, tv);
      for (int r = 0; r < 8; ++r) p[r] *= tv[r];
      nn::Transpose8x8(p);
      AddWidenedProducts(p, d - j, &lo, &hi);
    }
    const nn::Doubles8 sums =
        __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7);
    const nn::Lanes8 dots = __builtin_convertvector(sums, nn::Lanes8);
    if (count == 8) {
      nn::StoreLanes(dots, dalpha + e);
    } else {
      nn::StoreFirstLanes(dots, count, dalpha + e);
    }
    for (int64_t r = 0; r < count; ++r) {
      const float s = alpha[e + r];
      const float* PRIVIM_RESTRICT gr = grow[r];
      float* PRIVIM_RESTRICT dr = drow[r];
      for (int64_t c = 0; c < d; ++c) dr[c] += s * gr[c];
    }
  }
}

// The pullback of act(x + bias) over the output gradient `g`, in place,
// given the output `y`: g becomes the gradient of x. The tape's activation
// op writes g * act'(x) — ReLU's x > 0 is y > 0 — and its AddRowBroadcast
// sums those rows into the bias gradient (from +0, rows ascending) and
// hands them on by const reference, which stores 0 + g. With no bias the
// activation's product is handed on as is. A lane is a column, so each
// column's bias sum still adds its rows in ascending order at any width.
template <typename Grad>
PRIVIM_ALWAYS_INLINE void BiasActGradRows(const float* PRIVIM_RESTRICT y,
                                          float* PRIVIM_RESTRICT bias_grad,
                                          int64_t rows, int64_t cols,
                                          float* PRIVIM_RESTRICT g,
                                          Grad grad) {
  if (bias_grad != nullptr) std::fill(bias_grad, bias_grad + cols, 0.0f);
  for (int64_t i = 0; i < rows; ++i) {
    const float* PRIVIM_RESTRICT yrow = y + i * cols;
    float* PRIVIM_RESTRICT grow = g + i * cols;
    if (bias_grad != nullptr) {
      for (int64_t j = 0; j < cols; ++j) {
        const float v = grad(grow[j], yrow[j]);
        bias_grad[j] += v;
        grow[j] = 0.0f + v;
      }
    } else {
      for (int64_t j = 0; j < cols; ++j) grow[j] = grad(grow[j], yrow[j]);
    }
  }
}

PRIVIM_VEC_CLONES
void BiasActGrad(Activation act, const float* y, float* bias_grad,
                 int64_t rows, int64_t cols, float* g) {
  switch (act) {
    case Activation::kNone:
      BiasActGradRows(y, bias_grad, rows, cols, g,
                      [](float dy, float) { return dy; });
      break;
    case Activation::kRelu:
      // The tape's factor, x > 0 ? 1.0f : 0.0f, built from bits: as a
      // conditional the compiler would skip the multiply by 1 and branch
      // on every sign.
      BiasActGradRows(y, bias_grad, rows, cols, g, [](float dy, float yv) {
        const uint32_t one_bits = std::bit_cast<uint32_t>(1.0f);
        const uint32_t keep = 0u - static_cast<uint32_t>(yv > 0.0f);
        return dy * std::bit_cast<float>(one_bits & keep);
      });
      break;
    case Activation::kSigmoid:
      BiasActGradRows(y, bias_grad, rows, cols, g, [](float dy, float yv) {
        return dy * (yv * (1.0f - yv));
      });
      break;
  }
}

// Adds `delta` to the gradient of `slot`: the first contribution is
// adopted, later ones added in place — the tape's AccumulateGrad(Tensor&&).
void Contribute(int slot, Tensor&& delta, Scratch* scratch) {
  const size_t s = static_cast<size_t>(slot);
  if (!scratch->has_grad[s]) {
    scratch->grads[s] = std::move(delta);
    scratch->has_grad[s] = 1;
  } else {
    scratch->grads[s].AddInPlace(delta);
  }
}

}  // namespace

AttentionEdges AttentionEdges::Of(const Graph& graph) {
  return {graph.num_nodes(), graph.InCsrOffsets().data(),
          graph.InCsrSources().data()};
}

void EdgeAggregateGradInto(const Tensor& alpha, const Tensor& t,
                           const Tensor& g, const AttentionEdges& edges,
                           Tensor* dalpha, Tensor* dt) {
  assert(alpha.cols() == 1 && alpha.rows() == edges.num_edges() &&
         dalpha->SameShape(alpha));
  assert(g.cols() == t.cols() && g.rows() == edges.num_nodes &&
         dt->SameShape(t));
  EdgeAggregateGradKernel(edges, t.cols(), alpha.data(), t.data(), g.data(),
                          dalpha->data(), dt->data());
}

Status InferProgram::CheckContext(const GraphContext& ctx) const {
  if ((ctx.parts & context_parts_) != context_parts_) {
    return Status::InvalidArgument(
        "graph context lacks operators the compiled program reads");
  }
  if (reads_graph_ &&
      (ctx.graph == nullptr || ctx.graph->num_nodes() != ctx.num_nodes)) {
    return Status::InvalidArgument(
        "graph context borrows no graph of its node count for the compiled "
        "program's attention to read");
  }
  return Status::OK();
}

Status InferProgram::Execute(const GraphContext& ctx, Tensor features,
                             Scratch* scratch, Tensor* out,
                             const StepObserver& observer,
                             SlotPolicy policy) const {
  if (features.rows() != ctx.num_nodes) {
    return Status::InvalidArgument(
        "feature matrix has " + std::to_string(features.rows()) +
        " rows but the graph has " + std::to_string(ctx.num_nodes) +
        " nodes");
  }
  if (features.cols() != input_dim_) {
    return Status::InvalidArgument(
        "feature matrix has " + std::to_string(features.cols()) +
        " columns but the compiled model expects input_dim = " +
        std::to_string(input_dim_));
  }
  PRIVIM_RETURN_NOT_OK(CheckContext(ctx));
  const int64_t n = ctx.num_nodes;
  const AttentionEdges edges =
      reads_graph_ ? AttentionEdges::Of(*ctx.graph) : AttentionEdges{};
  const int64_t num_edges = reads_graph_ ? edges.num_edges() : 0;

  // Route every slot (re)allocation through the scratch's arena: slot
  // assignment recycles the old buffer and acquires a same-class one, so a
  // warm Scratch executes without touching the heap. A released slot
  // recycles the same way, and a later slot of its class takes the buffer.
  nn::ArenaScope scope(&scratch->pools);
  std::vector<Tensor>& slots = scratch->slots;
  slots.resize(buffers_.size());

  const auto rows_for = [&](const BufferSpec& spec) {
    return spec.domain == RowDomain::kNodes ? n : num_edges;
  };

  // The tape copies features into a leaf node; the caller has already
  // copied or handed over its matrix, so slot 0 adopts it.
  slots[0] = std::move(features);

  for (size_t step = 0; step < instrs_.size(); ++step) {
    const Instr& in = instrs_[step];
    const BufferSpec& spec = buffers_[static_cast<size_t>(in.dst)];
    Tensor& dst = slots[static_cast<size_t>(in.dst)];
    dst = Tensor::Uninitialized(rows_for(spec), spec.cols);

    switch (in.op) {
      case OpCode::kSpMM: {
        const SparseMatrix* adj = AdjFor(ctx, in.adj);
        SpMMValuesInto(*adj, slots[static_cast<size_t>(in.src0)], &dst);
        break;
      }

      case OpCode::kDense: {
        const Tensor& src = slots[static_cast<size_t>(in.src0)];
        MatMulValuesInto(src, *in.weight, &dst);
        if (in.bias != nullptr || in.act != Activation::kNone) {
          BiasActSweep(in.bias != nullptr ? in.bias->data() : nullptr,
                       in.act, dst.rows(), dst.cols(), dst.data());
        }
        break;
      }

      case OpCode::kConcat: {
        const Tensor& a = slots[static_cast<size_t>(in.src0)];
        const Tensor& b = slots[static_cast<size_t>(in.src1)];
        const int64_t d1 = a.cols(), d2 = b.cols();
        for (int64_t i = 0; i < a.rows(); ++i) {
          float* row = dst.data() + i * (d1 + d2);
          const float* arow = a.data() + i * d1;
          const float* brow = b.data() + i * d2;
          std::copy(arow, arow + d1, row);
          std::copy(brow, brow + d2, row + d1);
        }
        break;
      }

      case OpCode::kGinMix: {
        // Tape order: self = h * (1 + omega), then agg + self. The product
        // rounds before the add here too (-ffp-contract=off: no FMA).
        const Tensor& agg = slots[static_cast<size_t>(in.src0)];
        const Tensor& h = slots[static_cast<size_t>(in.src1)];
        const float s = 1.0f + in.scalar_param->at(0, 0);
        const float* PRIVIM_RESTRICT ap = agg.data();
        const float* PRIVIM_RESTRICT hp = h.data();
        float* PRIVIM_RESTRICT dp = dst.data();
        const int64_t count = dst.size();
        for (int64_t i = 0; i < count; ++i) dp[i] = ap[i] + hp[i] * s;
        break;
      }

      case OpCode::kAttnSoftmax: {
        // The src + dst projections through LeakyRelu, one edge sweep
        // instead of two gathers, an add and a pointwise op on the tape;
        // then the tape's SegmentSoftmax over those scores, in place.
        const float* ssrc = slots[static_cast<size_t>(in.src0)].data();
        const float* sdst = slots[static_cast<size_t>(in.src1)].data();
        if (in.segments == Segments::kByDestination) {
          AttnSoftmaxByDestination(edges, ssrc, sdst, in.scalar, dst.data());
        } else {
          Tensor seg_max = Tensor::Uninitialized(n, 1);
          DoubleTable seg_sum(n);
          AttnSoftmaxBySource(edges, ssrc, sdst, in.scalar, seg_max.data(),
                              &seg_sum, dst.data());
        }
        break;
      }

      case OpCode::kEdgeAggregate: {
        const Tensor& t = slots[static_cast<size_t>(in.src1)];
        EdgeAggregateKernel(edges, t.cols(),
                            slots[static_cast<size_t>(in.src0)].data(),
                            t.data(), dst.data());
        break;
      }

      case OpCode::kBiasAct: {
        const Tensor& src = slots[static_cast<size_t>(in.src0)];
        std::copy(src.data(), src.data() + src.size(), dst.data());
        BiasActSweep(in.bias->data(), in.act, dst.rows(), dst.cols(),
                     dst.data());
        break;
      }
    }

    if (observer) observer(step, in, slots);
    if (policy == SlotPolicy::kRelease) {
      for (const int src : {in.src0, in.src1}) {
        if (src >= 0 &&
            last_reader_[static_cast<size_t>(src)] == static_cast<int>(step)) {
          slots[static_cast<size_t>(src)] = Tensor();
        }
      }
    }
  }

  // Copy (not move) the result so the slot buffer stays warm in the
  // scratch; a caller-reused `out` keeps its own capacity, so this copy
  // allocates nothing in the steady state either.
  *out = slots[static_cast<size_t>(output_slot_)];
  return Status::OK();
}

Status InferProgram::Backward(const GraphContext& ctx, const Tensor& dscores,
                              Scratch* scratch,
                              std::vector<float>* grad) const {
  PRIVIM_RETURN_NOT_OK(CheckContext(ctx));
  const int64_t n = ctx.num_nodes;
  const AttentionEdges edges =
      reads_graph_ ? AttentionEdges::Of(*ctx.graph) : AttentionEdges{};
  const int64_t num_edges = reads_graph_ ? edges.num_edges() : 0;
  std::vector<Tensor>& slots = scratch->slots;
  // A released slot is 0 x 0, and every buffer has at least one column.
  bool retained = slots.size() == buffers_.size();
  for (size_t s = 0; retained && s < slots.size(); ++s) {
    retained = slots[s].rows() == (buffers_[s].domain == RowDomain::kNodes
                                       ? n
                                       : num_edges) &&
               slots[s].cols() == buffers_[s].cols;
  }
  if (!retained) {
    return Status::FailedPrecondition(
        "Backward needs the retained slots of an Execute over the same "
        "graph");
  }
  const Tensor& out = slots[static_cast<size_t>(output_slot_)];
  if (!dscores.SameShape(out)) {
    return Status::InvalidArgument(
        "score gradient is " + std::to_string(dscores.rows()) + "x" +
        std::to_string(dscores.cols()) + ", the program's output is " +
        std::to_string(out.rows()) + "x" + std::to_string(out.cols()));
  }
  nn::ArenaScope scope(&scratch->pools);
  std::vector<Tensor>& grads = scratch->grads;
  grads.resize(buffers_.size());
  scratch->has_grad.assign(buffers_.size(), 0);
  grad->assign(static_cast<size_t>(parameter_count_), 0.0f);
  float* flat = grad->data();

  grads[static_cast<size_t>(output_slot_)] = dscores;
  scratch->has_grad[static_cast<size_t>(output_slot_)] = 1;
  const auto requires_grad = [this](int slot) {
    return buffers_[static_cast<size_t>(slot)].requires_grad;
  };

  for (size_t step = instrs_.size(); step-- > 0;) {
    const Instr& in = instrs_[step];
    if (!scratch->has_grad[static_cast<size_t>(in.dst)]) continue;
    Tensor& g = grads[static_cast<size_t>(in.dst)];
    const Tensor& y = slots[static_cast<size_t>(in.dst)];

    switch (in.op) {
      case OpCode::kSpMM: {
        if (!requires_grad(in.src0)) break;
        const Tensor& x = slots[static_cast<size_t>(in.src0)];
        Tensor dx = Tensor::Uninitialized(x.rows(), x.cols());
        SpMMTransposeValuesInto(*AdjFor(ctx, in.adj), g, &dx);
        Contribute(in.src0, std::move(dx), scratch);
        break;
      }

      case OpCode::kDense: {
        // act(x * W + b): the bias/activation pullback, then MatMul's —
        // MatMulABT into x, MatMulATB into W.
        if (in.bias != nullptr || in.act != Activation::kNone) {
          BiasActGrad(in.act, y.data(),
                      in.bias != nullptr ? flat + in.bias_grad : nullptr,
                      g.rows(), g.cols(), g.data());
        }
        const Tensor& x = slots[static_cast<size_t>(in.src0)];
        if (requires_grad(in.src0)) {
          Contribute(in.src0, MatMulABT(g, *in.weight), scratch);
        }
        MatMulATBInto(x, g, flat + in.weight_grad);
        break;
      }

      case OpCode::kConcat: {
        const int64_t d1 = buffers_[static_cast<size_t>(in.src0)].cols;
        const int64_t d2 = buffers_[static_cast<size_t>(in.src1)].cols;
        const int srcs[2] = {in.src0, in.src1};
        for (int part = 0; part < 2; ++part) {
          if (!requires_grad(srcs[part])) continue;
          const int64_t width = part == 0 ? d1 : d2;
          const int64_t skip = part == 0 ? 0 : d1;
          Tensor dpart = Tensor::Uninitialized(g.rows(), width);
          for (int64_t i = 0; i < g.rows(); ++i) {
            const float* grow = g.data() + i * (d1 + d2) + skip;
            std::copy(grow, grow + width, dpart.data() + i * width);
          }
          Contribute(srcs[part], std::move(dpart), scratch);
        }
        break;
      }

      case OpCode::kGinMix: {
        // Tape: mixed = Add(agg, ScaleByScalar(h, Add(1, omega))). Add
        // hands both summands 0 + g; ScaleByScalar gives h the scaled
        // gradient and the scalar a float-product, double-sum dot, which
        // the inner Add hands omega as 0 + d.
        const float* PRIVIM_RESTRICT hp =
            slots[static_cast<size_t>(in.src1)].data();
        float* PRIVIM_RESTRICT gp = g.data();
        const int64_t count = g.size();
        for (int64_t i = 0; i < count; ++i) gp[i] = 0.0f + gp[i];
        const float scale = 1.0f + in.scalar_param->at(0, 0);
        if (requires_grad(in.src1)) {
          Tensor dh = Tensor::Uninitialized(g.rows(), g.cols());
          float* PRIVIM_RESTRICT dp = dh.data();
          for (int64_t i = 0; i < count; ++i) dp[i] = gp[i] * scale;
          Contribute(in.src1, std::move(dh), scratch);
        }
        double dot = 0.0;
        for (int64_t i = 0; i < count; ++i) dot += gp[i] * hp[i];
        flat[in.scalar_grad] = 0.0f + static_cast<float>(dot);
        if (requires_grad(in.src0)) Contribute(in.src0, std::move(g), scratch);
        break;
      }

      case OpCode::kAttnSoftmax: {
        // Tape: SegmentSoftmax(LeakyRelu(Add(GatherRows(s_src),
        // GatherRows(s_dst)))). The softmax pullback reads only the
        // weights, which the slot holds, and the weights' gradient, which
        // it turns into the scores' gradient in place. LeakyRelu's
        // derivative comes from the pre-activation sum; Add hands each
        // gather 0 + d, and each gather scatter-adds onto zeros.
        if (!requires_grad(in.src0) && !requires_grad(in.src1)) break;
        if (in.segments == Segments::kByDestination) {
          AttnSoftmaxGradByDestination(edges, y.data(), g.data());
        } else {
          DoubleTable seg_dot(n);
          AttnSoftmaxGradBySource(edges, y.data(), &seg_dot, g.data());
        }
        Tensor dsrc = Tensor::Zeros(n, 1);
        Tensor ddst = Tensor::Zeros(n, 1);
        AttnScoreGrad(edges, g.data(),
                      slots[static_cast<size_t>(in.src0)].data(),
                      slots[static_cast<size_t>(in.src1)].data(), in.scalar,
                      dsrc.data(), ddst.data());
        if (requires_grad(in.src0)) {
          Contribute(in.src0, std::move(dsrc), scratch);
        }
        if (requires_grad(in.src1)) {
          Contribute(in.src1, std::move(ddst), scratch);
        }
        break;
      }

      case OpCode::kEdgeAggregate: {
        const Tensor& t = slots[static_cast<size_t>(in.src1)];
        Tensor dalpha = Tensor::Uninitialized(num_edges, 1);
        Tensor dt = Tensor::Zeros(t.rows(), t.cols());
        EdgeAggregateGradInto(slots[static_cast<size_t>(in.src0)], t, g,
                              edges, &dalpha, &dt);
        if (requires_grad(in.src0)) {
          Contribute(in.src0, std::move(dalpha), scratch);
        }
        if (requires_grad(in.src1)) {
          Contribute(in.src1, std::move(dt), scratch);
        }
        break;
      }

      case OpCode::kBiasAct: {
        BiasActGrad(in.act, y.data(), flat + in.bias_grad, g.rows(),
                    g.cols(), g.data());
        if (requires_grad(in.src0)) Contribute(in.src0, std::move(g), scratch);
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace infer
}  // namespace privim
