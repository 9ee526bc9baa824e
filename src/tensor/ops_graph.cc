#include "src/tensor/fast_math.h"
#include "src/tensor/op_helpers.h"
#include "src/tensor/ops.h"

/// \file ops_graph.cc
/// Per-edge ops over an in-edge CSR index (the graph layers of nn/graph.h):
/// the GAT edge scores, the softmax over each node's in-edges, and the
/// weighted sparse aggregate. Every loop walks the rows in order and a row's
/// edges in index order, so each op costs O(|V| + |E|) and is deterministic.

namespace rntraj {

namespace {

void CheckNodeVector(const TensorImpl& t, const CsrIndex& csr, const char* op,
                     const char* what) {
  RNTRAJ_CHECK_MSG(t.size() == csr.num_nodes(),
                   op << ": " << what << " has " << t.size() << " entries for "
                      << csr.num_nodes() << " nodes");
}

void CheckEdgeVector(const TensorImpl& t, const CsrIndex& csr, const char* op) {
  RNTRAJ_CHECK_MSG(t.shape.size() == 1 && t.shape[0] == csr.num_edges(),
                   op << ": expected " << csr.num_edges()
                      << " edge values, got " << t.size());
}

}  // namespace

Tensor EdgeScores(const Tensor& dst_term, const Tensor& src_term,
                  const CsrIndexPtr& csr) {
  auto di = dst_term.impl();
  auto si = src_term.impl();
  CheckNodeVector(*di, *csr, "edge_scores", "dst_term");
  CheckNodeVector(*si, *csr, "edge_scores", "src_term");

  auto out = internal::NewImplUninit({csr->num_edges()});
  {
    const int* off = csr->offsets.data();
    const int* src = csr->src.data();
    const float* u = di->data.data();
    const float* v = si->data.data();
    float* y = out->data.data();
    for (int i = 0; i < csr->num_nodes(); ++i) {
      for (int e = off[i]; e < off[i + 1]; ++e) y[e] = u[i] + v[src[e]];
    }
  }

  internal::AttachNode(
      "edge_scores", out, {di, si}, [di, si, csr](const TensorImpl& o) {
        const int* off = csr->offsets.data();
        const int* src = csr->src.data();
        const float* g = o.grad.data();
        if (di->requires_grad) {
          di->EnsureGrad();
          for (int i = 0; i < csr->num_nodes(); ++i) {
            float acc = 0.0f;
            for (int e = off[i]; e < off[i + 1]; ++e) acc += g[e];
            di->grad[i] += acc;
          }
        }
        if (si->requires_grad) {
          si->EnsureGrad();
          float* gv = si->grad.data();
          for (int e = 0; e < csr->num_edges(); ++e) gv[src[e]] += g[e];
        }
      });
  return Tensor(out);
}

Tensor EdgeSoftmax(const Tensor& scores, const CsrIndexPtr& csr) {
  auto ai = scores.impl();
  CheckEdgeVector(*ai, *csr, "edge_softmax");

  auto out = internal::NewImplUninit({csr->num_edges()});
  {
    const int* off = csr->offsets.data();
    for (int i = 0; i < csr->num_nodes(); ++i) {
      const int len = off[i + 1] - off[i];
      if (len == 0) continue;
      const float* x = ai->data.data() + off[i];
      float* y = out->data.data() + off[i];
      const float mx = internal::RowMax(x, len);
      const float inv = 1.0f / internal::ExpRowMinusMax(x, y, len, mx);
#pragma GCC ivdep
      for (int j = 0; j < len; ++j) y[j] *= inv;
    }
  }

  // Per-row softmax Jacobian, one row per node's in-edge span.
  internal::AttachNode(
      "edge_softmax", out, {ai}, [ai, csr](const TensorImpl& o) {
        if (!ai->requires_grad) return;
        ai->EnsureGrad();
        const int* off = csr->offsets.data();
        for (int i = 0; i < csr->num_nodes(); ++i) {
          const float* y = o.data.data() + off[i];
          const float* g = o.grad.data() + off[i];
          float* ga = ai->grad.data() + off[i];
          const int len = off[i + 1] - off[i];
          double dot = 0.0;
          for (int j = 0; j < len; ++j) dot += g[j] * y[j];
          for (int j = 0; j < len; ++j) {
            ga[j] += (g[j] - static_cast<float>(dot)) * y[j];
          }
        }
      });
  return Tensor(out);
}

Tensor SpMM(const Tensor& values, const Tensor& h, const CsrIndexPtr& csr) {
  auto vi = values.impl();
  auto hi = h.impl();
  CheckEdgeVector(*vi, *csr, "spmm");
  RNTRAJ_CHECK_MSG(hi->shape.size() == 2 && hi->shape[0] == csr->num_nodes(),
                   "spmm: features need " << csr->num_nodes() << " rows");
  const int d = hi->shape[1];

  auto out = internal::NewImpl({csr->num_nodes(), d});
  {
    const int* off = csr->offsets.data();
    const int* src = csr->src.data();
    const float* w = vi->data.data();
    for (int i = 0; i < csr->num_nodes(); ++i) {
      float* orow = out->data.data() + static_cast<size_t>(i) * d;
      for (int e = off[i]; e < off[i + 1]; ++e) {
        const float* hrow = hi->data.data() + static_cast<size_t>(src[e]) * d;
        const float we = w[e];
#pragma GCC ivdep
        for (int j = 0; j < d; ++j) {
          orow[j] = internal::MulAdd(we, hrow[j], orow[j]);
        }
      }
    }
  }

  internal::AttachNode(
      "spmm", out, {vi, hi}, [vi, hi, csr, d](const TensorImpl& o) {
        const bool grad_values = vi->requires_grad;
        const bool grad_h = hi->requires_grad;
        if (grad_values) vi->EnsureGrad();
        if (grad_h) hi->EnsureGrad();
        const int* off = csr->offsets.data();
        const int* src = csr->src.data();
        for (int i = 0; i < csr->num_nodes(); ++i) {
          const float* grow = o.grad.data() + static_cast<size_t>(i) * d;
          for (int e = off[i]; e < off[i + 1]; ++e) {
            const size_t s = static_cast<size_t>(src[e]) * d;
            if (grad_values) {
              // d values[e] = <dOut[i], h[src[e]]>
              const float* hrow = hi->data.data() + s;
              float acc = 0.0f;
              for (int j = 0; j < d; ++j) {
                acc = internal::MulAdd(grow[j], hrow[j], acc);
              }
              vi->grad[e] += acc;
            }
            if (grad_h) {
              // d h[src[e]] += values[e] * dOut[i]
              float* ghrow = hi->grad.data() + s;
              const float we = vi->data[e];
#pragma GCC ivdep
              for (int j = 0; j < d; ++j) {
                ghrow[j] = internal::MulAdd(we, grow[j], ghrow[j]);
              }
            }
          }
        }
      });
  return Tensor(out);
}

}  // namespace rntraj
