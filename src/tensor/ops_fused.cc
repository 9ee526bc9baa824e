#include "src/tensor/op_helpers.h"
#include "src/tensor/ops.h"

/// \file ops_fused.cc
/// The fused row broadcast of the bias-add and attention hot paths: one pass
/// over the output instead of a generic broadcast chain.

namespace rntraj {

namespace {

// Accepts a rank-1 (m) or rank-2 (1,m) row vector; returns m.
int RowLength(const TensorImpl& t, const char* op) {
  if (t.shape.size() == 1) return t.shape[0];
  RNTRAJ_CHECK_MSG(t.shape.size() == 2 && t.shape[0] == 1,
                   op << ": expected row vector, got shape ("
                      << t.shape[0] << "," << t.shape[1] << ")");
  return t.shape[1];
}

}  // namespace

Tensor AddRowBroadcast(const Tensor& a, const Tensor& row) {
  auto ai = a.impl();
  auto ri = row.impl();
  const bool a_was_vec = ai->shape.size() == 1;
  const int n = a_was_vec ? 1 : ai->shape[0];
  const int d = a_was_vec ? ai->shape[0] : ai->shape[1];
  RNTRAJ_CHECK_MSG(RowLength(*ri, "add_row_broadcast") == d,
                   "add_row_broadcast: width " << d << " vs row of "
                                               << RowLength(*ri, "add_row_broadcast"));

  auto out = internal::NewImplUninit(ai->shape);
  const float* v = ri->data.data();
  for (int i = 0; i < n; ++i) {
    const float* arow = ai->data.data() + static_cast<size_t>(i) * d;
    float* orow = out->data.data() + static_cast<size_t>(i) * d;
#pragma GCC ivdep
    for (int j = 0; j < d; ++j) orow[j] = arow[j] + v[j];
  }

  internal::AttachNode(
      "add_row_broadcast", out, {ai, ri}, [ai, ri, n, d](const TensorImpl& o) {
        if (ai->requires_grad) {
          ai->EnsureGrad();
          float* ga = ai->grad.data();
          const float* g = o.grad.data();
#pragma GCC ivdep
          for (size_t i = 0; i < o.grad.size(); ++i) ga[i] += g[i];
        }
        if (ri->requires_grad) {
          ri->EnsureGrad();
          float* gv = ri->grad.data();
          for (int i = 0; i < n; ++i) {
            const float* grow = o.grad.data() + static_cast<size_t>(i) * d;
#pragma GCC ivdep
            for (int j = 0; j < d; ++j) gv[j] += grow[j];
          }
        }
      });
  return Tensor(out);
}

}  // namespace rntraj
