#include "src/tensor/op_helpers.h"
#include "src/tensor/ops.h"

namespace rntraj {

Tensor SumAll(const Tensor& a) {
  auto ai = a.impl();
  auto out = internal::NewImpl({1});
  double acc = 0.0;
  for (float v : ai->data) acc += v;
  out->data[0] = static_cast<float>(acc);
  internal::AttachNode("sum_all", out, {ai}, [ai](const TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float g = o.grad[0];
    for (auto& gv : ai->grad) gv += g;
  });
  return Tensor(out);
}

Tensor MeanAll(const Tensor& a) {
  auto ai = a.impl();
  auto out = internal::NewImpl({1});
  double acc = 0.0;
  for (float v : ai->data) acc += v;
  const float inv_n = 1.0f / static_cast<float>(ai->size());
  out->data[0] = static_cast<float>(acc) * inv_n;
  internal::AttachNode("mean_all", out, {ai}, [ai, inv_n](const TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float g = o.grad[0] * inv_n;
    for (auto& gv : ai->grad) gv += g;
  });
  return Tensor(out);
}

namespace {

Tensor RowReduce(const Tensor& a, const char* name) {
  auto ai = a.impl();
  RNTRAJ_CHECK(ai->shape.size() == 2);
  const int n = ai->shape[0];
  const int d = ai->shape[1];
  const float scale = 1.0f / static_cast<float>(d);
  auto out = internal::NewImpl({n, 1});
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = 0; j < d; ++j) acc += ai->data[static_cast<size_t>(i) * d + j];
    out->data[i] = static_cast<float>(acc) * scale;
  }
  internal::AttachNode(name, out, {ai}, [ai, n, d, scale](const TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < n; ++i) {
      const float g = o.grad[i] * scale;
      for (int j = 0; j < d; ++j) ai->grad[static_cast<size_t>(i) * d + j] += g;
    }
  });
  return Tensor(out);
}

Tensor ColReduce(const Tensor& a, const char* name) {
  auto ai = a.impl();
  RNTRAJ_CHECK(ai->shape.size() == 2);
  const int n = ai->shape[0];
  const int d = ai->shape[1];
  const float scale = 1.0f / static_cast<float>(n);
  auto out = internal::NewImpl({d});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) {
      out->data[j] += ai->data[static_cast<size_t>(i) * d + j];
    }
  }
  for (int j = 0; j < d; ++j) out->data[j] *= scale;
  internal::AttachNode(name, out, {ai}, [ai, n, d, scale](const TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < d; ++j) {
        ai->grad[static_cast<size_t>(i) * d + j] += o.grad[j] * scale;
      }
    }
  });
  return Tensor(out);
}

}  // namespace

Tensor RowMean(const Tensor& a) { return RowReduce(a, "row_mean"); }
Tensor ColMean(const Tensor& a) { return ColReduce(a, "col_mean"); }

}  // namespace rntraj
