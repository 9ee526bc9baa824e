#include <cmath>

#include "src/tensor/fast_math.h"
#include "src/tensor/op_helpers.h"
#include "src/tensor/ops.h"

namespace rntraj {

namespace {

// Generic unary op: forward maps x->y, backward multiplies upstream grad by
// dfdx(x, y).
template <typename Fwd, typename Dfdx>
Tensor Unary(const char* name, const Tensor& a, Fwd fwd, Dfdx dfdx) {
  auto ai = a.impl();
  auto out = internal::NewImplUninit(ai->shape);
  for (size_t i = 0; i < ai->data.size(); ++i) out->data[i] = fwd(ai->data[i]);
  internal::AttachNode(name, out, {ai}, [ai, dfdx](const TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (size_t i = 0; i < o.data.size(); ++i) {
      ai->grad[i] += o.grad[i] * dfdx(ai->data[i], o.data[i]);
    }
  });
  return Tensor(out);
}

}  // namespace

Tensor Relu(const Tensor& a) {
  return Unary(
      "relu", a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  return Unary(
      "leaky_relu", a,
      [negative_slope](float x) { return x > 0.0f ? x : negative_slope * x; },
      [negative_slope](float x, float) {
        return x > 0.0f ? 1.0f : negative_slope;
      });
}

Tensor Sigmoid(const Tensor& a) {
  return Unary(
      "sigmoid", a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return Unary(
      "tanh", a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Sqrt(const Tensor& a) {
  return Unary(
      "sqrt", a, [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5f / y; });
}

Tensor Square(const Tensor& a) {
  return Unary(
      "square", a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Tensor SoftmaxRows(const Tensor& a) {
  auto ai = a.impl();
  RNTRAJ_CHECK(ai->shape.size() == 2);
  const int n = ai->shape[0];
  const int d = ai->shape[1];
  auto out = internal::NewImplUninit(ai->shape);
  for (int i = 0; i < n; ++i) {
    const float* x = ai->data.data() + static_cast<size_t>(i) * d;
    float* y = out->data.data() + static_cast<size_t>(i) * d;
    const float mx = internal::RowMax(x, d);
    const float sum = internal::ExpRowMinusMax(x, y, d, mx);
    const float inv = 1.0f / sum;
#pragma GCC ivdep
    for (int j = 0; j < d; ++j) y[j] *= inv;
  }
  internal::AttachNode("softmax_rows", out, {ai}, [ai, n, d](const TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < n; ++i) {
      const float* y = o.data.data() + static_cast<size_t>(i) * d;
      const float* g = o.grad.data() + static_cast<size_t>(i) * d;
      float* ga = ai->grad.data() + static_cast<size_t>(i) * d;
      double dot = 0.0;
      for (int j = 0; j < d; ++j) dot += g[j] * y[j];
      for (int j = 0; j < d; ++j) {
        ga[j] += (g[j] - static_cast<float>(dot)) * y[j];
      }
    }
  });
  return Tensor(out);
}

Tensor LogSoftmaxRows(const Tensor& a) {
  auto ai = a.impl();
  RNTRAJ_CHECK(ai->shape.size() == 2);
  const int n = ai->shape[0];
  const int d = ai->shape[1];
  auto out = internal::NewImplUninit(ai->shape);
  for (int i = 0; i < n; ++i) {
    const float* x = ai->data.data() + static_cast<size_t>(i) * d;
    float* y = out->data.data() + static_cast<size_t>(i) * d;
    const float mx = internal::RowMax(x, d);
    // The exp pass lands in the output row as scratch before the final
    // subtraction overwrites it.
    const float sum = internal::ExpRowMinusMax(x, y, d, mx);
    const float lse = mx + std::log(sum);
#pragma GCC ivdep
    for (int j = 0; j < d; ++j) y[j] = x[j] - lse;
  }
  internal::AttachNode(
      "log_softmax_rows", out, {ai}, [ai, n, d](const TensorImpl& o) {
        if (!ai->requires_grad) return;
        ai->EnsureGrad();
        for (int i = 0; i < n; ++i) {
          const float* y = o.data.data() + static_cast<size_t>(i) * d;
          const float* g = o.grad.data() + static_cast<size_t>(i) * d;
          float* ga = ai->grad.data() + static_cast<size_t>(i) * d;
          double gsum = 0.0;
          for (int j = 0; j < d; ++j) gsum += g[j];
          for (int j = 0; j < d; ++j) {
            ga[j] += g[j] - static_cast<float>(gsum) * std::exp(y[j]);
          }
        }
      });
  return Tensor(out);
}

}  // namespace rntraj
