#include "src/tensor/op_helpers.h"
#include "src/tensor/ops.h"

namespace rntraj {

namespace internal {

Broadcast ClassifyBroadcast(const TensorImpl& a, const TensorImpl& b,
                            const char* op) {
  if (a.shape == b.shape) return Broadcast::kSame;
  if (b.size() == 1) return Broadcast::kScalar;
  if (a.shape.size() == 2) {
    const int n = a.shape[0];
    const int d = a.shape[1];
    if (b.shape.size() == 1 && b.shape[0] == d) return Broadcast::kRow;
    if (b.shape.size() == 2 && b.shape[0] == 1 && b.shape[1] == d) {
      return Broadcast::kRow;
    }
    if (b.shape.size() == 2 && b.shape[0] == n && b.shape[1] == 1) {
      return Broadcast::kCol;
    }
  }
  RNTRAJ_CHECK_MSG(false, op << ": unsupported broadcast, a.rank=" << a.shape.size()
                             << " b.rank=" << b.shape.size());
  RNTRAJ_UNREACHABLE();
}

namespace {

// One kernel per (op, broadcast) pair: the op is a template parameter and
// each broadcast is its own loop nest over raw pointers, so the inner loops
// carry no switch, modulo or division and vectorise. Every element of the
// forward and of both gradients is computed with the same expression, and
// every broadcast gradient entry gb[j] receives its terms in increasing
// flat-index order, as the straightforward per-element loop over `a` does.
enum class BinOp { kAdd, kSub, kMul, kDiv };

template <BinOp K>
inline float Apply(float a, float b) {
  if constexpr (K == BinOp::kAdd) {
    return a + b;
  } else if constexpr (K == BinOp::kSub) {
    return a - b;
  } else if constexpr (K == BinOp::kMul) {
    return a * b;
  } else {
    return a / b;
  }
}

// d(out)/d(a) contribution of upstream gradient g, added into acc (Mul and
// Div only: Add and Sub pass g straight through).
template <BinOp K>
inline float AccumA(float acc, float g, float b) {
  if constexpr (K == BinOp::kMul) {
    return MulAdd(g, b, acc);
  } else {
    return acc + g / b;
  }
}

// d(out)/d(b) contribution of upstream gradient g, added into acc.
template <BinOp K>
inline float AccumB(float acc, float g, float a, float b) {
  if constexpr (K == BinOp::kAdd) {
    return acc + g;
  } else if constexpr (K == BinOp::kSub) {
    return acc - g;
  } else if constexpr (K == BinOp::kMul) {
    return MulAdd(g, a, acc);
  } else {
    return acc + -g * a / (b * b);
  }
}

// Shape of the loop nest: `rows` x `d` for the row/column broadcasts, a flat
// run of `size` elements for same-shape and scalar.
struct Extent {
  size_t size;
  int rows;
  int d;
};

template <BinOp K>
void ForwardKernel(Broadcast bc, Extent e, const float* __restrict a,
                   const float* __restrict b, float* __restrict out) {
  switch (bc) {
    case Broadcast::kSame:
      for (size_t i = 0; i < e.size; ++i) out[i] = Apply<K>(a[i], b[i]);
      break;
    case Broadcast::kScalar: {
      const float bv = b[0];
      for (size_t i = 0; i < e.size; ++i) out[i] = Apply<K>(a[i], bv);
      break;
    }
    case Broadcast::kRow:
      for (int r = 0; r < e.rows; ++r) {
        const size_t off = static_cast<size_t>(r) * e.d;
        for (int j = 0; j < e.d; ++j) out[off + j] = Apply<K>(a[off + j], b[j]);
      }
      break;
    case Broadcast::kCol:
      for (int r = 0; r < e.rows; ++r) {
        const size_t off = static_cast<size_t>(r) * e.d;
        const float bv = b[r];
        for (int j = 0; j < e.d; ++j) out[off + j] = Apply<K>(a[off + j], bv);
      }
      break;
  }
}

template <BinOp K>
void GradAKernel(Broadcast bc, Extent e, const float* __restrict g,
                 const float* __restrict b, float* __restrict ga) {
  if constexpr (K == BinOp::kAdd || K == BinOp::kSub) {
    for (size_t i = 0; i < e.size; ++i) ga[i] += g[i];
  } else {
    switch (bc) {
      case Broadcast::kSame:
        for (size_t i = 0; i < e.size; ++i) {
          ga[i] = AccumA<K>(ga[i], g[i], b[i]);
        }
        break;
      case Broadcast::kScalar: {
        const float bv = b[0];
        for (size_t i = 0; i < e.size; ++i) ga[i] = AccumA<K>(ga[i], g[i], bv);
        break;
      }
      case Broadcast::kRow:
        for (int r = 0; r < e.rows; ++r) {
          const size_t off = static_cast<size_t>(r) * e.d;
          for (int j = 0; j < e.d; ++j) {
            ga[off + j] = AccumA<K>(ga[off + j], g[off + j], b[j]);
          }
        }
        break;
      case Broadcast::kCol:
        for (int r = 0; r < e.rows; ++r) {
          const size_t off = static_cast<size_t>(r) * e.d;
          const float bv = b[r];
          for (int j = 0; j < e.d; ++j) {
            ga[off + j] = AccumA<K>(ga[off + j], g[off + j], bv);
          }
        }
        break;
    }
  }
}

// `a` and `b` may be the same buffer (Mul(x, x)); only the gradient buffer
// is written.
template <BinOp K>
void GradBKernel(Broadcast bc, Extent e, const float* __restrict g,
                 const float* a, const float* b, float* __restrict gb) {
  switch (bc) {
    case Broadcast::kSame:
      for (size_t i = 0; i < e.size; ++i) {
        gb[i] = AccumB<K>(gb[i], g[i], a[i], b[i]);
      }
      break;
    case Broadcast::kScalar: {
      const float bv = b[0];
      float acc = gb[0];
      for (size_t i = 0; i < e.size; ++i) acc = AccumB<K>(acc, g[i], a[i], bv);
      gb[0] = acc;
      break;
    }
    case Broadcast::kRow:
      for (int r = 0; r < e.rows; ++r) {
        const size_t off = static_cast<size_t>(r) * e.d;
        for (int j = 0; j < e.d; ++j) {
          gb[j] = AccumB<K>(gb[j], g[off + j], a[off + j], b[j]);
        }
      }
      break;
    case Broadcast::kCol:
      for (int r = 0; r < e.rows; ++r) {
        const size_t off = static_cast<size_t>(r) * e.d;
        const float bv = b[r];
        float acc = gb[r];
        for (int j = 0; j < e.d; ++j) {
          acc = AccumB<K>(acc, g[off + j], a[off + j], bv);
        }
        gb[r] = acc;
      }
      break;
  }
}

template <BinOp K>
Tensor Binary(const char* name, const Tensor& a, const Tensor& b) {
  auto ai = a.impl();
  auto bi = b.impl();
  const Broadcast bc = ClassifyBroadcast(*ai, *bi, name);
  const bool nested = bc == Broadcast::kRow || bc == Broadcast::kCol;
  const Extent e{ai->data.size(), nested ? ai->shape[0] : 0,
                 nested ? ai->shape[1] : 0};

  auto out = NewImplUninit(ai->shape);
  ForwardKernel<K>(bc, e, ai->data.data(), bi->data.data(), out->data.data());

  AttachNode(name, out, {ai, bi}, [bc, e, ai, bi](const TensorImpl& o) {
    // The a-gradient pass completes before the b-gradient pass starts, so an
    // aliased Mul(x, x) accumulates both terms in that order.
    if (ai->requires_grad) {
      ai->EnsureGrad();
      GradAKernel<K>(bc, e, o.grad.data(), bi->data.data(), ai->grad.data());
    }
    if (bi->requires_grad) {
      bi->EnsureGrad();
      GradBKernel<K>(bc, e, o.grad.data(), ai->data.data(), bi->data.data(),
                     bi->grad.data());
    }
  });
  return Tensor(out);
}

}  // namespace
}  // namespace internal

Tensor Add(const Tensor& a, const Tensor& b) {
  return internal::Binary<internal::BinOp::kAdd>("add", a, b);
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return internal::Binary<internal::BinOp::kSub>("sub", a, b);
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return internal::Binary<internal::BinOp::kMul>("mul", a, b);
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return internal::Binary<internal::BinOp::kDiv>("div", a, b);
}

Tensor AddScalar(const Tensor& a, float s) {
  auto ai = a.impl();
  auto out = internal::NewImplUninit(ai->shape);
  for (size_t i = 0; i < ai->data.size(); ++i) out->data[i] = ai->data[i] + s;
  internal::AttachNode("add_scalar", out, {ai}, [ai](const TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (size_t i = 0; i < o.data.size(); ++i) ai->grad[i] += o.grad[i];
  });
  return Tensor(out);
}

Tensor MulScalar(const Tensor& a, float s) {
  auto ai = a.impl();
  auto out = internal::NewImplUninit(ai->shape);
  for (size_t i = 0; i < ai->data.size(); ++i) out->data[i] = ai->data[i] * s;
  internal::AttachNode("mul_scalar", out, {ai}, [ai, s](const TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (size_t i = 0; i < o.data.size(); ++i) ai->grad[i] += o.grad[i] * s;
  });
  return Tensor(out);
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

}  // namespace rntraj
