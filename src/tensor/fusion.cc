#include "src/tensor/fusion.h"

#include <cmath>
#include <memory>

#include "src/tensor/fast_math.h"
#include "src/tensor/op_helpers.h"
#include "src/tensor/ops.h"

namespace rntraj {
namespace fusion {

namespace {

// Activation scalar functions — the same expressions ops_unary.cc uses, so a
// fused emission produces bit-identical activation values.
inline float ActForward(float x, Act act, float slope) {
  switch (act) {
    case Act::kIdentity:
      return x;
    case Act::kRelu:
      return x > 0.0f ? x : 0.0f;
    case Act::kLeakyRelu:
      return x > 0.0f ? x : slope * x;
    case Act::kSigmoid:
      return 1.0f / (1.0f + std::exp(-x));
    case Act::kTanh:
      return std::tanh(x);
  }
  return x;
}

// Derivative from the OUTPUT value (all four activations admit one: relu and
// leaky-relu because sign(out) == sign(in) for positive slope, sigmoid and
// tanh by their classic identities). Matches the dfdx closures in
// ops_unary.cc at every point including x == 0.
inline float ActBackward(float y, Act act, float slope) {
  switch (act) {
    case Act::kIdentity:
      return 1.0f;
    case Act::kRelu:
      return y > 0.0f ? 1.0f : 0.0f;
    case Act::kLeakyRelu:
      return y > 0.0f ? 1.0f : slope;
    case Act::kSigmoid:
      return y * (1.0f - y);
    case Act::kTanh:
      return 1.0f - y * y;
  }
  return 1.0f;
}

// Accepts a rank-1 (d) or rank-2 (1,d) row vector; returns d.
int RowVecLength(const TensorImpl& t, const char* op) {
  if (t.shape.size() == 1) return t.shape[0];
  RNTRAJ_CHECK_MSG(t.shape.size() == 2 && t.shape[0] == 1,
                   op << ": expected row vector, got shape ("
                      << t.shape[0] << "," << t.shape[1] << ")");
  return t.shape[1];
}

// How BiasAct's bias relates to x.
enum class BiasKind { kNone, kRow, kSame };

}  // namespace

Tensor BiasAct(const Tensor& x, const Tensor& bias, Act act,
               float leaky_slope) {
  auto ai = x.impl();
  const bool a_was_vec = ai->shape.size() == 1;
  const int n = a_was_vec ? 1 : ai->shape[0];
  const int d = a_was_vec ? ai->shape[0] : ai->shape[1];

  BiasKind kind = BiasKind::kNone;
  std::shared_ptr<TensorImpl> bi;
  if (bias.defined()) {
    bi = bias.impl();
    if (bi->shape == ai->shape) {
      kind = BiasKind::kSame;
    } else {
      RNTRAJ_CHECK_MSG(RowVecLength(*bi, "bias_act") == d,
                       "bias_act: width " << d << " vs bias of "
                                          << RowVecLength(*bi, "bias_act"));
      kind = BiasKind::kRow;
    }
  }

  auto out = internal::NewImplUninit(ai->shape);
  const float* bv = bi ? bi->data.data() : nullptr;
  for (int i = 0; i < n; ++i) {
    const float* arow = ai->data.data() + static_cast<size_t>(i) * d;
    float* orow = out->data.data() + static_cast<size_t>(i) * d;
    const float* brow =
        kind == BiasKind::kSame ? bv + static_cast<size_t>(i) * d : bv;
    switch (kind) {
      case BiasKind::kNone:
#pragma GCC ivdep
        for (int j = 0; j < d; ++j) {
          orow[j] = ActForward(arow[j], act, leaky_slope);
        }
        break;
      default:
#pragma GCC ivdep
        for (int j = 0; j < d; ++j) {
          orow[j] = ActForward(arow[j] + brow[j], act, leaky_slope);
        }
        break;
    }
  }

  std::vector<std::shared_ptr<TensorImpl>> inputs = {ai};
  if (bi) inputs.push_back(bi);
  internal::AttachNode(
      "bias_act", out, std::move(inputs),
      [ai, bi, kind, act, leaky_slope, n, d](const TensorImpl& o) {
        const bool need_a = ai->requires_grad;
        const bool need_b = bi && bi->requires_grad;
        if (!need_a && !need_b) return;
        if (need_a) ai->EnsureGrad();
        if (need_b) bi->EnsureGrad();
        for (int i = 0; i < n; ++i) {
          const float* y = o.data.data() + static_cast<size_t>(i) * d;
          const float* g = o.grad.data() + static_cast<size_t>(i) * d;
          float* ga =
              need_a ? ai->grad.data() + static_cast<size_t>(i) * d : nullptr;
          float* gb = nullptr;
          if (need_b) {
            gb = kind == BiasKind::kSame
                     ? bi->grad.data() + static_cast<size_t>(i) * d
                     : bi->grad.data();
          }
          for (int j = 0; j < d; ++j) {
            const float dy = g[j] * ActBackward(y[j], act, leaky_slope);
            if (need_a) ga[j] += dy;
            if (need_b) gb[j] += dy;
          }
        }
      });
  return Tensor(out);
}

// Row i is scaled by its mask value; zero rows are skipped outright, keeping
// padding rows exactly zero and gradient-free, matching
// Mul(LayerNorm(a+b), row_mask).
Tensor ResidualLayerNorm(const Tensor& a, const Tensor& b,
                         const Tensor& gamma, const Tensor& beta, float eps,
                         const Tensor& row_mask) {
  auto ai = a.impl();
  auto bi = b.impl();
  auto gi = gamma.impl();
  auto bti = beta.impl();
  RNTRAJ_CHECK(ai->shape.size() == 2);
  RNTRAJ_CHECK_MSG(bi->shape == ai->shape,
                   "residual_layer_norm: residual shape mismatch");
  const int n = ai->shape[0];
  const int d = ai->shape[1];
  RNTRAJ_CHECK_MSG(RowVecLength(*gi, "residual_layer_norm") == d &&
                       RowVecLength(*bti, "residual_layer_norm") == d,
                   "residual_layer_norm: gamma/beta width mismatch");
  auto mi = row_mask.impl();
  RNTRAJ_CHECK_MSG(!mi->requires_grad,
                   "residual_layer_norm: mask must not require grad");
  RNTRAJ_CHECK_MSG(static_cast<int>(mi->data.size()) == n,
                   "residual_layer_norm: need one mask entry per row");

  auto out = internal::NewImplUninit(ai->shape);
  const float* gm = gi->data.data();
  const float* bt = bti->data.data();
  const float* mk = mi->data.data();

  // Per-row statistics stashed for the backward (mu, inv_std interleaved);
  // only materialised when a grad node will record them.
  const bool rec = GradModeEnabled() &&
                   internal::AnyRequiresGrad({ai, bi, gi, bti});
  auto stats = rec ? std::make_shared<std::vector<float>>(2 * n) : nullptr;

  for (int i = 0; i < n; ++i) {
    float* orow = out->data.data() + static_cast<size_t>(i) * d;
    const float w = mk[i];
    if (w == 0.0f) {
      for (int j = 0; j < d; ++j) orow[j] = 0.0f;
      if (rec) {
        (*stats)[2 * i] = 0.0f;
        (*stats)[2 * i + 1] = 0.0f;
      }
      continue;
    }
    const float* arow = ai->data.data() + static_cast<size_t>(i) * d;
    const float* brow = bi->data.data() + static_cast<size_t>(i) * d;
    // Pass 1: the residual sum lands in the output row as scratch.
    double sum = 0.0;
#pragma GCC ivdep
    for (int j = 0; j < d; ++j) orow[j] = arow[j] + brow[j];
    for (int j = 0; j < d; ++j) sum += orow[j];
    const float mu = static_cast<float>(sum / d);
    double var = 0.0;
    for (int j = 0; j < d; ++j) {
      const double c = orow[j] - mu;
      var += c * c;
    }
    const float istd =
        1.0f / std::sqrt(static_cast<float>(var / d) + eps);
    if (rec) {
      (*stats)[2 * i] = mu;
      (*stats)[2 * i + 1] = istd;
    }
#pragma GCC ivdep
    for (int j = 0; j < d; ++j) {
      orow[j] = ((orow[j] - mu) * istd * gm[j] + bt[j]) * w;
    }
  }

  internal::AttachNode(
      "residual_layer_norm", out, {ai, bi, gi, bti, mi},
      [ai, bi, gi, bti, mi, stats, n, d](const TensorImpl& o) {
        const bool need_a = ai->requires_grad;
        const bool need_b = bi->requires_grad;
        const bool need_g = gi->requires_grad;
        const bool need_bt = bti->requires_grad;
        if (need_a) ai->EnsureGrad();
        if (need_b) bi->EnsureGrad();
        if (need_g) gi->EnsureGrad();
        if (need_bt) bti->EnsureGrad();
        const float* gm = gi->data.data();
        const float* mk = mi->data.data();
        std::vector<float> xhat(d);
        for (int i = 0; i < n; ++i) {
          const float w = mk[i];
          if (w == 0.0f) continue;  // padding rows carry no gradient
          const float mu = (*stats)[2 * i];
          const float istd = (*stats)[2 * i + 1];
          const float* arow = ai->data.data() + static_cast<size_t>(i) * d;
          const float* brow = bi->data.data() + static_cast<size_t>(i) * d;
          const float* g = o.grad.data() + static_cast<size_t>(i) * d;
#pragma GCC ivdep
          for (int j = 0; j < d; ++j) {
            xhat[j] = (arow[j] + brow[j] - mu) * istd;
          }
          // Standard LayerNorm gradient with gy = g * w * gamma:
          // dx = istd * (gy - mean(gy) - xhat * mean(gy * xhat)).
          double sum_gy = 0.0, sum_gyx = 0.0;
          for (int j = 0; j < d; ++j) {
            const float gy = g[j] * w * gm[j];
            sum_gy += gy;
            sum_gyx += gy * xhat[j];
          }
          const float mean_gy = static_cast<float>(sum_gy / d);
          const float mean_gyx = static_cast<float>(sum_gyx / d);
          if (need_a || need_b) {
            float* ga =
                need_a ? ai->grad.data() + static_cast<size_t>(i) * d : nullptr;
            float* gb =
                need_b ? bi->grad.data() + static_cast<size_t>(i) * d : nullptr;
            for (int j = 0; j < d; ++j) {
              const float gy = g[j] * w * gm[j];
              const float dx = istd * (gy - mean_gy - xhat[j] * mean_gyx);
              if (need_a) ga[j] += dx;
              if (need_b) gb[j] += dx;
            }
          }
          if (need_g) {
            float* gg = gi->grad.data();
#pragma GCC ivdep
            for (int j = 0; j < d; ++j) gg[j] += g[j] * w * xhat[j];
          }
          if (need_bt) {
            float* gbt = bti->grad.data();
#pragma GCC ivdep
            for (int j = 0; j < d; ++j) gbt[j] += g[j] * w;
          }
        }
      });
  return Tensor(out);
}

namespace {

// Shared fused softmax body: the caller has already written the scaled
// (and additively masked) logits into the output row prefix; this runs the
// same RowMax / ExpRowMinusMax / normalise pipeline as SoftmaxRows on it.
inline void SoftmaxRowInPlace(float* y, int v) {
  const float mx = internal::RowMax(y, v);
  const float sum = internal::ExpRowMinusMax(y, y, v, mx);
  const float inv = 1.0f / sum;
#pragma GCC ivdep
  for (int j = 0; j < v; ++j) y[j] *= inv;
}

}  // namespace

Tensor ScaleLengthMaskedSoftmax(const Tensor& a, float scale,
                                const std::vector<int>& valid) {
  auto ai = a.impl();
  RNTRAJ_CHECK(ai->shape.size() == 2);
  const int n = ai->shape[0];
  const int d = ai->shape[1];
  RNTRAJ_CHECK_MSG(static_cast<int>(valid.size()) == n,
                   "scale_length_masked_softmax: need one length per row");
  auto out = internal::NewImplUninit(ai->shape);
  for (int i = 0; i < n; ++i) {
    const int v = valid[i];
    RNTRAJ_CHECK_MSG(v >= 0 && v <= d, "scale_length_masked_softmax: valid "
                                           << v << " of " << d);
    const float* x = ai->data.data() + static_cast<size_t>(i) * d;
    float* y = out->data.data() + static_cast<size_t>(i) * d;
    if (v > 0) {
#pragma GCC ivdep
      for (int j = 0; j < v; ++j) y[j] = x[j] * scale;
      SoftmaxRowInPlace(y, v);
    }
    for (int j = v; j < d; ++j) y[j] = 0.0f;
  }
  internal::AttachNode(
      "scale_length_masked_softmax", out, {ai},
      [ai, scale, valid, n, d](const TensorImpl& o) {
        if (!ai->requires_grad) return;
        ai->EnsureGrad();
        for (int i = 0; i < n; ++i) {
          const int v = valid[i];
          if (v == 0) continue;
          const float* y = o.data.data() + static_cast<size_t>(i) * d;
          const float* g = o.grad.data() + static_cast<size_t>(i) * d;
          float* ga = ai->grad.data() + static_cast<size_t>(i) * d;
          double dot = 0.0;
          for (int j = 0; j < v; ++j) dot += g[j] * y[j];
          for (int j = 0; j < v; ++j) {
            ga[j] += scale * (g[j] - static_cast<float>(dot)) * y[j];
          }
        }
      });
  return Tensor(out);
}

Tensor ScaleShiftRows(const Tensor& a, const Tensor& gamma,
                      const Tensor& beta) {
  auto ai = a.impl();
  auto gi = gamma.impl();
  auto bti = beta.impl();
  RNTRAJ_CHECK(ai->shape.size() == 2);
  const int n = ai->shape[0];
  const int d = ai->shape[1];
  RNTRAJ_CHECK_MSG(RowVecLength(*gi, "scale_shift_rows") == d &&
                       RowVecLength(*bti, "scale_shift_rows") == d,
                   "scale_shift_rows: gamma/beta width mismatch");

  auto out = internal::NewImplUninit(ai->shape);
  const float* gm = gi->data.data();
  const float* bt = bti->data.data();
  for (int i = 0; i < n; ++i) {
    const float* arow = ai->data.data() + static_cast<size_t>(i) * d;
    float* orow = out->data.data() + static_cast<size_t>(i) * d;
#pragma GCC ivdep
    for (int j = 0; j < d; ++j) orow[j] = arow[j] * gm[j] + bt[j];
  }
  internal::AttachNode(
      "scale_shift_rows", out, {ai, gi, bti},
      [ai, gi, bti, n, d](const TensorImpl& o) {
        const float* gm = gi->data.data();
        if (ai->requires_grad) {
          ai->EnsureGrad();
          for (int i = 0; i < n; ++i) {
            const float* g = o.grad.data() + static_cast<size_t>(i) * d;
            float* ga = ai->grad.data() + static_cast<size_t>(i) * d;
#pragma GCC ivdep
            for (int j = 0; j < d; ++j) ga[j] += g[j] * gm[j];
          }
        }
        if (gi->requires_grad) {
          gi->EnsureGrad();
          float* gg = gi->grad.data();
          for (int i = 0; i < n; ++i) {
            const float* g = o.grad.data() + static_cast<size_t>(i) * d;
            const float* arow = ai->data.data() + static_cast<size_t>(i) * d;
#pragma GCC ivdep
            for (int j = 0; j < d; ++j) gg[j] += g[j] * arow[j];
          }
        }
        if (bti->requires_grad) {
          bti->EnsureGrad();
          float* gbt = bti->grad.data();
          for (int i = 0; i < n; ++i) {
            const float* g = o.grad.data() + static_cast<size_t>(i) * d;
#pragma GCC ivdep
            for (int j = 0; j < d; ++j) gbt[j] += g[j];
          }
        }
      });
  return Tensor(out);
}

namespace {

// Width d of a GRU cell whose input projection xw is (n, 3d); checks that
// bias, hw and h agree with it.
int GruWidth(const TensorImpl& xw, const TensorImpl& bias,
             const TensorImpl& hw, const TensorImpl& h, const char* op) {
  RNTRAJ_CHECK_MSG(xw.shape.size() == 2 && xw.shape[1] % 3 == 0,
                   op << ": xw must be (n, 3d)");
  const int n = xw.shape[0];
  const int d = xw.shape[1] / 3;
  RNTRAJ_CHECK_MSG(RowVecLength(bias, op) == 3 * d,
                   op << ": bias must hold 3d = " << 3 * d << " entries");
  RNTRAJ_CHECK_MSG(hw.shape == std::vector<int>({n, 2 * d}),
                   op << ": hw must be (n, 2d)");
  RNTRAJ_CHECK_MSG(h.shape == std::vector<int>({n, d}),
                   op << ": h must be (n, d)");
  return d;
}

// The GRU blend must round both of its products, as the op chain it replaces
// does. GCC contracts a product feeding a sum into an FMA at -O2 and above,
// even across statements; clang contracts only within one expression, so
// the products are separate statements.
#if defined(__GNUC__) && !defined(__clang__)
#define RNTRAJ_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
#define RNTRAJ_NO_FP_CONTRACT
#endif

// GruOutput's forward over all rows. `c_stash` (may be null) receives the
// candidate state c for the backward.
RNTRAJ_NO_FP_CONTRACT void GruOutputRows(int n, int d, const float* xw,
                                         const float* bias, const float* zr,
                                         const float* hc, const float* h,
                                         const float* mask, float* c_stash,
                                         float* out) {
  for (int i = 0; i < n; ++i) {
    const float* xrow = xw + static_cast<size_t>(i) * 3 * d + 2 * d;
    const float* zrow = zr + static_cast<size_t>(i) * 2 * d;
    const size_t off = static_cast<size_t>(i) * d;
    for (int j = 0; j < d; ++j) {
      const float c = std::tanh((xrow[j] + bias[2 * d + j]) + hc[off + j]);
      const float z = zrow[j];
      const float hp = h[off + j];
      const float keep = (1.0f - z) * hp;
      const float take = z * c;
      float y = keep + take;
      if (mask) {
        const float moved = y * mask[i];
        const float frozen = hp * (1.0f - mask[i]);
        y = moved + frozen;
      }
      out[off + j] = y;
      if (c_stash) c_stash[off + j] = c;
    }
  }
}

// Accumulates the gradient of a gate pre-activation (xw + bias) + recurrent
// term into its three summands' grads, each already offset to the gate's
// columns of the row (null when that summand needs none).
struct GatePreGrads {
  float* xw;
  float* bias;
  float* recurrent;  // hw for z and r, hc for c
  void Accumulate(int j, float g) const {
    if (xw) xw[j] += g;
    if (bias) bias[j] += g;
    if (recurrent) recurrent[j] += g;
  }
};

}  // namespace

GruGateValues GruGates(const Tensor& xw, const Tensor& bias, const Tensor& hw,
                       const Tensor& h) {
  auto xi = xw.impl();
  auto bi = bias.impl();
  auto wi = hw.impl();
  auto hi = h.impl();
  const int d = GruWidth(*xi, *bi, *wi, *hi, "gru_gates");
  const int n = xi->shape[0];

  auto zr_all = internal::NewImplUninit({n, 2 * d});
  auto out = internal::NewImplUninit({n, d});
  const float* bv = bi->data.data();
  for (int i = 0; i < n; ++i) {
    const float* xrow = xi->data.data() + static_cast<size_t>(i) * 3 * d;
    const float* wrow = wi->data.data() + static_cast<size_t>(i) * 2 * d;
    const float* hrow = hi->data.data() + static_cast<size_t>(i) * d;
    float* zr = zr_all->data.data() + static_cast<size_t>(i) * 2 * d;
    float* rh = out->data.data() + static_cast<size_t>(i) * d;
    // z and r occupy the first 2d columns of both xw and hw.
    for (int j = 0; j < 2 * d; ++j) {
      zr[j] = ActForward((xrow[j] + bv[j]) + wrow[j], Act::kSigmoid, 0.0f);
    }
    for (int j = 0; j < d; ++j) rh[j] = zr[d + j] * hrow[j];
  }

  internal::AttachNode(
      "gru_gates", out, {xi, bi, wi, hi},
      [xi, bi, wi, hi, zr_all, n, d](const TensorImpl& o) {
        const bool need_x = xi->requires_grad;
        const bool need_b = bi->requires_grad;
        const bool need_w = wi->requires_grad;
        const bool need_h = hi->requires_grad;
        if (need_x) xi->EnsureGrad();
        if (need_b) bi->EnsureGrad();
        if (need_w) wi->EnsureGrad();
        if (need_h) hi->EnsureGrad();
        for (int i = 0; i < n; ++i) {
          const size_t off = static_cast<size_t>(i) * d;
          const float* g = o.grad.data() + off;
          const float* hrow = hi->data.data() + off;
          const float* r = zr_all->data.data() + 2 * off + d;
          const GatePreGrads pre{
              need_x ? xi->grad.data() + 3 * off + d : nullptr,
              need_b ? bi->grad.data() + d : nullptr,
              need_w ? wi->grad.data() + 2 * off + d : nullptr};
          for (int j = 0; j < d; ++j) {
            if (need_h) hi->grad[off + j] += g[j] * r[j];
            pre.Accumulate(
                j, g[j] * hrow[j] * ActBackward(r[j], Act::kSigmoid, 0.0f));
          }
        }
      });
  return {Tensor(out), Tensor(zr_all)};
}

Tensor GruOutput(const GruGateValues& gates, const Tensor& xw,
                 const Tensor& bias, const Tensor& hw, const Tensor& hc,
                 const Tensor& h, const Tensor& row_mask) {
  auto xi = xw.impl();
  auto bi = bias.impl();
  auto wi = hw.impl();
  auto ci = hc.impl();
  auto hi = h.impl();
  auto gi = gates.zr.impl();
  const int d = GruWidth(*xi, *bi, *wi, *hi, "gru_output");
  const int n = xi->shape[0];
  RNTRAJ_CHECK_MSG(ci->shape == hi->shape, "gru_output: hc must be (n, d)");
  RNTRAJ_CHECK_MSG(gi->shape == wi->shape,
                   "gru_output: gates do not match this cell");
  std::shared_ptr<TensorImpl> mi;
  if (row_mask.defined()) {
    mi = row_mask.impl();
    RNTRAJ_CHECK_MSG(!mi->requires_grad,
                     "gru_output: mask must not require grad");
    RNTRAJ_CHECK_MSG(static_cast<int>(mi->data.size()) == n,
                     "gru_output: need one mask entry per row");
  }

  const bool rec =
      GradModeEnabled() && internal::AnyRequiresGrad({xi, bi, wi, ci, hi});
  auto c_stash = rec ? internal::NewImplUninit({n, d}) : nullptr;
  auto out = internal::NewImplUninit({n, d});
  GruOutputRows(n, d, xi->data.data(), bi->data.data(), gi->data.data(),
                ci->data.data(), hi->data.data(),
                mi ? mi->data.data() : nullptr,
                c_stash ? c_stash->data.data() : nullptr, out->data.data());

  internal::AttachNode(
      "gru_output", out, {xi, bi, wi, ci, hi},
      [xi, bi, wi, ci, hi, gi, mi, c_stash, n, d](const TensorImpl& o) {
        const bool need_x = xi->requires_grad;
        const bool need_b = bi->requires_grad;
        const bool need_w = wi->requires_grad;
        const bool need_c = ci->requires_grad;
        const bool need_h = hi->requires_grad;
        if (need_x) xi->EnsureGrad();
        if (need_b) bi->EnsureGrad();
        if (need_w) wi->EnsureGrad();
        if (need_c) ci->EnsureGrad();
        if (need_h) hi->EnsureGrad();
        for (int i = 0; i < n; ++i) {
          const size_t off = static_cast<size_t>(i) * d;
          const float* g = o.grad.data() + off;
          const float m = mi ? mi->data[i] : 1.0f;
          // A frozen row passes its gradient straight to h.
          if (need_h && m != 1.0f) {
            for (int j = 0; j < d; ++j) hi->grad[off + j] += g[j] * (1.0f - m);
          }
          if (m == 0.0f) continue;
          const float* z = gi->data.data() + 2 * off;
          const float* c = c_stash->data.data() + off;
          const float* hrow = hi->data.data() + off;
          const GatePreGrads pre_z{
              need_x ? xi->grad.data() + 3 * off : nullptr,
              need_b ? bi->grad.data() : nullptr,
              need_w ? wi->grad.data() + 2 * off : nullptr};
          const GatePreGrads pre_c{
              need_x ? xi->grad.data() + 3 * off + 2 * d : nullptr,
              need_b ? bi->grad.data() + 2 * d : nullptr,
              need_c ? ci->grad.data() + off : nullptr};
          for (int j = 0; j < d; ++j) {
            const float gn = g[j] * m;
            if (need_h) hi->grad[off + j] += gn * (1.0f - z[j]);
            pre_z.Accumulate(j, gn * (c[j] - hrow[j]) *
                                    ActBackward(z[j], Act::kSigmoid, 0.0f));
            pre_c.Accumulate(j,
                             gn * z[j] * ActBackward(c[j], Act::kTanh, 0.0f));
          }
        }
      });
  return Tensor(out);
}

}  // namespace fusion
}  // namespace rntraj
