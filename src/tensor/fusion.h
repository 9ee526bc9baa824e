#ifndef RNTRAJ_TENSOR_FUSION_H_
#define RNTRAJ_TENSOR_FUSION_H_

#include <vector>

#include "src/tensor/tensor.h"

/// \file fusion.h
/// The fused elementwise kernels of the forward path. The autograd tape here
/// is eager — ops execute as they are recorded — so fusion happens at
/// op-emission time: nn layers emit their hot chains through the fusion::
/// entry points below, and each entry point runs ONE fused kernel (single
/// pass over the output, handwritten backward, no intermediate tensors) in
/// place of the generic-op chain it names. There is no unfused mode; the
/// generic chains survive only as the reference the op tests compare
/// against (tests/fusion_test.cc), agreeing within FMA rounding (~1e-6), or
/// bit for bit where noted.
///
/// Fused patterns (each verified by gradcheck):
///   * bias+activation        — Linear -> Relu/LeakyRelu/Sigmoid/Tanh, with
///                              row-broadcast, same-shape or absent bias;
///   * residual-add+LayerNorm — the masked padded-batch post-norm transformer
///                              sub-layer (padding rows stay exactly zero);
///   * scale+length-masked softmax — the padded-batch attention scores;
///   * scale+shift rows       — the GraphNorm affine tail (gamma/beta row
///                              broadcast) in one pass;
///   * GRU cell               — the 18 elementwise ops around a GRU step's
///                              three GEMMs as two kernels (gates before the
///                              wh_c GEMM, candidate + blend after it), with
///                              an optional per-row freeze mask; forward
///                              bit-identical to the chain.
///
/// Stage attribution: fused kernels are emitted from the call sites of the
/// chains they name, inside the same obs::ScopedStage scopes, so the stage
/// profiler bills them to the layer that owns them.

namespace rntraj {
namespace fusion {

/// Activation applied by the fused bias+activation kernel.
enum class Act { kIdentity, kRelu, kLeakyRelu, kSigmoid, kTanh };

/// act(x + bias). `bias` may be undefined (pure activation), a row vector
/// ((d) or (1,d), broadcast over x's rows — the Linear bias pattern), or
/// x-shaped (elementwise — the GRL gate pattern). Generic chain:
/// Act(Add(x, bias)) / Act(x).
Tensor BiasAct(const Tensor& x, const Tensor& bias, Act act,
               float leaky_slope = 0.2f);

/// Mul(LayerNorm(a + b), row_mask) with learned scale/shift: the post-norm
/// residual sub-layer of a padded batch in one kernel (one pass computes the
/// sum, row statistics and the affine output; the backward replays the
/// standard LayerNorm gradient from stashed per-row mu/inv-std). gamma/beta
/// are rank-1 (d). Rows whose `row_mask` entry ((n,1) or rank-1 (n), no
/// grad) is zero produce exactly-zero output rows and contribute no
/// gradient, so the all-padding-rows-are-zero invariant survives the affine
/// shift beta.
Tensor ResidualLayerNorm(const Tensor& a, const Tensor& b,
                         const Tensor& gamma, const Tensor& beta, float eps,
                         const Tensor& row_mask);

/// Row i is the softmax of scale * its first valid[i] entries, the rest
/// zero (rows with valid[i] == 0 zero outright). Generic chain:
/// LengthMaskedSoftmaxRows(MulScalar(a, scale), valid).
Tensor ScaleLengthMaskedSoftmax(const Tensor& a, float scale,
                                const std::vector<int>& valid);

/// a * gamma + beta with rank-1 (d) gamma/beta broadcast over rows (the
/// normalisation affine tail). Generic chain: Add(Mul(a, gamma), beta).
Tensor ScaleShiftRows(const Tensor& a, const Tensor& gamma,
                      const Tensor& beta);

/// The gate values of one fused GRU step (see GruGates).
struct GruGateValues {
  Tensor rh;     ///< r * h (n, d): the wh_c GEMM's input; carries the node.
  Tensor zr;  ///< [z | r] (n, 2d), no grad: read by GruOutput and both
              ///< backwards.
};

/// First half of a GRU step (paper Eq. (1)) with hidden width d: from the
/// bias-free input projection xw = x W_x (n, 3d, gate columns [z | r | c]),
/// the bias (3d) and the recurrent projection hw = h W_zr (n, 2d), computes
/// z = sigmoid((xw_z + b_z) + hw_z), r likewise, and rh = r * h. Generic
/// chain: xb = Add(xw, bias); z = Sigmoid(Add(SliceCols(xb, 0, d),
/// SliceCols(hw, 0, d))); r = Sigmoid(Add(SliceCols(xb, d, d),
/// SliceCols(hw, d, d))); rh = Mul(r, h).
GruGateValues GruGates(const Tensor& xw, const Tensor& bias, const Tensor& hw,
                       const Tensor& h);

/// Second half of a GRU step: with hc = rh W_c (n, d), computes
/// c = tanh((xw_c + b_c) + hc) and h' = (1 - z) * h + z * c. With a row_mask
/// ((n,1) or (n), no grad) row i becomes h'_i m_i + h_i (1 - m_i), which
/// freezes finished sequences at m_i = 0. Generic chain: c =
/// Tanh(Add(SliceCols(xb, 2d, d), hc)); h' = Add(Mul(AddScalar(Neg(z), 1), h),
/// Mul(z, c)); masked: Add(Mul(h', m), Mul(h, AddScalar(Neg(m), 1))). The
/// forward is bit-identical to that chain.
Tensor GruOutput(const GruGateValues& gates, const Tensor& xw,
                 const Tensor& bias, const Tensor& hw, const Tensor& hc,
                 const Tensor& h, const Tensor& row_mask = Tensor());

}  // namespace fusion
}  // namespace rntraj

#endif  // RNTRAJ_TENSOR_FUSION_H_
