#include <algorithm>
#include <numeric>

#include "src/tensor/fast_math.h"
#include "src/tensor/gemm.h"
#include "src/tensor/op_helpers.h"
#include "src/tensor/ops.h"

/// \file ops_batched.cc
/// Batch-aware masked ops for the padded forward path (padded_batch.h):
/// block-diagonal GEMMs over the leading dim, length-masked softmax, masked
/// segment pooling and the ragged<->padded layout converters. Each op is
/// bit-identical to its per-sample counterpart on the same block (same
/// kernels, same accumulation order); the only rounding the batched forward
/// path introduces comes from fat same-weight GEMMs running at different
/// heights than their per-sample equivalents (FMA contraction in the
/// row-peel kernels), bounded by ~1e-6 in the encoder equivalence tests.

namespace rntraj {

namespace {

// Validates a (batch*m, k) x (batch*k_b, n) block structure; returns the
// per-block row counts through the out-params.
void CheckBlocks(const TensorImpl& a, const TensorImpl& b, int batch,
                 const char* op, int* m, int* k, int* bm, int* bn) {
  RNTRAJ_CHECK_MSG(a.shape.size() == 2 && b.shape.size() == 2,
                   op << ": rank-2 inputs required");
  RNTRAJ_CHECK_MSG(batch > 0 && a.shape[0] % batch == 0 &&
                       b.shape[0] % batch == 0,
                   op << ": rows " << a.shape[0] << "/" << b.shape[0]
                      << " not divisible by batch " << batch);
  *m = a.shape[0] / batch;
  *k = a.shape[1];
  *bm = b.shape[0] / batch;
  *bn = b.shape[1];
}

}  // namespace

Tensor BatchedMatmul(const Tensor& a, const Tensor& b, int batch) {
  auto ai = a.impl();
  auto bi = b.impl();
  int m, k, bk, n;
  CheckBlocks(*ai, *bi, batch, "batched_matmul", &m, &k, &bk, &n);
  RNTRAJ_CHECK_MSG(k == bk, "batched_matmul: inner dims " << k << " vs " << bk);

  auto out = internal::NewImpl({batch * m, n});
  for (int s = 0; s < batch; ++s) {
    internal::GemmAcc(ai->data.data() + static_cast<size_t>(s) * m * k,
                      bi->data.data() + static_cast<size_t>(s) * k * n,
                      out->data.data() + static_cast<size_t>(s) * m * n, m, k,
                      n);
  }

  internal::AttachNode(
      "batched_matmul", out, {ai, bi},
      [ai, bi, batch, m, k, n](const TensorImpl& o) {
        for (int s = 0; s < batch; ++s) {
          const float* ga = o.grad.data() + static_cast<size_t>(s) * m * n;
          if (ai->requires_grad) {
            ai->EnsureGrad();
            // dA(i) = dC(i) * B(i)^T
            internal::GemmTransBAcc(
                ga, bi->data.data() + static_cast<size_t>(s) * k * n,
                ai->grad.data() + static_cast<size_t>(s) * m * k, m, n, k);
          }
          if (bi->requires_grad) {
            bi->EnsureGrad();
            // dB(i) = A(i)^T * dC(i)
            internal::GemmTransAAcc(
                ai->data.data() + static_cast<size_t>(s) * m * k, ga,
                bi->grad.data() + static_cast<size_t>(s) * k * n, k, m, n);
          }
        }
      });
  return Tensor(out);
}

Tensor BatchedMatmulTransB(const Tensor& a, const Tensor& b, int batch) {
  auto ai = a.impl();
  auto bi = b.impl();
  int m, k, n, bk;
  CheckBlocks(*ai, *bi, batch, "batched_matmul_trans_b", &m, &k, &n, &bk);
  RNTRAJ_CHECK_MSG(k == bk,
                   "batched_matmul_trans_b: inner dims " << k << " vs " << bk);

  auto out = internal::NewImpl({batch * m, n});
  for (int s = 0; s < batch; ++s) {
    internal::GemmTransBAcc(ai->data.data() + static_cast<size_t>(s) * m * k,
                            bi->data.data() + static_cast<size_t>(s) * n * k,
                            out->data.data() + static_cast<size_t>(s) * m * n,
                            m, k, n);
  }

  internal::AttachNode(
      "batched_matmul_trans_b", out, {ai, bi},
      [ai, bi, batch, m, k, n](const TensorImpl& o) {
        for (int s = 0; s < batch; ++s) {
          const float* ga = o.grad.data() + static_cast<size_t>(s) * m * n;
          if (ai->requires_grad) {
            ai->EnsureGrad();
            // dA(i)(m,k) = dC(i)(m,n) * B(i)(n,k)
            internal::GemmAcc(ga,
                              bi->data.data() + static_cast<size_t>(s) * n * k,
                              ai->grad.data() + static_cast<size_t>(s) * m * k,
                              m, n, k);
          }
          if (bi->requires_grad) {
            bi->EnsureGrad();
            // dB(i)(n,k) = dC(i)(m,n)^T * A(i)(m,k)
            internal::GemmTransAAcc(
                ga, ai->data.data() + static_cast<size_t>(s) * m * k,
                bi->grad.data() + static_cast<size_t>(s) * n * k, n, m, k);
          }
        }
      });
  return Tensor(out);
}

Tensor AddBlockBroadcast(const Tensor& a, const Tensor& rows, int block) {
  auto ai = a.impl();
  auto ri = rows.impl();
  RNTRAJ_CHECK_MSG(ai->shape.size() == 2 && ri->shape.size() == 2,
                   "add_block_broadcast: rank-2 inputs required");
  const int d = ai->shape[1];
  const int batch = ri->shape[0];
  RNTRAJ_CHECK_MSG(block > 0 && ai->shape[0] == batch * block,
                   "add_block_broadcast: " << ai->shape[0] << " rows vs "
                                           << batch << "x" << block);
  RNTRAJ_CHECK_MSG(ri->shape[1] == d, "add_block_broadcast: width "
                                          << d << " vs rows of "
                                          << ri->shape[1]);

  auto out = internal::NewImplUninit(ai->shape);
  for (int s = 0; s < batch; ++s) {
    const float* v = ri->data.data() + static_cast<size_t>(s) * d;
    for (int r = 0; r < block; ++r) {
      const float* arow =
          ai->data.data() + (static_cast<size_t>(s) * block + r) * d;
      float* orow =
          out->data.data() + (static_cast<size_t>(s) * block + r) * d;
#pragma GCC ivdep
      for (int j = 0; j < d; ++j) orow[j] = arow[j] + v[j];
    }
  }

  internal::AttachNode(
      "add_block_broadcast", out, {ai, ri},
      [ai, ri, batch, block, d](const TensorImpl& o) {
        if (ai->requires_grad) {
          ai->EnsureGrad();
          float* ga = ai->grad.data();
          const float* g = o.grad.data();
#pragma GCC ivdep
          for (size_t i = 0; i < o.grad.size(); ++i) ga[i] += g[i];
        }
        if (ri->requires_grad) {
          ri->EnsureGrad();
          for (int s = 0; s < batch; ++s) {
            float* gv = ri->grad.data() + static_cast<size_t>(s) * d;
            for (int r = 0; r < block; ++r) {
              const float* grow =
                  o.grad.data() + (static_cast<size_t>(s) * block + r) * d;
#pragma GCC ivdep
              for (int j = 0; j < d; ++j) gv[j] += grow[j];
            }
          }
        }
      });
  return Tensor(out);
}

Tensor LengthMaskedSoftmaxRows(const Tensor& a, const std::vector<int>& valid) {
  auto ai = a.impl();
  RNTRAJ_CHECK(ai->shape.size() == 2);
  const int n = ai->shape[0];
  const int d = ai->shape[1];
  RNTRAJ_CHECK_MSG(static_cast<int>(valid.size()) == n,
                   "length_masked_softmax_rows: need one length per row");

  auto out = internal::NewImplUninit(ai->shape);
  for (int i = 0; i < n; ++i) {
    const int v = valid[i];
    RNTRAJ_CHECK_MSG(v >= 0 && v <= d, "length_masked_softmax_rows: valid "
                                           << v << " of " << d);
    const float* x = ai->data.data() + static_cast<size_t>(i) * d;
    float* y = out->data.data() + static_cast<size_t>(i) * d;
    if (v > 0) {
      // Same max/exp/normalise pipeline as SoftmaxRows, run on the prefix.
      const float mx = internal::RowMax(x, v);
      const float sum = internal::ExpRowMinusMax(x, y, v, mx);
      const float inv = 1.0f / sum;
#pragma GCC ivdep
      for (int j = 0; j < v; ++j) y[j] *= inv;
    }
    for (int j = v; j < d; ++j) y[j] = 0.0f;
  }

  internal::AttachNode(
      "length_masked_softmax_rows", out, {ai},
      [ai, valid, n, d](const TensorImpl& o) {
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
            ga[j] += (g[j] - static_cast<float>(dot)) * y[j];
          }
        }
      });
  return Tensor(out);
}

Tensor SegmentMeanRows(const Tensor& a, const std::vector<int>& sizes) {
  auto ai = a.impl();
  RNTRAJ_CHECK(ai->shape.size() == 2);
  const int d = ai->shape[1];
  const int num = static_cast<int>(sizes.size());
  RNTRAJ_CHECK(num > 0);
  int total = 0;
  for (int s : sizes) {
    RNTRAJ_CHECK_MSG(s > 0, "segment_mean_rows: empty segment");
    total += s;
  }
  RNTRAJ_CHECK_MSG(total == ai->shape[0], "segment_mean_rows: sizes cover "
                                              << total << " of "
                                              << ai->shape[0] << " rows");

  // Accumulate exactly like ColMean over each segment (float accumulator,
  // row-major order, one final scale) so the batched readout is bit-identical
  // to the per-sample ColMean it replaces.
  auto out = internal::NewImpl({num, d});
  int off = 0;
  for (int s = 0; s < num; ++s) {
    float* orow = out->data.data() + static_cast<size_t>(s) * d;
    for (int i = 0; i < sizes[s]; ++i) {
      const float* arow = ai->data.data() + static_cast<size_t>(off + i) * d;
#pragma GCC ivdep
      for (int j = 0; j < d; ++j) orow[j] += arow[j];
    }
    const float scale = 1.0f / static_cast<float>(sizes[s]);
#pragma GCC ivdep
    for (int j = 0; j < d; ++j) orow[j] *= scale;
    off += sizes[s];
  }

  internal::AttachNode(
      "segment_mean_rows", out, {ai}, [ai, sizes, d](const TensorImpl& o) {
        if (!ai->requires_grad) return;
        ai->EnsureGrad();
        int off = 0;
        for (size_t s = 0; s < sizes.size(); ++s) {
          const float scale = 1.0f / static_cast<float>(sizes[s]);
          const float* grow = o.grad.data() + s * d;
          for (int i = 0; i < sizes[s]; ++i) {
            float* ga = ai->grad.data() + static_cast<size_t>(off + i) * d;
#pragma GCC ivdep
            for (int j = 0; j < d; ++j) ga[j] += grow[j] * scale;
          }
          off += sizes[s];
        }
      });
  return Tensor(out);
}

Tensor PadRows(const Tensor& a, const std::vector<int>& sizes, int pad_to) {
  auto ai = a.impl();
  RNTRAJ_CHECK(ai->shape.size() == 2);
  const int d = ai->shape[1];
  const int num = static_cast<int>(sizes.size());
  RNTRAJ_CHECK(num > 0 && pad_to > 0);
  int total = 0;
  for (int s : sizes) {
    RNTRAJ_CHECK_MSG(s > 0 && s <= pad_to,
                     "pad_rows: segment " << s << " vs pad " << pad_to);
    total += s;
  }
  RNTRAJ_CHECK_MSG(total == ai->shape[0],
                   "pad_rows: sizes cover " << total << " of " << ai->shape[0]
                                            << " rows");

  auto out = internal::NewImpl({num * pad_to, d});
  int off = 0;
  for (int s = 0; s < num; ++s) {
    std::copy(ai->data.begin() + static_cast<size_t>(off) * d,
              ai->data.begin() + static_cast<size_t>(off + sizes[s]) * d,
              out->data.begin() + static_cast<size_t>(s) * pad_to * d);
    off += sizes[s];
  }

  internal::AttachNode(
      "pad_rows", out, {ai}, [ai, sizes, pad_to, d](const TensorImpl& o) {
        if (!ai->requires_grad) return;
        ai->EnsureGrad();
        int off = 0;
        for (size_t s = 0; s < sizes.size(); ++s) {
          const float* g = o.grad.data() + s * pad_to * d;
          float* ga = ai->grad.data() + static_cast<size_t>(off) * d;
          const size_t count = static_cast<size_t>(sizes[s]) * d;
#pragma GCC ivdep
          for (size_t i = 0; i < count; ++i) ga[i] += g[i];
          off += sizes[s];
        }
      });
  return Tensor(out);
}

Tensor UnpadRows(const Tensor& a, const std::vector<int>& sizes, int pad_to) {
  auto ai = a.impl();
  RNTRAJ_CHECK(ai->shape.size() == 2);
  const int d = ai->shape[1];
  const int num = static_cast<int>(sizes.size());
  RNTRAJ_CHECK(num > 0 && pad_to > 0);
  RNTRAJ_CHECK_MSG(ai->shape[0] == num * pad_to,
                   "unpad_rows: " << ai->shape[0] << " rows vs " << num << "x"
                                  << pad_to);
  int total = 0;
  for (int s : sizes) {
    RNTRAJ_CHECK_MSG(s > 0 && s <= pad_to,
                     "unpad_rows: segment " << s << " vs pad " << pad_to);
    total += s;
  }

  auto out = internal::NewImplUninit({total, d});
  int off = 0;
  for (int s = 0; s < num; ++s) {
    std::copy(ai->data.begin() + static_cast<size_t>(s) * pad_to * d,
              ai->data.begin() +
                  (static_cast<size_t>(s) * pad_to + sizes[s]) * d,
              out->data.begin() + static_cast<size_t>(off) * d);
    off += sizes[s];
  }

  internal::AttachNode(
      "unpad_rows", out, {ai}, [ai, sizes, pad_to, d](const TensorImpl& o) {
        if (!ai->requires_grad) return;
        ai->EnsureGrad();
        int off = 0;
        for (size_t s = 0; s < sizes.size(); ++s) {
          const float* g = o.grad.data() + static_cast<size_t>(off) * d;
          float* ga = ai->grad.data() + s * pad_to * d;
          const size_t count = static_cast<size_t>(sizes[s]) * d;
#pragma GCC ivdep
          for (size_t i = 0; i < count; ++i) ga[i] += g[i];
          off += sizes[s];
        }
      });
  return Tensor(out);
}

}  // namespace rntraj
