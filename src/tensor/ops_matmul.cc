#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__AVX512F__) || defined(__FMA__)
#include <immintrin.h>
#endif

#include "src/common/thread_pool.h"
#include "src/tensor/gemm.h"
#include "src/tensor/op_helpers.h"
#include "src/tensor/ops.h"

namespace rntraj {

namespace {

// Register-blocked GEMM. All three variants (plain, A-transposed,
// B-transposed) funnel into one micro-kernel that accumulates an MR x NR tile
// of C in registers over a KC-deep slice of the inner dimension:
//
//   - MR x NR = 8 x 32. Under AVX-512 the tile is 16 accumulator registers
//     of 16 floats, and each k-step costs two B row loads and eight A
//     broadcasts for 16 FMAs. Under AVX2 it wants 32 of the 16 ymm registers
//     and spills half; shorter tiles measured no faster there.
//   - The kernel always computes all NR columns and stores the first nr, so
//     every tile runs at full vector width. The model's widths (d = 24,
//     head width 8, 270 or 848 segments) leave a partial tile on almost
//     every product; its B columns come from a copy zero-padded to NR wide,
//     packed once per call into a per-thread buffer.
//   - The B-transposed variant packs all of B^T that way, so it runs the
//     same sweep as the plain product.
//   - The A-transposed variant reads A columns, which are contiguous per
//     k-step (k-major access), so it needs no packing of A.
//   - KC bounds the panel working set so the A/B slices stay cache-resident
//     for the whole tile sweep.
//   - FMA is explicit (MulAdd below), so a C element's rounding depends only
//     on its row of A and column of B, never on where it falls in the tile
//     grid.
//
// Measured on one core of a 4-core Xeon (Emerald Rapids, -march=native):
// the (270,24)x(24,24) forward takes 6.3 us (50 GFLOP/s) in BM_MatmulShape.
// BENCHMARKS.md ("Full-width GEMM tiles") has every model shape under
// -march=native and x86-64-v3.
constexpr int MR = 8;
constexpr int NR = 32;
constexpr int KC = 256;

// Below this many flops (2*n*k*m) a GEMM is not worth a trip through the
// thread pool.
constexpr int64_t kParallelFlopThreshold = int64_t{1} << 21;

// One vector register of floats at the widest width the target has; an
// NR-wide tile row is NV of them. GCC lowers the vector extension to plain
// SIMD registers, so the accumulators stay out of memory between k-steps
// (bar the AVX2 spills above).
#if defined(__AVX512F__)
constexpr int VW = 16;
#elif defined(__AVX__)
constexpr int VW = 8;
#else
constexpr int VW = 4;
#endif
using Vec = float __attribute__((vector_size(VW * sizeof(float))));
constexpr int NV = NR / VW;

inline Vec LoadVec(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreVec(float* p, Vec v) { std::memcpy(p, &v, sizeof(v)); }

// {s, s, ..., s}, written as one vector constructor so that it compiles to a
// single broadcast (folded into the FMA's memory operand under AVX-512).
template <size_t... Lane>
inline Vec SplatLanes(float s, std::index_sequence<Lane...>) {
  return Vec{(static_cast<void>(Lane), s)...};
}

inline Vec Splat(float s) {
  return SplatLanes(s, std::make_index_sequence<VW>());
}

// acc + x * y per lane, rounded once where the target has FMA: the vector
// form of internal::MulAdd. Spelled out rather than left to contraction, so
// no tile shape can end up with a separate multiply and add.
inline Vec MulAdd(Vec x, Vec y, Vec acc) {
#if defined(__AVX512F__)
  return _mm512_fmadd_ps(x, y, acc);
#elif defined(__FMA__)
  return _mm256_fmadd_ps(x, y, acc);
#else
  return acc + x * y;
#endif
}

// C(tile) += A(panel) * B(panel) for an AR x nr (nr <= NR) tile over kc
// steps; b must hold NR readable columns per k-step. KMajorA=false reads
// A(i,p) at a[i*lda + p] (row-major panel); KMajorA=true reads A(i,p) at
// a[p*lda + i] (k-major: the A^T product, where per k-step the AR values are
// contiguous).
template <int AR, bool KMajorA>
inline void MicroKernel(const float* a, int lda, const float* b, int ldb,
                        float* c, int ldc, int kc, int nr) {
  // The tile loops are unrolled in full so that every accumulator index is a
  // constant and the whole tile lives in registers.
  Vec acc[AR][NV] = {};
  for (int p = 0; p < kc; ++p) {
    const float* brow = b + static_cast<size_t>(p) * ldb;
    Vec bv[NV];
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) bv[v] = LoadVec(brow + v * VW);
#pragma GCC unroll 8
    for (int i = 0; i < AR; ++i) {
      const Vec av = Splat(KMajorA ? a[static_cast<size_t>(p) * lda + i]
                                   : a[static_cast<size_t>(i) * lda + p]);
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) acc[i][v] = MulAdd(av, bv[v], acc[i][v]);
    }
  }
  if (nr == NR) {
#pragma GCC unroll 8
    for (int i = 0; i < AR; ++i) {
      float* crow = c + static_cast<size_t>(i) * ldc;
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) {
        StoreVec(crow + v * VW, LoadVec(crow + v * VW) + acc[i][v]);
      }
    }
    return;
  }
  // A partial tile is stored through a stack copy: a runtime-width loop over
  // the accumulators themselves would pin them to memory for the k sweep.
  float part[AR][NR];
#pragma GCC unroll 8
  for (int i = 0; i < AR; ++i) {
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) StoreVec(part[i] + v * VW, acc[i][v]);
  }
  for (int i = 0; i < AR; ++i) {
    float* crow = c + static_cast<size_t>(i) * ldc;
    for (int j = 0; j < nr; ++j) crow[j] += part[i][j];
  }
}

// Sweeps C rows [i0, i1) of one (kc x nr) panel product, peeling the row
// remainder through shorter tiles.
template <bool KMajorA>
inline void TileRows(const float* a, int lda, const float* b, int ldb,
                     float* c, int ldc, int kc, int nr, int i0, int i1) {
  // A element (i, p) sits at a[i*lda + p] (row-major) or a[p*lda + i]
  // (k-major): advancing `i` rows moves by i*lda resp. i.
  const auto arow = [&](int i) {
    return KMajorA ? a + i : a + static_cast<size_t>(i) * lda;
  };
  int i = i0;
  for (; i + MR <= i1; i += MR) {
    MicroKernel<MR, KMajorA>(arow(i), lda, b, ldb,
                             c + static_cast<size_t>(i) * ldc, ldc, kc, nr);
  }
  for (; i + 4 <= i1; i += 4) {
    MicroKernel<4, KMajorA>(arow(i), lda, b, ldb,
                            c + static_cast<size_t>(i) * ldc, ldc, kc, nr);
  }
  for (; i < i1; ++i) {
    MicroKernel<1, KMajorA>(arow(i), lda, b, ldb,
                            c + static_cast<size_t>(i) * ldc, ldc, kc, nr);
  }
}

// Where the sweep reads B(k, m)'s NR-wide column tiles. Tiles before
// `first_packed` are read in place (row stride ldb); tile t >= first_packed
// is a contiguous, zero-padded (k x NR) block at
// packed + (t - first_packed) * k * NR.
struct BTiles {
  const float* b;
  int ldb;
  const float* packed;
  int first_packed;
};

// The calling thread's packing buffer, grown to the largest B seen and
// reused. The workers of a parallel sweep only read it while its owner
// waits in ParallelFor, which runs no other job on that thread.
float* PackBuffer(size_t floats) {
  thread_local std::vector<float> buffer;
  if (buffer.size() < floats) buffer.resize(floats);
  return buffer.data();
}

// C rows [i0, i1) of C(n,m) += op(A) * B.
// KMajorA=false: A is (n,k) row-major (lda = k).
// KMajorA=true:  the product A^T * B with A stored (k,n) row-major (lda = n).
template <bool KMajorA>
void GemmRowRange(const float* a, int lda, const BTiles& bt, float* c, int k,
                  int m, int i0, int i1) {
  for (int p0 = 0; p0 < k; p0 += KC) {
    const int kc = std::min(KC, k - p0);
    const float* apanel = KMajorA ? a + static_cast<size_t>(p0) * lda : a + p0;
    for (int t = 0, j0 = 0; j0 < m; ++t, j0 += NR) {
      const int nr = std::min(NR, m - j0);
      if (t < bt.first_packed) {
        TileRows<KMajorA>(apanel, lda,
                          bt.b + static_cast<size_t>(p0) * bt.ldb + j0, bt.ldb,
                          c + j0, m, kc, nr, i0, i1);
      } else {
        const float* tile = bt.packed +
                            static_cast<size_t>(t - bt.first_packed) * k * NR +
                            static_cast<size_t>(p0) * NR;
        TileRows<KMajorA>(apanel, lda, tile, NR, c + j0, m, kc, nr, i0, i1);
      }
    }
  }
}

// Splits the C row range over the global thread pool when the problem is
// large enough; each worker owns disjoint C rows, so no synchronisation.
template <bool KMajorA>
void GemmParallel(const float* a, int lda, const BTiles& bt, float* c, int n,
                  int k, int m) {
  const int64_t flops = int64_t{2} * n * k * m;
  if (flops < kParallelFlopThreshold) {
    GemmRowRange<KMajorA>(a, lda, bt, c, k, m, 0, n);
    return;
  }
  ParallelFor(0, n, MR, [&](int64_t i0, int64_t i1) {
    GemmRowRange<KMajorA>(a, lda, bt, c, k, m, static_cast<int>(i0),
                          static_cast<int>(i1));
  });
}

// op(A) * B with B (k,m) row-major: full tiles are read in place and only
// the last, partial one is packed.
template <bool KMajorA>
void GemmRowMajorB(const float* a, int lda, const float* b, float* c, int n,
                   int k, int m) {
  BTiles bt{b, m, nullptr, m / NR};
  const int j0 = bt.first_packed * NR;
  const int nr = m - j0;
  if (nr > 0) {
    float* pack = PackBuffer(static_cast<size_t>(k) * NR);
    for (int p = 0; p < k; ++p) {
      const float* src = b + static_cast<size_t>(p) * m + j0;
      float* dst = pack + static_cast<size_t>(p) * NR;
      for (int j = 0; j < NR; ++j) dst[j] = j < nr ? src[j] : 0.0f;
    }
    bt.packed = pack;
  }
  GemmParallel<KMajorA>(a, lda, bt, c, n, k, m);
}

}  // namespace

// The three accumulate entry points are shared with the batched ops
// (ops_batched.cc) through gemm.h; everything above stays file-local.
namespace internal {

// C(n,m) += A(n,k) * B(k,m); all row-major.
void GemmAcc(const float* a, const float* b, float* c, int n, int k, int m) {
  GemmRowMajorB<false>(a, /*lda=*/k, b, c, n, k, m);
}

// C(n,m) += A(k,n)^T * B(k,m).
void GemmTransAAcc(const float* a, const float* b, float* c, int n, int k,
                   int m) {
  GemmRowMajorB<true>(a, /*lda=*/n, b, c, n, k, m);
}

// C(n,m) += A(n,k) * B(m,k)^T. B^T tiles are strided in memory, so every
// NR-wide tile of B^T is packed (the last one zero-padded) once per call and
// reused for every row block of A.
void GemmTransBAcc(const float* a, const float* b, float* c, int n, int k,
                   int m) {
  const int tiles = (m + NR - 1) / NR;
  float* pack = PackBuffer(static_cast<size_t>(tiles) * k * NR);
  for (int t = 0; t < tiles; ++t) {
    const int j0 = t * NR;
    const int nr = std::min(NR, m - j0);
    // tile(p, j) = B(j0+j, p): transpose an (nr x k) block of B, writing
    // the tile in order while reading nr rows of B side by side.
    const float* bcol = b + static_cast<size_t>(j0) * k;
    float* dst = pack + static_cast<size_t>(t) * k * NR;
    for (int p = 0; p < k; ++p, dst += NR) {
      for (int j = 0; j < NR; ++j) {
        dst[j] = j < nr ? bcol[static_cast<size_t>(j) * k + p] : 0.0f;
      }
    }
  }
  GemmParallel<false>(a, /*lda=*/k, BTiles{nullptr, 0, pack, 0}, c, n, k, m);
}

}  // namespace internal

namespace {
using internal::GemmAcc;
using internal::GemmTransAAcc;
using internal::GemmTransBAcc;
}  // namespace

Tensor Matmul(const Tensor& a, const Tensor& b) {
  auto ai = a.impl();
  auto bi = b.impl();
  RNTRAJ_CHECK_MSG(bi->shape.size() == 2, "matmul: b must be rank-2");
  const bool a_was_vec = ai->shape.size() == 1;
  const int n = a_was_vec ? 1 : ai->shape[0];
  const int k = a_was_vec ? ai->shape[0] : ai->shape[1];
  RNTRAJ_CHECK_MSG(k == bi->shape[0], "matmul: inner dims " << k << " vs "
                                                            << bi->shape[0]);
  const int m = bi->shape[1];

  auto out = internal::NewImpl(a_was_vec ? std::vector<int>{m}
                                         : std::vector<int>{n, m});
  GemmAcc(ai->data.data(), bi->data.data(), out->data.data(), n, k, m);

  internal::AttachNode(
      "matmul", out, {ai, bi}, [ai, bi, n, k, m](const TensorImpl& o) {
        if (ai->requires_grad) {
          ai->EnsureGrad();
          // dA = dC * B^T
          GemmTransBAcc(o.grad.data(), bi->data.data(), ai->grad.data(), n, m, k);
        }
        if (bi->requires_grad) {
          bi->EnsureGrad();
          // dB = A^T * dC
          GemmTransAAcc(ai->data.data(), o.grad.data(), bi->grad.data(), k, n, m);
        }
      });
  return Tensor(out);
}

Tensor MatmulTransB(const Tensor& a, const Tensor& b) {
  auto ai = a.impl();
  auto bi = b.impl();
  RNTRAJ_CHECK_MSG(ai->shape.size() == 2 && bi->shape.size() == 2,
                   "matmul_trans_b: rank-2 inputs required");
  const int n = ai->shape[0];
  const int k = ai->shape[1];
  const int m = bi->shape[0];
  RNTRAJ_CHECK_MSG(k == bi->shape[1], "matmul_trans_b: inner dims "
                                          << k << " vs " << bi->shape[1]);

  auto out = internal::NewImpl({n, m});
  GemmTransBAcc(ai->data.data(), bi->data.data(), out->data.data(), n, k, m);

  internal::AttachNode(
      "matmul_trans_b", out, {ai, bi}, [ai, bi, n, k, m](const TensorImpl& o) {
        if (ai->requires_grad) {
          ai->EnsureGrad();
          // dA(n,k) = dC(n,m) * B(m,k)
          GemmAcc(o.grad.data(), bi->data.data(), ai->grad.data(), n, m, k);
        }
        if (bi->requires_grad) {
          bi->EnsureGrad();
          // dB(m,k) = dC(n,m)^T * A(n,k)
          GemmTransAAcc(o.grad.data(), ai->data.data(), bi->grad.data(), m, n, k);
        }
      });
  return Tensor(out);
}

Tensor Transpose(const Tensor& a) {
  auto ai = a.impl();
  RNTRAJ_CHECK_MSG(ai->shape.size() == 2, "transpose: rank-2 required");
  const int n = ai->shape[0];
  const int m = ai->shape[1];
  auto out = internal::NewImplUninit({m, n});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      out->data[static_cast<size_t>(j) * n + i] =
          ai->data[static_cast<size_t>(i) * m + j];
    }
  }
  internal::AttachNode("transpose", out, {ai}, [ai, n, m](const TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        ai->grad[static_cast<size_t>(i) * m + j] +=
            o.grad[static_cast<size_t>(j) * n + i];
      }
    }
  });
  return Tensor(out);
}

}  // namespace rntraj
