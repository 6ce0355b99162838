// AVX-512 GEMM microkernels. This file is the only translation unit
// compiled with -mavx512f (see src/nn/CMakeLists.txt) so the AVX2 and
// scalar paths never pick up EVEX encodings. It is also compiled with
// -ffp-contract=off, which here is not optional hygiene: 512-bit FMA is
// part of AVX512F itself (no -mfma needed), so without that flag the
// compiler may contract the mul+add intrinsic pairs below into vfmadd
// and change rounding, breaking the repo-wide bit-parity contracts.
// _mm512_mul_ps + _mm512_add_ps reproduce the scalar sequence exactly,
// lane by lane.
//
// Same column-strip-outer loop order as the AVX2 file: one 16/32-column
// strip of `b` stays hot in L1 while every output row block accumulates
// against it, and output tiles live in registers from first product to
// final store.
#include "nn/simd_gemm.h"

#include <cstddef>

#include "common/check.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace lead::nn::internal {

#if defined(__AVX512F__)

bool GemmAvx512Available() {
  static const bool supported = __builtin_cpu_supports("avx512f") != 0;
  return supported;
}

namespace {

// How a kernel combines its product with the existing output:
//   kOverwrite:  out = (((0 + a_i0 b_0j) + a_i1 b_1j) + ...)
//   kAccumulate: out = (((out + a_i0 b_0j) + a_i1 b_1j) + ...)
//   kAddProduct: out = out + (((0 + a_i0 b_0j) + a_i1 b_1j) + ...)
// kOverwrite is bit-identical to accumulating into a zero-filled buffer,
// minus the fill and reload; kAddProduct is the input-gradient rounding
// (simd_gemm.h).
enum class Mode { kOverwrite, kAccumulate, kAddProduct };

template <Mode kMode>
__m512 LoadTile(const float* o) {
  if constexpr (kMode == Mode::kAccumulate) return _mm512_loadu_ps(o);
  return _mm512_setzero_ps();
}

template <Mode kMode>
void StoreTile(float* o, __m512 c) {
  if constexpr (kMode == Mode::kAddProduct) {
    c = _mm512_add_ps(_mm512_loadu_ps(o), c);
  }
  _mm512_storeu_ps(o, c);
}

template <Mode kMode>
float LoadScalar(const float* o) {
  if constexpr (kMode == Mode::kAccumulate) return *o;
  return 0.0f;
}

template <Mode kMode>
void StoreScalar(float* o, float c) {
  if constexpr (kMode == Mode::kAddProduct) c = *o + c;
  *o = c;
}

template <Mode kMode>
void GemmAvx512Impl(const float* a, const float* b, float* out, int m, int k,
                  int n) {
  auto row_of = [](const float* base, int r, int stride) {
    return base + static_cast<size_t>(r) * static_cast<size_t>(stride);
  };
  int j = 0;
  for (; j + 32 <= n; j += 32) {
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* a0 = row_of(a, i, k);
      const float* a1 = row_of(a, i + 1, k);
      const float* a2 = row_of(a, i + 2, k);
      const float* a3 = row_of(a, i + 3, k);
      float* o0 = out + static_cast<size_t>(i) * static_cast<size_t>(n) + j;
      float* o1 = o0 + n;
      float* o2 = o1 + n;
      float* o3 = o2 + n;
      __m512 c00 = LoadTile<kMode>(o0);
      __m512 c01 = LoadTile<kMode>(o0 + 16);
      __m512 c10 = LoadTile<kMode>(o1);
      __m512 c11 = LoadTile<kMode>(o1 + 16);
      __m512 c20 = LoadTile<kMode>(o2);
      __m512 c21 = LoadTile<kMode>(o2 + 16);
      __m512 c30 = LoadTile<kMode>(o3);
      __m512 c31 = LoadTile<kMode>(o3 + 16);
      const float* bp = b + j;
      for (int p = 0; p < k; ++p, bp += n) {
        const __m512 b0 = _mm512_loadu_ps(bp);
        const __m512 b1 = _mm512_loadu_ps(bp + 16);
        __m512 va = _mm512_set1_ps(a0[p]);
        c00 = _mm512_add_ps(c00, _mm512_mul_ps(va, b0));
        c01 = _mm512_add_ps(c01, _mm512_mul_ps(va, b1));
        va = _mm512_set1_ps(a1[p]);
        c10 = _mm512_add_ps(c10, _mm512_mul_ps(va, b0));
        c11 = _mm512_add_ps(c11, _mm512_mul_ps(va, b1));
        va = _mm512_set1_ps(a2[p]);
        c20 = _mm512_add_ps(c20, _mm512_mul_ps(va, b0));
        c21 = _mm512_add_ps(c21, _mm512_mul_ps(va, b1));
        va = _mm512_set1_ps(a3[p]);
        c30 = _mm512_add_ps(c30, _mm512_mul_ps(va, b0));
        c31 = _mm512_add_ps(c31, _mm512_mul_ps(va, b1));
      }
      StoreTile<kMode>(o0, c00);
      StoreTile<kMode>(o0 + 16, c01);
      StoreTile<kMode>(o1, c10);
      StoreTile<kMode>(o1 + 16, c11);
      StoreTile<kMode>(o2, c20);
      StoreTile<kMode>(o2 + 16, c21);
      StoreTile<kMode>(o3, c30);
      StoreTile<kMode>(o3 + 16, c31);
    }
    for (; i < m; ++i) {
      const float* ai = row_of(a, i, k);
      float* oi = out + static_cast<size_t>(i) * static_cast<size_t>(n) + j;
      __m512 c0 = LoadTile<kMode>(oi);
      __m512 c1 = LoadTile<kMode>(oi + 16);
      const float* bp = b + j;
      for (int p = 0; p < k; ++p, bp += n) {
        const __m512 va = _mm512_set1_ps(ai[p]);
        c0 = _mm512_add_ps(c0, _mm512_mul_ps(va, _mm512_loadu_ps(bp)));
        c1 = _mm512_add_ps(c1, _mm512_mul_ps(va, _mm512_loadu_ps(bp + 16)));
      }
      StoreTile<kMode>(oi, c0);
      StoreTile<kMode>(oi + 16, c1);
    }
  }
  for (; j + 16 <= n; j += 16) {
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* a0 = row_of(a, i, k);
      const float* a1 = row_of(a, i + 1, k);
      const float* a2 = row_of(a, i + 2, k);
      const float* a3 = row_of(a, i + 3, k);
      float* o0 = out + static_cast<size_t>(i) * static_cast<size_t>(n) + j;
      float* o1 = o0 + n;
      float* o2 = o1 + n;
      float* o3 = o2 + n;
      __m512 c0 = LoadTile<kMode>(o0);
      __m512 c1 = LoadTile<kMode>(o1);
      __m512 c2 = LoadTile<kMode>(o2);
      __m512 c3 = LoadTile<kMode>(o3);
      const float* bp = b + j;
      for (int p = 0; p < k; ++p, bp += n) {
        const __m512 bv = _mm512_loadu_ps(bp);
        c0 = _mm512_add_ps(c0, _mm512_mul_ps(_mm512_set1_ps(a0[p]), bv));
        c1 = _mm512_add_ps(c1, _mm512_mul_ps(_mm512_set1_ps(a1[p]), bv));
        c2 = _mm512_add_ps(c2, _mm512_mul_ps(_mm512_set1_ps(a2[p]), bv));
        c3 = _mm512_add_ps(c3, _mm512_mul_ps(_mm512_set1_ps(a3[p]), bv));
      }
      StoreTile<kMode>(o0, c0);
      StoreTile<kMode>(o1, c1);
      StoreTile<kMode>(o2, c2);
      StoreTile<kMode>(o3, c3);
    }
    for (; i < m; ++i) {
      const float* ai = row_of(a, i, k);
      float* oi = out + static_cast<size_t>(i) * static_cast<size_t>(n) + j;
      __m512 c = LoadTile<kMode>(oi);
      const float* bp = b + j;
      for (int p = 0; p < k; ++p, bp += n) {
        c = _mm512_add_ps(c, _mm512_mul_ps(_mm512_set1_ps(ai[p]),
                                           _mm512_loadu_ps(bp)));
      }
      StoreTile<kMode>(oi, c);
    }
  }
  for (; j < n; ++j) {
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* a0 = row_of(a, i, k);
      const float* a1 = row_of(a, i + 1, k);
      const float* a2 = row_of(a, i + 2, k);
      const float* a3 = row_of(a, i + 3, k);
      float* o0 = out + static_cast<size_t>(i) * static_cast<size_t>(n) + j;
      float* o1 = o0 + n;
      float* o2 = o1 + n;
      float* o3 = o2 + n;
      float c0 = LoadScalar<kMode>(o0);
      float c1 = LoadScalar<kMode>(o1);
      float c2 = LoadScalar<kMode>(o2);
      float c3 = LoadScalar<kMode>(o3);
      const float* bp = b + j;
      for (int p = 0; p < k; ++p, bp += n) {
        const float bj = *bp;
        c0 += a0[p] * bj;
        c1 += a1[p] * bj;
        c2 += a2[p] * bj;
        c3 += a3[p] * bj;
      }
      StoreScalar<kMode>(o0, c0);
      StoreScalar<kMode>(o1, c1);
      StoreScalar<kMode>(o2, c2);
      StoreScalar<kMode>(o3, c3);
    }
    for (; i < m; ++i) {
      const float* ai = row_of(a, i, k);
      float* oi = out + static_cast<size_t>(i) * static_cast<size_t>(n) + j;
      float c = LoadScalar<kMode>(oi);
      const float* bp = b + j;
      for (int p = 0; p < k; ++p, bp += n) {
        c += ai[p] * *bp;
      }
      StoreScalar<kMode>(oi, c);
    }
  }
}

// ((a0 b0 + a1 b1) + a2 b2) + a3 b3 over the 16 columns at b, b + n,
// b + 2n and b + 3n: the weight-gradient scalar loop's 4-row p-block.
__m512 Block4(__m512 a0, __m512 a1, __m512 a2, __m512 a3, const float* b,
              size_t n) {
  __m512 t = _mm512_mul_ps(a0, _mm512_loadu_ps(b));
  t = _mm512_add_ps(t, _mm512_mul_ps(a1, _mm512_loadu_ps(b + n)));
  t = _mm512_add_ps(t, _mm512_mul_ps(a2, _mm512_loadu_ps(b + 2 * n)));
  return _mm512_add_ps(t, _mm512_mul_ps(a3, _mm512_loadu_ps(b + 3 * n)));
}

}  // namespace

void GemmAccumulateRawAvx512(const float* a, const float* b, float* out,
                           int m, int k, int n) {
  GemmAvx512Impl<Mode::kAccumulate>(a, b, out, m, k, n);
}

void GemmOverwriteRawAvx512(const float* a, const float* b, float* out,
                          int m, int k, int n) {
  GemmAvx512Impl<Mode::kOverwrite>(a, b, out, m, k, n);
}

void GemmAddProductRawAvx512(const float* a, const float* bt, float* out,
                           int m, int k, int n) {
  GemmAvx512Impl<Mode::kAddProduct>(a, bt, out, m, k, n);
}

// Column-strip-outer like the forward kernels: one 32/16-column strip of
// `b` (k rows) stays in L1 while every output row accumulates against
// it, and each output tile stays in registers from its first p-block to
// its store. Row i of the output reads column i of `a` (stride m).
void GemmTransposeAAccumulateRawAvx512(const float* a, const float* b,
                                     float* out, int m, int k, int n) {
  const size_t sm = static_cast<size_t>(m);
  const size_t sn = static_cast<size_t>(n);
  const int k4 = k - k % 4;
  int j = 0;
  for (; j + 32 <= n; j += 32) {
    for (int i = 0; i < m; ++i) {
      float* o = out + static_cast<size_t>(i) * sn + j;
      __m512 c0 = _mm512_loadu_ps(o);
      __m512 c1 = _mm512_loadu_ps(o + 16);
      const float* ap = a + i;
      const float* bp = b + j;
      int p = 0;
      for (; p < k4; p += 4, ap += 4 * sm, bp += 4 * sn) {
        const __m512 a0 = _mm512_set1_ps(ap[0]);
        const __m512 a1 = _mm512_set1_ps(ap[sm]);
        const __m512 a2 = _mm512_set1_ps(ap[2 * sm]);
        const __m512 a3 = _mm512_set1_ps(ap[3 * sm]);
        c0 = _mm512_add_ps(c0, Block4(a0, a1, a2, a3, bp, sn));
        c1 = _mm512_add_ps(c1, Block4(a0, a1, a2, a3, bp + 16, sn));
      }
      for (; p < k; ++p, ap += sm, bp += sn) {
        const __m512 av = _mm512_set1_ps(*ap);
        c0 = _mm512_add_ps(c0, _mm512_mul_ps(av, _mm512_loadu_ps(bp)));
        c1 = _mm512_add_ps(c1, _mm512_mul_ps(av, _mm512_loadu_ps(bp + 16)));
      }
      _mm512_storeu_ps(o, c0);
      _mm512_storeu_ps(o + 16, c1);
    }
  }
  for (; j + 16 <= n; j += 16) {
    for (int i = 0; i < m; ++i) {
      float* o = out + static_cast<size_t>(i) * sn + j;
      __m512 c = _mm512_loadu_ps(o);
      const float* ap = a + i;
      const float* bp = b + j;
      int p = 0;
      for (; p < k4; p += 4, ap += 4 * sm, bp += 4 * sn) {
        c = _mm512_add_ps(
            c, Block4(_mm512_set1_ps(ap[0]), _mm512_set1_ps(ap[sm]),
                      _mm512_set1_ps(ap[2 * sm]), _mm512_set1_ps(ap[3 * sm]),
                      bp, sn));
      }
      for (; p < k; ++p, ap += sm, bp += sn) {
        c = _mm512_add_ps(c, _mm512_mul_ps(_mm512_set1_ps(*ap),
                                           _mm512_loadu_ps(bp)));
      }
      _mm512_storeu_ps(o, c);
    }
  }
  for (; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      float* o = out + static_cast<size_t>(i) * sn + j;
      float c = *o;
      const float* ap = a + i;
      const float* bp = b + j;
      int p = 0;
      for (; p < k4; p += 4, ap += 4 * sm, bp += 4 * sn) {
        c += ap[0] * bp[0] + ap[sm] * bp[sn] + ap[2 * sm] * bp[2 * sn] +
             ap[3 * sm] * bp[3 * sn];
      }
      for (; p < k; ++p, ap += sm, bp += sn) c += *ap * *bp;
      *o = c;
    }
  }
}

void EwAddAvx512(const float* a, const float* b, float* out, int n) {
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, _mm512_add_ps(_mm512_loadu_ps(a + i),
                                            _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void EwAddBiasRowAvx512(const float* a, const float* brow, float* out,
                        int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* arow = a + static_cast<size_t>(r) * static_cast<size_t>(cols);
    float* orow = out + static_cast<size_t>(r) * static_cast<size_t>(cols);
    int c = 0;
    for (; c + 16 <= cols; c += 16) {
      _mm512_storeu_ps(orow + c, _mm512_add_ps(_mm512_loadu_ps(arow + c),
                                               _mm512_loadu_ps(brow + c)));
    }
    for (; c < cols; ++c) orow[c] = arow[c] + brow[c];
  }
}

void EwMulAvx512(const float* a, const float* b, float* out, int n) {
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, _mm512_mul_ps(_mm512_loadu_ps(a + i),
                                            _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void EwScaleRowsAvx512(const float* a, const float* s, float* out,
                       int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* arow = a + static_cast<size_t>(r) * static_cast<size_t>(cols);
    float* orow = out + static_cast<size_t>(r) * static_cast<size_t>(cols);
    const __m512 sv = _mm512_set1_ps(s[r]);
    int c = 0;
    for (; c + 16 <= cols; c += 16) {
      _mm512_storeu_ps(orow + c, _mm512_mul_ps(_mm512_loadu_ps(arow + c),
                                               sv));
    }
    for (; c < cols; ++c) orow[c] = arow[c] * s[r];
  }
}

#else  // !defined(__AVX512F__)

bool GemmAvx512Available() { return false; }

void GemmAccumulateRawAvx512(const float*, const float*, float*, int, int,
                             int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void GemmOverwriteRawAvx512(const float*, const float*, float*, int, int,
                            int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void GemmAddProductRawAvx512(const float*, const float*, float*, int, int,
                             int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void GemmTransposeAAccumulateRawAvx512(const float*, const float*, float*,
                                       int, int, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void EwAddAvx512(const float*, const float*, float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void EwAddBiasRowAvx512(const float*, const float*, float*, int, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void EwMulAvx512(const float*, const float*, float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void EwScaleRowsAvx512(const float*, const float*, float*, int, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

#endif

}  // namespace lead::nn::internal
