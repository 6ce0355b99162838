// AVX-512 lane of the project-owned transcendentals (nn/vmath_lane.h), 16
// floats per vector. This file is compiled with -mavx512f and
// -ffp-contract=off (src/nn/CMakeLists.txt); the flag is load-bearing,
// because 512-bit FMA is part of AVX512F itself. Only AVX512F intrinsics
// appear (float bitwise ops go through the integer forms, which need no
// AVX512DQ), none of vscalefps/vroundscaleps/vrcp14ps, so every lane
// performs the scalar lane's operation sequence and returns its bits.
// Array tails run through this file's own copy of the scalar lane.
#include "nn/vmath.h"

#include "common/check.h"

#if defined(__AVX512F__)
#include <immintrin.h>

#include "nn/vmath_lane.h"
#endif

namespace lead::nn::vmath::internal {

#if defined(__AVX512F__)

namespace {

struct Avx512Lane {
  using F = __m512;
  using I = __m512i;
  using M = __mmask16;
  static constexpr int kWidth = 16;

  static F Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, F v) { _mm512_storeu_ps(p, v); }
  static void ZeroUpper() { _mm256_zeroupper(); }
  static F Set(float v) { return _mm512_set1_ps(v); }
  static I SetI(int32_t v) { return _mm512_set1_epi32(v); }
  static F Add(F a, F b) { return _mm512_add_ps(a, b); }
  static F Sub(F a, F b) { return _mm512_sub_ps(a, b); }
  static F Mul(F a, F b) { return _mm512_mul_ps(a, b); }
  static F Div(F a, F b) { return _mm512_div_ps(a, b); }
  static M Lt(F a, F b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
  static M Gt(F a, F b) { return _mm512_cmp_ps_mask(a, b, _CMP_GT_OQ); }
  static M Eq(F a, F b) { return _mm512_cmp_ps_mask(a, b, _CMP_EQ_OQ); }
  static M IsNan(F a) { return _mm512_cmp_ps_mask(a, a, _CMP_UNORD_Q); }
  static F Select(M m, F if_true, F if_false) {
    return _mm512_mask_blend_ps(m, if_false, if_true);
  }
  static I AsInt(F a) { return _mm512_castps_si512(a); }
  static F AsFloat(I a) { return _mm512_castsi512_ps(a); }
  static I IAdd(I a, I b) { return _mm512_add_epi32(a, b); }
  static I ISub(I a, I b) { return _mm512_sub_epi32(a, b); }
  static I IAnd(I a, I b) { return _mm512_and_si512(a, b); }
  static I IOr(I a, I b) { return _mm512_or_si512(a, b); }
  static I IXor(I a, I b) { return _mm512_xor_si512(a, b); }
  // The zero-masking forms with every lane enabled: the plain forms pass
  // _mm512_undefined_epi32() as the merge source, which GCC 12 reports as
  // an uninitialized use.
  template <int kBits>
  static I Shl(I a) {
    return _mm512_maskz_slli_epi32(kAllLanes, a, kBits);
  }
  template <int kBits>
  static I Sra(I a) {
    return _mm512_maskz_srai_epi32(kAllLanes, a, kBits);
  }

  static constexpr M kAllLanes = 0xFFFF;
};

}  // namespace

void ExpArrayAvx512(const float* in, float* out, int n) {
  vmath_lane::MapArray<Avx512Lane, vmath_lane::ExpFn>(in, out, n);
}

void TanhArrayAvx512(const float* in, float* out, int n) {
  vmath_lane::MapArray<Avx512Lane, vmath_lane::TanhFn>(in, out, n);
}

void SigmoidArrayAvx512(const float* in, float* out, int n) {
  vmath_lane::MapArray<Avx512Lane, vmath_lane::SigmoidFn>(in, out, n);
}

#else  // !defined(__AVX512F__)

void ExpArrayAvx512(const float*, float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void TanhArrayAvx512(const float*, float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

void SigmoidArrayAvx512(const float*, float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX-512 support
}

#endif

}  // namespace lead::nn::vmath::internal
