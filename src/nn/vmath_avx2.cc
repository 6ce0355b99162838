// AVX2 lane of the project-owned transcendentals (nn/vmath_lane.h), 8
// floats per vector. This file is compiled with -mavx2 and
// -ffp-contract=off and never -mfma (src/nn/CMakeLists.txt): each
// intrinsic below is one correctly rounded IEEE operation per lane, in
// the order the lane-generic body fixes, so every lane returns the scalar
// lane's bits. Array tails run through this file's own copy of the scalar
// lane.
#include "nn/vmath.h"

#include "common/check.h"

#if defined(__AVX2__)
#include <immintrin.h>

#include "nn/vmath_lane.h"
#endif

namespace lead::nn::vmath::internal {

#if defined(__AVX2__)

namespace {

struct Avx2Lane {
  using F = __m256;
  using I = __m256i;
  using M = __m256;  // all-ones / all-zeros lanes
  static constexpr int kWidth = 8;

  static F Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, F v) { _mm256_storeu_ps(p, v); }
  static void ZeroUpper() { _mm256_zeroupper(); }
  static F Set(float v) { return _mm256_set1_ps(v); }
  static I SetI(int32_t v) { return _mm256_set1_epi32(v); }
  static F Add(F a, F b) { return _mm256_add_ps(a, b); }
  static F Sub(F a, F b) { return _mm256_sub_ps(a, b); }
  static F Mul(F a, F b) { return _mm256_mul_ps(a, b); }
  static F Div(F a, F b) { return _mm256_div_ps(a, b); }
  static M Lt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static M Gt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  static M Eq(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_EQ_OQ); }
  static M IsNan(F a) { return _mm256_cmp_ps(a, a, _CMP_UNORD_Q); }
  static F Select(M m, F if_true, F if_false) {
    return _mm256_blendv_ps(if_false, if_true, m);
  }
  static I AsInt(F a) { return _mm256_castps_si256(a); }
  static F AsFloat(I a) { return _mm256_castsi256_ps(a); }
  static I IAdd(I a, I b) { return _mm256_add_epi32(a, b); }
  static I ISub(I a, I b) { return _mm256_sub_epi32(a, b); }
  static I IAnd(I a, I b) { return _mm256_and_si256(a, b); }
  static I IOr(I a, I b) { return _mm256_or_si256(a, b); }
  static I IXor(I a, I b) { return _mm256_xor_si256(a, b); }
  template <int kBits>
  static I Shl(I a) {
    return _mm256_slli_epi32(a, kBits);
  }
  template <int kBits>
  static I Sra(I a) {
    return _mm256_srai_epi32(a, kBits);
  }
};

}  // namespace

void ExpArrayAvx2(const float* in, float* out, int n) {
  vmath_lane::MapArray<Avx2Lane, vmath_lane::ExpFn>(in, out, n);
}

void TanhArrayAvx2(const float* in, float* out, int n) {
  vmath_lane::MapArray<Avx2Lane, vmath_lane::TanhFn>(in, out, n);
}

void SigmoidArrayAvx2(const float* in, float* out, int n) {
  vmath_lane::MapArray<Avx2Lane, vmath_lane::SigmoidFn>(in, out, n);
}

#else  // !defined(__AVX2__)

void ExpArrayAvx2(const float*, float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX2 support
}

void TanhArrayAvx2(const float*, float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX2 support
}

void SigmoidArrayAvx2(const float*, float*, int) {
  LEAD_CHECK(false);  // dispatch bug: called without AVX2 support
}

#endif

}  // namespace lead::nn::vmath::internal
