// Lane-generic bodies of the project-owned transcendentals (nn/vmath.h).
//
// Include only from the vmath translation units: vmath.cc (scalar lane),
// vmath_avx2.cc and vmath_avx512.cc. Each function below is written once
// over a lane type L and instantiated per ISA. A lane provides float
// vectors F, int32 vectors I and masks M with:
//   Set/SetI, Load/Store, kWidth      broadcast and unaligned memory access
//   ZeroUpper                         vzeroupper for the vector lanes
//   Add Sub Mul Div                   IEEE single precision, one rounding each
//   Lt Gt Eq (ordered, quiet)         false when either side is NaN
//   IsNan, Select(m, if_true, if_false)
//   AsInt/AsFloat                     bit casts
//   IAdd ISub IAnd IOr IXor Shl<k> Sra<k>   int32 lane ops (wrapping)
//
// Operation-order rules (DESIGN.md §"Project-owned transcendentals"): only
// those operations, in the fixed order written here, never a fused
// multiply-add (every vmath file compiles with -ffp-contract=off), never
// a reciprocal or rsqrt estimate, never vscalefps/vroundscaleps, and
// rounding to an integer only by the 1.5 * 2^23 add/sub. Every lane then
// performs the same sequence of correctly rounded operations per element,
// so every ISA returns the scalar lane's bits.
//
// Polynomial coefficients come from tools/vmath_fit.cc, which prints them
// in exactly this form; the interval, degree, method and fit error are
// recorded beside each table.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace lead::nn::vmath_lane {

// Internal linkage on purpose: each vmath translation unit compiles its
// own copy of these templates under its own ISA flags. With external
// linkage the scalar-lane instantiations (the array tails) would be
// emitted by all three files, and the linker could keep an
// AVX-512-compiled copy for the scalar path of a host without AVX-512.
namespace {

// exp: g(r) = (e^r - 1 - r) / r^2
//   on [-0.34657359, 0.34657359], degree 5, Chebyshev-node interpolation
//   in long double; max |g - p| = 1.4e-09 (4.08e-09 with float
//   coefficients)
constexpr float kExpPoly[] = {0.5f,           0.166666672f,   0.0416664667f,
                              0.00833331048f, 0.00139336416f, 0.000198909809f};

// tanh: g(z) = (tanh(sqrt z) / sqrt z - 1) / z
//   on [0, 0.390625], degree 5, Chebyshev-node interpolation in long
//   double; max |g - p| = 1.61e-09 (1.3e-08 with float coefficients)
constexpr float kTanhPoly[] = {-0.333333343f, 0.133333042f,
                               -0.0539592579f, 0.0217689183f,
                               -0.00834394526f, 0.00229274482f};

// log: g(f) = (log1p(f) - f + f^2/2) / f^3
//   on [-0.292893219, 0.414213562], degree 8, Chebyshev-node
//   interpolation in long double; max |g - p| = 2.95e-08 (3.05e-08 with
//   float coefficients)
constexpr float kLogPoly[] = {0.333333313f,  -0.24999997f,  0.200007156f,
                              -0.166678026f, 0.142490581f,  -0.124256872f,
                              0.116854198f,  -0.114797339f, 0.0697161183f};

constexpr float kLog2e = 1.44269504f;
// ln 2 split Cody-Waite style: kLn2Hi = 355/512 has 9 significant bits,
// so n * kLn2Hi is exact for every |n| <= 2^15.
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
// Adding then subtracting 1.5 * 2^23 rounds |v| < 2^22 to the nearest
// integer (ties to even); the sum's low mantissa bits hold that integer.
constexpr float kRoundMagic = 12582912.0f;
constexpr int32_t kRoundMagicBits = 0x4B400000;
// exp clamps its argument to [kExpLo, kExpHi] first: below, e^x < 2^-150
// rounds to +0; above, the 2^128 scale overflows to +inf. Both ends keep
// n = round(x log2 e) within [-150, 128], where the two-factor scale
// below never overflows an exponent field.
constexpr float kExpLo = -104.0f;
constexpr float kExpHi = 89.0f;
// tanh uses the odd polynomial below this |x| and 1 - 2 / (e^{2|x|} + 1)
// from it on; the latter rounds to exactly 1 from |x| ~ 9.02.
constexpr float kTanhPolyMax = 0.625f;
constexpr float kSqrtHalf = 0.707106781f;
constexpr float kMinNormal = std::numeric_limits<float>::min();
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr int32_t kSignMask = std::numeric_limits<int32_t>::min();
constexpr int32_t kMantissaMask = 0x007FFFFF;
constexpr int32_t kHalfBits = 0x3F000000;  // 0.5f

// The reference lane: one float. Integer ops wrap through uint32_t so a
// NaN's garbage exponent arithmetic (blended away later) is defined.
struct ScalarLane {
  using F = float;
  using I = int32_t;
  using M = bool;
  static constexpr int kWidth = 1;

  static F Load(const float* p) { return *p; }
  static void Store(float* p, F v) { *p = v; }
  static void ZeroUpper() {}
  static F Set(float v) { return v; }
  static I SetI(int32_t v) { return v; }
  static F Add(F a, F b) { return a + b; }
  static F Sub(F a, F b) { return a - b; }
  static F Mul(F a, F b) { return a * b; }
  static F Div(F a, F b) { return a / b; }
  static M Lt(F a, F b) { return a < b; }
  static M Gt(F a, F b) { return a > b; }
  static M Eq(F a, F b) { return a == b; }
  static M IsNan(F a) { return a != a; }
  static F Select(M m, F if_true, F if_false) { return m ? if_true : if_false; }
  static I AsInt(F a) { return std::bit_cast<I>(a); }
  static F AsFloat(I a) { return std::bit_cast<F>(a); }
  static I IAdd(I a, I b) {
    return static_cast<I>(static_cast<uint32_t>(a) + static_cast<uint32_t>(b));
  }
  static I ISub(I a, I b) {
    return static_cast<I>(static_cast<uint32_t>(a) - static_cast<uint32_t>(b));
  }
  static I IAnd(I a, I b) { return a & b; }
  static I IOr(I a, I b) { return a | b; }
  static I IXor(I a, I b) { return a ^ b; }
  template <int kBits>
  static I Shl(I a) {
    return static_cast<I>(static_cast<uint32_t>(a) << kBits);
  }
  template <int kBits>
  static I Sra(I a) {
    return a >> kBits;  // arithmetic since C++20
  }
};

// ((c[N-1] x + c[N-2]) x + ...) x + c[K], one rounded multiply and one
// rounded add per step.
template <class L, size_t K, size_t N>
typename L::F Horner(const float (&c)[N], typename L::F x) {
  if constexpr (K + 1 == N) {
    return L::Set(c[K]);
  } else {
    return L::Add(L::Mul(Horner<L, K + 1>(c, x), x), L::Set(c[K]));
  }
}

// e^x = 2^n e^r with n = round(x log2 e) and r = x - n ln 2 in
// [-ln2/2, ln2/2]; e^r = 1 + r + r^2 g(r). 2^n is applied as two exact
// power-of-two factors 2^(n>>1) and 2^(n - (n>>1)): the first product
// stays normal, so a subnormal result is rounded once, by the second.
template <class L>
typename L::F ExpLane(typename L::F x) {
  using F = typename L::F;
  using I = typename L::I;
  F xc = L::Select(L::Lt(x, L::Set(kExpLo)), L::Set(kExpLo), x);
  xc = L::Select(L::Gt(xc, L::Set(kExpHi)), L::Set(kExpHi), xc);
  const F shifted = L::Add(L::Mul(xc, L::Set(kLog2e)), L::Set(kRoundMagic));
  const F n = L::Sub(shifted, L::Set(kRoundMagic));
  F r = L::Sub(xc, L::Mul(n, L::Set(kLn2Hi)));
  r = L::Sub(r, L::Mul(n, L::Set(kLn2Lo)));
  const F p = Horner<L, 0>(kExpPoly, r);
  F y = L::Add(L::Add(L::Mul(p, L::Mul(r, r)), r), L::Set(1.0f));
  const I ni = L::ISub(L::AsInt(shifted), L::SetI(kRoundMagicBits));
  const I n1 = L::template Sra<1>(ni);
  const I n2 = L::ISub(ni, n1);
  y = L::Mul(y, L::AsFloat(L::template Shl<23>(L::IAdd(n1, L::SetI(127)))));
  y = L::Mul(y, L::AsFloat(L::template Shl<23>(L::IAdd(n2, L::SetI(127)))));
  return L::Select(L::IsNan(x), L::Add(x, x), y);
}

// tanh on |x|, sign restored by OR-ing x's sign bit back in, so the
// function is exactly odd and keeps the sign of zero. Small |x|:
// x + x z g(z) with z = x^2; otherwise 1 - 2 / (e^{2|x|} + 1).
template <class L>
typename L::F TanhLane(typename L::F x) {
  using F = typename L::F;
  using I = typename L::I;
  const I bits = L::AsInt(x);
  const I sign = L::IAnd(bits, L::SetI(kSignMask));
  const F ax = L::AsFloat(L::IXor(bits, sign));
  const F z = L::Mul(ax, ax);
  const F small =
      L::Add(L::Mul(L::Mul(Horner<L, 0>(kTanhPoly, z), z), ax), ax);
  const F e = ExpLane<L>(L::Add(ax, ax));
  const F large = L::Sub(L::Set(1.0f),
                         L::Div(L::Set(2.0f), L::Add(e, L::Set(1.0f))));
  const F y = L::Select(L::Lt(ax, L::Set(kTanhPolyMax)), small, large);
  const F signed_y = L::AsFloat(L::IOr(L::AsInt(y), sign));
  return L::Select(L::IsNan(x), L::Add(x, x), signed_y);
}

// 1 / (1 + e^-x), evaluated from e = e^-|x| in (0, 1] as 1 / (1 + e) for
// x >= 0 and e / (1 + e) for x < 0: no overflow, and results in the
// subnormal range stay accurate.
template <class L>
typename L::F SigmoidLane(typename L::F x) {
  using F = typename L::F;
  const F neg_ax = L::AsFloat(L::IOr(L::AsInt(x), L::SetI(kSignMask)));
  const F e = ExpLane<L>(neg_ax);
  const F num = L::Select(L::Lt(x, L::Set(0.0f)), e, L::Set(1.0f));
  const F y = L::Div(num, L::Add(L::Set(1.0f), e));
  return L::Select(L::IsNan(x), L::Add(x, x), y);
}

// log x = e ln 2 + log(1 + f) with x = (1 + f) 2^e, 1 + f in
// [sqrt(1/2), sqrt(2)); log(1 + f) = f - f^2/2 + f^3 g(f). Subnormal x
// is scaled by 2^25 first.
template <class L>
typename L::F LogLane(typename L::F x) {
  using F = typename L::F;
  using I = typename L::I;
  const typename L::M subnormal = L::Lt(x, L::Set(kMinNormal));
  const F xs = L::Select(subnormal, L::Mul(x, L::Set(33554432.0f)), x);
  const I bits = L::AsInt(xs);
  // xs = m 2^e with m in [0.5, 1).
  const F m = L::AsFloat(
      L::IOr(L::IAnd(bits, L::SetI(kMantissaMask)), L::SetI(kHalfBits)));
  const I ei = L::ISub(L::template Sra<23>(bits), L::SetI(126));
  F e = L::Sub(L::AsFloat(L::IAdd(ei, L::SetI(kRoundMagicBits))),
               L::Set(kRoundMagic));
  e = L::Sub(e, L::Select(subnormal, L::Set(25.0f), L::Set(0.0f)));
  const typename L::M low = L::Lt(m, L::Set(kSqrtHalf));
  const F f = L::Sub(L::Select(low, L::Add(m, m), m), L::Set(1.0f));
  e = L::Select(low, L::Sub(e, L::Set(1.0f)), e);
  const F z = L::Mul(f, f);
  F y = L::Mul(L::Mul(Horner<L, 0>(kLogPoly, f), f), z);
  y = L::Add(y, L::Mul(e, L::Set(kLn2Lo)));
  y = L::Sub(y, L::Mul(z, L::Set(0.5f)));
  F r = L::Add(f, y);
  r = L::Add(r, L::Mul(e, L::Set(kLn2Hi)));
  r = L::Select(L::Eq(x, L::Set(0.0f)), L::Set(-kInf), r);
  r = L::Select(L::Lt(x, L::Set(0.0f)),
                L::Set(std::numeric_limits<float>::quiet_NaN()), r);
  r = L::Select(L::Eq(x, L::Set(kInf)), L::Set(kInf), r);
  return L::Select(L::IsNan(x), L::Add(x, x), r);
}

struct ExpFn {
  template <class L>
  static typename L::F Apply(typename L::F x) { return ExpLane<L>(x); }
};
struct TanhFn {
  template <class L>
  static typename L::F Apply(typename L::F x) { return TanhLane<L>(x); }
};
struct SigmoidFn {
  template <class L>
  static typename L::F Apply(typename L::F x) { return SigmoidLane<L>(x); }
};

// out[i] = Fn(in[i]) over whole L lanes, then the tail through the
// scalar lane. `in` may equal `out`. L::ZeroUpper() runs between the two
// loops so the function returns with the upper vector state clean on
// every path: the callers are SSE code, and SSE instructions after dirty
// upper state pay a transition penalty until the next vzeroupper. (GCC
// places its own vzeroupper before a return, but skipped it on the
// path through an out-of-line scalar tail.)
template <class L, class Fn>
void MapArray(const float* in, float* out, int n) {
  int i = 0;
  for (; i + L::kWidth <= n; i += L::kWidth) {
    L::Store(out + i, Fn::template Apply<L>(L::Load(in + i)));
  }
  L::ZeroUpper();
  for (; i < n; ++i) out[i] = Fn::template Apply<ScalarLane>(in[i]);
}

}  // namespace
}  // namespace lead::nn::vmath_lane
