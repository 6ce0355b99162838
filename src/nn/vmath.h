// Project-owned transcendentals for the nn kernels: Exp, Tanh, Sigmoid
// and Log in single precision, replacing libm in every registered op
// kernel (nn/op_kernels.cc).
//
// Each is a range reduction plus a fixed-degree polynomial built only
// from IEEE + - * /, compares, blends and integer exponent-bit operations
// in one fixed order (nn/vmath_lane.h), so results depend on this
// repository alone, not on the host's libm. Error bound against a
// double-precision reference (measured maximum over all 2^32 inputs in
// parentheses; a subnormal result's error counts in units of the smallest
// subnormal), checked by vmath_test:
//   Exp      1   ulp (0.957)
//   Tanh     1.5 ulp (1.330)
//   Sigmoid  2.5 ulp (2.402)
//   Log      1   ulp (0.823)
// Pinned semantics, identical on every path: NaN in gives NaN out
// (x + x, so the payload is x's, quieted); Exp(-inf) = +0 and
// Exp(+inf) = +inf; Tanh(+-inf) = +-1, Tanh keeps the sign of zero and
// is exactly odd; Sigmoid(0) = 0.5, Sigmoid(+inf) = 1, Sigmoid(-inf) = +0;
// saturated results are exactly +-1, 0 or 1; subnormal results are
// rounded once; Log(+-0) = -inf, Log(x < 0) = NaN, Log(+inf) = +inf.
#pragma once

namespace lead::nn::vmath {

float Exp(float x);
float Tanh(float x);
float Sigmoid(float x);
float Log(float x);

// out[i] = f(in[i]) for i in [0, n); `in` may equal `out`. Runtime-
// dispatched to AVX-512, AVX2 or the scalar lane with the GEMM kernels'
// cached CPUID checks (nn/simd_gemm.h); every path returns the scalar
// function's bits.
void ExpArray(const float* in, float* out, int n);
void TanhArray(const float* in, float* out, int n);
void SigmoidArray(const float* in, float* out, int n);

namespace internal {

// Per-ISA entry points behind the dispatch; tests call them directly.
// Call the Avx2 forms only when nn::internal::GemmAvx2Available() and the
// Avx512 forms only when nn::internal::GemmAvx512Available() returned
// true; non-x86 builds compile stubs that abort.
void ExpArrayScalar(const float* in, float* out, int n);
void TanhArrayScalar(const float* in, float* out, int n);
void SigmoidArrayScalar(const float* in, float* out, int n);
void ExpArrayAvx2(const float* in, float* out, int n);
void TanhArrayAvx2(const float* in, float* out, int n);
void SigmoidArrayAvx2(const float* in, float* out, int n);
void ExpArrayAvx512(const float* in, float* out, int n);
void TanhArrayAvx512(const float* in, float* out, int n);
void SigmoidArrayAvx512(const float* in, float* out, int n);

}  // namespace internal

}  // namespace lead::nn::vmath
