// Scalar lane of the project-owned transcendentals, the reference every
// other lane reproduces bit for bit, and the array dispatch. Compiled
// with -ffp-contract=off (src/nn/CMakeLists.txt) so no multiply-add pair
// can fuse.
#include "nn/vmath.h"

#include "nn/simd_gemm.h"
#include "nn/vmath_lane.h"

namespace lead::nn::vmath {

using vmath_lane::MapArray;
using vmath_lane::ScalarLane;

float Exp(float x) { return vmath_lane::ExpLane<ScalarLane>(x); }
float Tanh(float x) { return vmath_lane::TanhLane<ScalarLane>(x); }
float Sigmoid(float x) { return vmath_lane::SigmoidLane<ScalarLane>(x); }
float Log(float x) { return vmath_lane::LogLane<ScalarLane>(x); }

namespace internal {

void ExpArrayScalar(const float* in, float* out, int n) {
  MapArray<ScalarLane, vmath_lane::ExpFn>(in, out, n);
}

void TanhArrayScalar(const float* in, float* out, int n) {
  MapArray<ScalarLane, vmath_lane::TanhFn>(in, out, n);
}

void SigmoidArrayScalar(const float* in, float* out, int n) {
  MapArray<ScalarLane, vmath_lane::SigmoidFn>(in, out, n);
}

}  // namespace internal

void ExpArray(const float* in, float* out, int n) {
  if (nn::internal::GemmAvx512Available()) {
    internal::ExpArrayAvx512(in, out, n);
  } else if (nn::internal::GemmAvx2Available()) {
    internal::ExpArrayAvx2(in, out, n);
  } else {
    internal::ExpArrayScalar(in, out, n);
  }
}

void TanhArray(const float* in, float* out, int n) {
  if (nn::internal::GemmAvx512Available()) {
    internal::TanhArrayAvx512(in, out, n);
  } else if (nn::internal::GemmAvx2Available()) {
    internal::TanhArrayAvx2(in, out, n);
  } else {
    internal::TanhArrayScalar(in, out, n);
  }
}

void SigmoidArray(const float* in, float* out, int n) {
  if (nn::internal::GemmAvx512Available()) {
    internal::SigmoidArrayAvx512(in, out, n);
  } else if (nn::internal::GemmAvx2Available()) {
    internal::SigmoidArrayAvx2(in, out, n);
  } else {
    internal::SigmoidArrayScalar(in, out, n);
  }
}

}  // namespace lead::nn::vmath
