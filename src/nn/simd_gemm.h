// Runtime-dispatched SIMD microkernels for the GEMM loops.
//
// The AVX2 path widens the scalar kernels' j-loops to 8 lanes (the
// AVX-512 path to 16) while keeping bit-identical results: every output
// element still sees the same sequence of rounded multiplies and rounded
// adds as in the scalar loop it replaces (matrix.h internal::*Scalar).
// Each implementation file is the only translation unit compiled with its
// ISA flag and never with -mfma, so no contraction can fuse the rounding
// steps. matrix.cc dispatches here based on cached CPUID checks (widest
// first); non-x86 builds compile stubs that report the paths unavailable.
//
// Three GEMM shapes run here, one per MatMul direction:
//   - forward, out (+)= a * b: products accumulate over p = 0..k-1 into
//     the output (from 0 for the overwrite variant);
//   - input gradient, out += a * b^T (g * W^T): the scalar loop builds
//     each dot product from +0 in p order and only then adds it to out.
//     Given bt = b^T materialized, that is the forward loop with its
//     register accumulators started at zero and out added at the store
//     (GemmAddProductRaw*). Autograd transposes each weight once per
//     backward pass for it (nn::Backward's per-pass transpose cache);
//   - weight gradient, out += a^T * b (x^T * g): the scalar loop sums
//     each 4-row p-block as ((a0 b0 + a1 b1) + a2 b2) + a3 b3, adds that
//     to out, then adds each leftover row's product. The SIMD kernels
//     evaluate the same expression tree lane by lane over j and keep the
//     output tile in registers across p-blocks, which changes no
//     element's operation order.
#pragma once

namespace lead::nn::internal {

// True when this build and the running CPU support the AVX2 path.
bool GemmAvx2Available();

// out[m x n] += a[m x k] * b[k x n], AVX2 8-wide. Call only when
// GemmAvx2Available() returned true.
void GemmAccumulateRawAvx2(const float* a, const float* b, float* out,
                           int m, int k, int n);

// out[m x n] = a[m x k] * b[k x n] (overwrite), AVX2 8-wide. Call only
// when GemmAvx2Available() returned true.
void GemmOverwriteRawAvx2(const float* a, const float* b, float* out,
                          int m, int k, int n);

// out[m x n] += (a[m x k] * bt[k x n]), each dot product summed from +0
// before it is added to out, AVX2 8-wide. Call only when
// GemmAvx2Available() returned true.
void GemmAddProductRawAvx2(const float* a, const float* bt, float* out,
                           int m, int k, int n);

// out[m x n] += a^T * b with a [k x m] and b [k x n], blocked over 4 rows
// of p like the scalar loop, AVX2 8-wide. Call only when
// GemmAvx2Available() returned true.
void GemmTransposeAAccumulateRawAvx2(const float* a, const float* b,
                                     float* out, int m, int k, int n);

// True when this build and the running CPU support the AVX-512 path.
bool GemmAvx512Available();

// AVX-512 16-wide counterparts of the four AVX2 kernels above. Call only
// when GemmAvx512Available() returned true.
void GemmAccumulateRawAvx512(const float* a, const float* b, float* out,
                             int m, int k, int n);
void GemmOverwriteRawAvx512(const float* a, const float* b, float* out,
                            int m, int k, int n);
void GemmAddProductRawAvx512(const float* a, const float* bt, float* out,
                             int m, int k, int n);
void GemmTransposeAAccumulateRawAvx512(const float* a, const float* b,
                                       float* out, int m, int k, int n);

// Elementwise companions, same dispatch contract as the GEMM paths.
// These are pure lane operations (no reductions, no reassociation), so
// any vector width produces the scalar loop's bits. out[i] = a[i] + b[i].
void EwAddAvx2(const float* a, const float* b, float* out, int n);
void EwAddAvx512(const float* a, const float* b, float* out, int n);
// out row r = a row r + brow (a [rows x cols], brow [1 x cols]).
void EwAddBiasRowAvx2(const float* a, const float* brow, float* out,
                      int rows, int cols);
void EwAddBiasRowAvx512(const float* a, const float* brow, float* out,
                        int rows, int cols);
// out[i] = a[i] * b[i].
void EwMulAvx2(const float* a, const float* b, float* out, int n);
void EwMulAvx512(const float* a, const float* b, float* out, int n);
// out row r = a row r * s[r] (s [rows x 1]).
void EwScaleRowsAvx2(const float* a, const float* s, float* out, int rows,
                     int cols);
void EwScaleRowsAvx512(const float* a, const float* s, float* out,
                       int rows, int cols);

}  // namespace lead::nn::internal
