// Dense row-major float matrix, the storage type of the nn substrate.
//
// All tensors in this library are rank-2; vectors are [1 x n] rows and
// scalars are [1 x 1]. Sequences are either matrices ([T x d], one row per
// step) or std::vector<Variable> at the layer level.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace lead::nn {

namespace internal {
// Thread-local count of tensor-storage acquisitions: Matrix constructions
// and copies that take (or would take) a fresh heap block. plan.cc turns
// deltas into the nn.plan.allocs metric and bench/fig8_inference_time.cc
// reports per-detect totals, so the "allocation-free steady state" claim
// is measured rather than asserted.
extern thread_local int64_t tensor_allocs;
inline void NoteTensorAlloc() { ++tensor_allocs; }
}  // namespace internal

// Tensor-storage allocations observed on the calling thread so far.
inline int64_t TensorAllocsThisThread() { return internal::tensor_allocs; }

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols), data_(CheckedSize(rows, cols), 0.0f) {
    if (!data_.empty()) internal::NoteTensorAlloc();
  }
  Matrix(int rows, int cols, std::vector<float> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    LEAD_CHECK_GE(rows, 0);
    LEAD_CHECK_GE(cols, 0);
    LEAD_CHECK_EQ(static_cast<size_t>(rows) * static_cast<size_t>(cols),
                  data_.size());
    if (!data_.empty()) internal::NoteTensorAlloc();
  }

  Matrix(const Matrix& other)
      : rows_(other.rows_), cols_(other.cols_), data_(other.data_) {
    if (!data_.empty()) internal::NoteTensorAlloc();
  }
  Matrix& operator=(const Matrix& other) {
    if (this == &other) return *this;
    if (data_.capacity() < other.data_.size()) internal::NoteTensorAlloc();
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_ = other.data_;
    return *this;
  }
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  [[nodiscard]] static Matrix Zeros(int rows, int cols) {
    return Matrix(rows, cols);
  }
  [[nodiscard]] static Matrix Full(int rows, int cols, float value);
  // A single row vector from values.
  [[nodiscard]] static Matrix RowVector(std::vector<float> values);
  // Uniform random entries in [-bound, bound].
  [[nodiscard]] static Matrix Uniform(int rows, int cols, float bound,
                                      Rng* rng);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int size() const { return rows_ * cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  // Element/row accessors bounds-check under LEAD_DCHECK (debug builds
  // only; release indexing stays branch-free).
  float& at(int r, int c) { return data_[Index(r, c)]; }
  [[nodiscard]] float at(int r, int c) const { return data_[Index(r, c)]; }
  float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  float* row(int r) { return data_.data() + RowOffset(r); }
  [[nodiscard]] const float* row(int r) const {
    return data_.data() + RowOffset(r);
  }

  void Fill(float value);
  [[nodiscard]] bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  // Validates the sign of a requested shape before the allocation size is
  // computed, so a negative dimension aborts instead of wrapping around to
  // a near-SIZE_MAX allocation.
  static size_t CheckedSize(int rows, int cols) {
    LEAD_CHECK_GE(rows, 0);
    LEAD_CHECK_GE(cols, 0);
    return static_cast<size_t>(rows) * static_cast<size_t>(cols);
  }

  // All index arithmetic goes through these two so the signed->size_t
  // conversion happens exactly once, after the sign has been checked.
  size_t Index(int r, int c) const {
    LEAD_DCHECK(r >= 0 && r < rows_);
    LEAD_DCHECK(c >= 0 && c < cols_);
    return static_cast<size_t>(r) * static_cast<size_t>(cols_) +
           static_cast<size_t>(c);
  }
  size_t RowOffset(int r) const {
    LEAD_DCHECK(r >= 0 && r < rows_);
    return static_cast<size_t>(r) * static_cast<size_t>(cols_);
  }

  int rows_;
  int cols_;
  std::vector<float> data_;
};

// out += a * b (row-major GEMM accumulate). Shapes: a [m x k], b [k x n],
// out [m x n]. Register-blocked over rows of a (4 rows per sweep of b), so
// batch-major [B x d] operands amortize every load of b; dense inner loop
// with no data-dependent branches.
void MatMulAccumulate(const Matrix& a, const Matrix& b, Matrix* out);
// Sparse-aware variant of MatMulAccumulate: skips zero entries of `a`.
// Only worth it when a is mostly zeros (e.g. one-hot rows); the branch is
// a net loss on dense operands (see BM_GemmSparseAware in
// bench/micro_substrates.cc).
void MatMulAccumulateSparseA(const Matrix& a, const Matrix& b, Matrix* out);
// out += a^T * b (MatMul's weight gradient x^T * g). Shapes: a [k x m],
// b [k x n], out [m x n]. Each 4-row block of p is summed
// ((a0 b0 + a1 b1) + a2 b2) + a3 b3 and added to out, then each leftover
// row's product is added; every dispatch path rounds this way.
void MatMulTransposeAAccumulate(const Matrix& a, const Matrix& b,
                                Matrix* out);
// out += a * b^T (MatMul's input gradient g * W^T). Shapes: a [m x k],
// b [n x k], out [m x n]. Each dot product is summed from +0 in k order,
// then added to out. The SIMD kernels read b^T: pass it as `b_t`
// ([k x n], equal to Transposed(b)) to share one transpose across calls,
// as nn::Backward does once per weight per pass; without it they
// transpose b into a temporary. The scalar path ignores `b_t`.
void MatMulTransposeBAccumulate(const Matrix& a, const Matrix& b,
                                Matrix* out, const Matrix* b_t = nullptr);

// m^T as a new [m.cols() x m.rows()] matrix.
[[nodiscard]] Matrix Transposed(const Matrix& m);

// True when the GEMM entry points run an AVX2 or AVX-512 kernel on this
// host (simd_gemm.h); MatMulTransposeBAccumulate then reads b^T.
bool GemmSimdAvailable();

// Raw row-major core of MatMulAccumulate, shared by the Matrix wrapper
// above and the registered MatMul plan kernel (op_kernels.cc), which
// operates on arena-backed views rather than Matrix storage. Runs the
// identical register-blocked loop, so results are bit-identical to the
// wrapper. Shapes: a [m x k], b [k x n], out [m x n]; no zero-fill.
void GemmAccumulateRaw(const float* a, const float* b, float* out, int m,
                       int k, int n);

// out = a * b (overwrite). Bit-identical to zero-filling `out` and then
// calling GemmAccumulateRaw — each output element accumulates the same
// ordered mul-then-add sequence starting from 0 — but the SIMD paths
// start their register accumulators at zero instead of storing and
// reloading a zero-filled buffer. Shapes as above.
void GemmOverwriteRaw(const float* a, const float* b, float* out, int m,
                      int k, int n);

// Runtime-dispatched elementwise loops used by the registered Add / Mul /
// ScaleRows kernels (op_kernels.cc). Pure lane operations: every vector
// width produces the scalar loop's bits, so dispatch cannot affect
// parity. out[i] = a[i] + b[i].
void EwAddRaw(const float* a, const float* b, float* out, int n);
// out row r = a row r + brow (a [rows x cols], brow [1 x cols]).
void EwAddBiasRowRaw(const float* a, const float* brow, float* out,
                     int rows, int cols);
// out[i] = a[i] * b[i].
void EwMulRaw(const float* a, const float* b, float* out, int n);
// out row r = a row r * s[r] (s [rows x 1]).
void EwScaleRowsRaw(const float* a, const float* s, float* out, int rows,
                    int cols);

namespace internal {
// The scalar GEMM loops: the fallback on hosts without AVX2 and the
// reference each SIMD kernel (simd_gemm.h) must match bit for bit.
// out[m x n] += a[m x k] * b[k x n] (GemmAccumulateRaw's loop).
void GemmAccumulateRawScalar(const float* a, const float* b, float* out,
                             int m, int k, int n);
// out[m x n] += a^T * b with a [k x m], b [k x n]
// (MatMulTransposeAAccumulate's loop).
void GemmTransposeAAccumulateRawScalar(const float* a, const float* b,
                                       float* out, int m, int k, int n);
// out[m x n] += a * b^T with a [m x k], b [n x k]
// (MatMulTransposeBAccumulate's loop).
void GemmTransposeBAccumulateRawScalar(const float* a, const float* b,
                                       float* out, int m, int k, int n);
}  // namespace internal

}  // namespace lead::nn

