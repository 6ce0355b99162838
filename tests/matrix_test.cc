// Unit tests for the Matrix type and raw GEMM kernels.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/matrix.h"
#include "nn/simd_gemm.h"

namespace lead::nn {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  m.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
}

TEST(MatrixTest, RowVectorAndFull) {
  const Matrix v = Matrix::RowVector({1, 2, 3});
  EXPECT_EQ(v.rows(), 1);
  EXPECT_EQ(v.cols(), 3);
  const Matrix f = Matrix::Full(2, 2, 7.0f);
  EXPECT_FLOAT_EQ(f.at(1, 1), 7.0f);
}

TEST(MatrixTest, UniformRespectsBound) {
  Rng rng(1);
  const Matrix m = Matrix::Uniform(10, 10, 0.5f, &rng);
  for (int i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.data()[i]), 0.5f);
  }
}

TEST(MatrixTest, SameShape) {
  EXPECT_TRUE(Matrix(2, 3).SameShape(Matrix(2, 3)));
  EXPECT_FALSE(Matrix(2, 3).SameShape(Matrix(3, 2)));
}

// Reference naive GEMM used to validate the kernels.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float dot = 0.0f;
      for (int k = 0; k < a.cols(); ++k) dot += a.at(i, k) * b.at(k, j);
      out.at(i, j) = dot;
    }
  }
  return out;
}

class GemmSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(GemmSweep, AllThreeKernelsMatchNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(42 + m * 100 + k * 10 + n);
  const Matrix a = Matrix::Uniform(m, k, 1.0f, &rng);
  const Matrix b = Matrix::Uniform(k, n, 1.0f, &rng);
  const Matrix expected = NaiveMatMul(a, b);

  Matrix out(m, n);
  MatMulAccumulate(a, b, &out);
  for (int i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.data()[i], expected.data()[i], 1e-4);
  }

  // a^T path: build a_t with shape [k x m] so a_t^T * b == expected.
  Matrix a_t(k, m);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < k; ++j) a_t.at(j, i) = a.at(i, j);
  }
  Matrix out_ta(m, n);
  MatMulTransposeAAccumulate(a_t, b, &out_ta);
  for (int i = 0; i < out_ta.size(); ++i) {
    EXPECT_NEAR(out_ta.data()[i], expected.data()[i], 1e-4);
  }

  // b^T path: build b_t with shape [n x k].
  Matrix b_t(n, k);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < n; ++j) b_t.at(j, i) = b.at(i, j);
  }
  Matrix out_tb(m, n);
  MatMulTransposeBAccumulate(a, b_t, &out_tb);
  for (int i = 0; i < out_tb.size(); ++i) {
    EXPECT_NEAR(out_tb.data()[i], expected.data()[i], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(std::tuple<int, int, int>{1, 1, 1},
                      std::tuple<int, int, int>{1, 8, 4},
                      std::tuple<int, int, int>{4, 1, 8},
                      std::tuple<int, int, int>{3, 5, 7},
                      std::tuple<int, int, int>{16, 16, 16},
                      std::tuple<int, int, int>{7, 32, 13}));

bool BitEqual(const Matrix& x, const Matrix& y) {
  return x.SameShape(y) &&
         std::memcmp(x.data(), y.data(), sizeof(float) * x.size()) == 0;
}

// Uniform entries with every 7th an exact zero of alternating sign, so
// the kernels' +0 starting values and signed-zero sums are exercised.
Matrix UniformWithZeros(int rows, int cols, Rng* rng) {
  Matrix m = Matrix::Uniform(rows, cols, 1.0f, rng);
  for (int i = 0; i < m.size(); i += 7) {
    m.data()[i] = (i / 7) % 2 == 0 ? 0.0f : -0.0f;
  }
  return m;
}

// The public entry points dispatch to the widest kernel the host
// supports; whichever runs must reproduce the scalar loops' bits.
TEST_P(GemmSweep, DispatchedKernelsMatchScalarBitwise) {
  const auto [m, k, n] = GetParam();
  Rng rng(7 + m * 100 + k * 10 + n);
  const Matrix a = UniformWithZeros(m, k, &rng);
  const Matrix b = UniformWithZeros(k, n, &rng);
  const Matrix out0 = UniformWithZeros(m, n, &rng);

  Matrix want = out0;
  internal::GemmAccumulateRawScalar(a.data(), b.data(), want.data(), m, k, n);
  Matrix got = out0;
  MatMulAccumulate(a, b, &got);
  EXPECT_TRUE(BitEqual(got, want)) << "MatMulAccumulate";

  const Matrix a_t = Transposed(a);  // [k x m]
  want = out0;
  internal::GemmTransposeAAccumulateRawScalar(a_t.data(), b.data(),
                                              want.data(), m, k, n);
  got = out0;
  MatMulTransposeAAccumulate(a_t, b, &got);
  EXPECT_TRUE(BitEqual(got, want)) << "MatMulTransposeAAccumulate";

  const Matrix b_t = Transposed(b);  // [n x k]
  want = out0;
  internal::GemmTransposeBAccumulateRawScalar(a.data(), b_t.data(),
                                              want.data(), m, k, n);
  got = out0;
  MatMulTransposeBAccumulate(a, b_t, &got);
  EXPECT_TRUE(BitEqual(got, want)) << "MatMulTransposeBAccumulate";
  got = out0;
  MatMulTransposeBAccumulate(a, b_t, &got, &b);  // b == Transposed(b_t)
  EXPECT_TRUE(BitEqual(got, want))
      << "MatMulTransposeBAccumulate with a precomputed transpose";
}

using GemmKernel = void (*)(const float*, const float*, float*, int, int,
                            int);

// One ISA's GEMM entry points (simd_gemm.h).
struct SimdGemmKernels {
  std::string isa;
  GemmKernel accumulate;
  GemmKernel overwrite;
  GemmKernel add_product;  // input gradient, against b^T
  GemmKernel transpose_a;  // weight gradient
};

std::vector<SimdGemmKernels> AvailableSimdKernels() {
  std::vector<SimdGemmKernels> kernels;
  if (internal::GemmAvx2Available()) {
    kernels.push_back({"avx2", internal::GemmAccumulateRawAvx2,
                       internal::GemmOverwriteRawAvx2,
                       internal::GemmAddProductRawAvx2,
                       internal::GemmTransposeAAccumulateRawAvx2});
  }
  if (internal::GemmAvx512Available()) {
    kernels.push_back({"avx512", internal::GemmAccumulateRawAvx512,
                       internal::GemmOverwriteRawAvx512,
                       internal::GemmAddProductRawAvx512,
                       internal::GemmTransposeAAccumulateRawAvx512});
  }
  return kernels;
}

// Every SIMD kernel of every ISA the host runs, called directly (the
// dispatcher would only ever pick the widest), against its scalar
// reference with memcmp. The shapes straddle every strip width (8/16 for
// AVX2, 16/32 for AVX-512), the 4-row blocks over m and over p, and the
// scalar tails of each.
TEST(SimdGemmParity, EveryKernelMatchesScalarBitwise) {
  const std::vector<SimdGemmKernels> isas = AvailableSimdKernels();
  if (isas.empty()) GTEST_SKIP() << "no SIMD GEMM kernels on this host";
  int shapes = 0;
  for (const int m : {1, 3, 4, 5, 17}) {
    for (const int k : {1, 2, 3, 4, 5, 8, 64, 257}) {
      for (const int n : {1, 7, 8, 15, 16, 17, 33, 64, 256}) {
        ++shapes;
        Rng rng(1000 + m * 7919 + k * 104729 + n);
        const Matrix a = UniformWithZeros(m, k, &rng);
        const Matrix b = UniformWithZeros(k, n, &rng);
        const Matrix out0 = UniformWithZeros(m, n, &rng);
        const Matrix a_t = Transposed(a);  // [k x m], weight-gradient x
        const Matrix b_t = Transposed(b);  // [n x k], input-gradient W

        Matrix forward = out0;
        internal::GemmAccumulateRawScalar(a.data(), b.data(),
                                          forward.data(), m, k, n);
        Matrix overwrite = Matrix::Zeros(m, n);
        internal::GemmAccumulateRawScalar(a.data(), b.data(),
                                          overwrite.data(), m, k, n);
        Matrix input_grad = out0;
        internal::GemmTransposeBAccumulateRawScalar(
            a.data(), b_t.data(), input_grad.data(), m, k, n);
        Matrix weight_grad = out0;
        internal::GemmTransposeAAccumulateRawScalar(
            a_t.data(), b.data(), weight_grad.data(), m, k, n);

        for (const SimdGemmKernels& isa : isas) {
          SCOPED_TRACE(isa.isa + " m=" + std::to_string(m) +
                       " k=" + std::to_string(k) +
                       " n=" + std::to_string(n));
          Matrix got = out0;
          isa.accumulate(a.data(), b.data(), got.data(), m, k, n);
          EXPECT_TRUE(BitEqual(got, forward)) << "accumulate";
          got = out0;  // overwrite must ignore what was there
          isa.overwrite(a.data(), b.data(), got.data(), m, k, n);
          EXPECT_TRUE(BitEqual(got, overwrite)) << "overwrite";
          got = out0;
          isa.add_product(a.data(), b.data(), got.data(), m, k, n);
          EXPECT_TRUE(BitEqual(got, input_grad)) << "input gradient";
          got = out0;
          isa.transpose_a(a_t.data(), b.data(), got.data(), m, k, n);
          EXPECT_TRUE(BitEqual(got, weight_grad)) << "weight gradient";
        }
      }
    }
  }
  EXPECT_EQ(shapes, 5 * 8 * 9);
}

TEST(MatrixTest, TransposedSwapsRowsAndColumns) {
  Rng rng(3);
  const Matrix m = Matrix::Uniform(3, 5, 1.0f, &rng);
  const Matrix t = Transposed(m);
  ASSERT_EQ(t.rows(), 5);
  ASSERT_EQ(t.cols(), 3);
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) EXPECT_EQ(t.at(c, r), m.at(r, c));
  }
}

TEST(GemmTest, AccumulatesIntoExistingOutput) {
  Rng rng(9);
  const Matrix a = Matrix::Uniform(2, 2, 1.0f, &rng);
  const Matrix b = Matrix::Uniform(2, 2, 1.0f, &rng);
  Matrix out = Matrix::Full(2, 2, 10.0f);
  MatMulAccumulate(a, b, &out);
  const Matrix fresh = NaiveMatMul(a, b);
  for (int i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.data()[i], 10.0f + fresh.data()[i], 1e-4);
  }
}

}  // namespace
}  // namespace lead::nn
