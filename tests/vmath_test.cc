// Project-owned transcendentals (nn/vmath.h): error against a double
// reference within each function's documented ulp bound, the pinned edge
// semantics, and bit parity of every SIMD entry point the host can run
// with the scalar lane.
//
// The tier-1 sweep visits every 4093rd float bit pattern plus a list of
// edge cases; VmathExhaustive.DISABLED_AllFloatBitPatterns runs the same
// checks over all 2^32 patterns (ci.sh runs it with
// --gtest_also_run_disabled_tests).
#include "nn/vmath.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/simd_gemm.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#define LEAD_VMATH_TEST_XINUSE 1
#endif

namespace {

using namespace lead::nn;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

double RefExp(double x) { return std::exp(x); }
double RefTanh(double x) { return std::tanh(x); }
double RefSigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }
double RefLog(double x) { return std::log(x); }

using ArrayFn = void (*)(const float*, float*, int);

// One ISA's array entry points for Exp, Tanh and Sigmoid (Log is scalar
// only: its kernels are cold).
struct Isa {
  std::string name;
  ArrayFn exp;
  ArrayFn tanh;
  ArrayFn sigmoid;
};

// The dispatched and scalar entry points always, and each SIMD path the
// host supports, called directly: dispatch alone only ever reaches the
// widest.
std::vector<Isa> ArrayPaths() {
  std::vector<Isa> paths = {
      {"dispatched", vmath::ExpArray, vmath::TanhArray, vmath::SigmoidArray},
      {"scalar", vmath::internal::ExpArrayScalar,
       vmath::internal::TanhArrayScalar, vmath::internal::SigmoidArrayScalar}};
  if (internal::GemmAvx2Available()) {
    paths.push_back({"avx2", vmath::internal::ExpArrayAvx2,
                     vmath::internal::TanhArrayAvx2,
                     vmath::internal::SigmoidArrayAvx2});
  }
  if (internal::GemmAvx512Available()) {
    paths.push_back({"avx512", vmath::internal::ExpArrayAvx512,
                     vmath::internal::TanhArrayAvx512,
                     vmath::internal::SigmoidArrayAvx512});
  }
  return paths;
}

struct Function {
  const char* name;
  float (*scalar)(float);
  double (*reference)(double);
  double max_ulp;       // the bound documented in nn/vmath.h
  ArrayFn Isa::*array;  // nullptr: scalar only
};

const Function kFunctions[] = {
    {"Exp", vmath::Exp, RefExp, 1.0, &Isa::exp},
    {"Tanh", vmath::Tanh, RefTanh, 1.5, &Isa::tanh},
    {"Sigmoid", vmath::Sigmoid, RefSigmoid, 2.5, &Isa::sigmoid},
    {"Log", vmath::Log, RefLog, 1.0, nullptr},
};

float FromBits(uint32_t bits) { return std::bit_cast<float>(bits); }
uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

// |got - ref| in units of the float ulp at ref; subnormal results count
// in units of the smallest subnormal. A float infinity and any reference
// beyond the float range both count as 2^128, one ulp past FLT_MAX, so an
// overflow at the boundary is a finite error.
double UlpError(float got, double ref) {
  if (std::isnan(ref) || std::isnan(got)) {
    return std::isnan(ref) == std::isnan(got)
               ? 0.0
               : std::numeric_limits<double>::infinity();
  }
  const double g =
      std::isinf(got) ? std::copysign(0x1p128, static_cast<double>(got)) : got;
  const double r = std::fabs(ref) >= 0x1p128 ? std::copysign(0x1p128, ref) : ref;
  int exponent = 0;
  std::frexp(r, &exponent);  // |r| in [2^(exponent-1), 2^exponent)
  const int ulp_exp = std::max(exponent - 1, -126) - 23;
  return std::fabs(g - r) / std::ldexp(1.0, ulp_exp);
}

struct Worst {
  double ulp = 0.0;
  float input = 0.0f;
  float got = 0.0f;
  int64_t checked = 0;
  int64_t failures = 0;
  std::string first_failure;

  void Fail(const std::string& what) {
    if (failures++ == 0) first_failure = what;
  }
  void Merge(const Worst& o) {
    if (o.ulp > ulp) {
      ulp = o.ulp;
      input = o.input;
      got = o.got;
    }
    checked += o.checked;
    if (o.failures > 0 && failures == 0) first_failure = o.first_failure;
    failures += o.failures;
  }
};

std::string Describe(const char* name, float x, float got) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s(%.9g [0x%08x]) = %.9g [0x%08x]", name,
                static_cast<double>(x), Bits(x), static_cast<double>(got),
                Bits(got));
  return buf;
}

// Error and pinned semantics of one function's result `got` at `x`.
void CheckPoint(const Function& fn, float x, float got, Worst* worst) {
  ++worst->checked;
  const double err = UlpError(got, fn.reference(static_cast<double>(x)));
  if (err > worst->ulp) {
    worst->ulp = err;
    worst->input = x;
    worst->got = got;
  }
  if (std::isnan(x) != std::isnan(got) && !(fn.scalar == vmath::Log && x < 0)) {
    worst->Fail("NaN in/out mismatch: " + Describe(fn.name, x, got));
  }
  if (std::isnan(x) && Bits(got) != Bits(x + x)) {
    worst->Fail("NaN payload not x + x: " + Describe(fn.name, x, got));
  }
  if (fn.scalar == vmath::Tanh) {
    if (Bits(vmath::Tanh(-x)) != (Bits(got) ^ 0x80000000u)) {
      worst->Fail("Tanh not exactly odd at " + Describe(fn.name, x, got));
    }
    if (!std::isnan(x) && !(std::fabs(got) <= 1.0f)) {
      worst->Fail("Tanh out of [-1, 1]: " + Describe(fn.name, x, got));
    }
  }
  if (fn.scalar == vmath::Sigmoid && !std::isnan(x) &&
      !(got >= 0.0f && got <= 1.0f)) {
    worst->Fail("Sigmoid out of [0, 1]: " + Describe(fn.name, x, got));
  }
  if (fn.scalar == vmath::Exp && !std::isnan(x) && !(got >= 0.0f)) {
    worst->Fail("Exp negative: " + Describe(fn.name, x, got));
  }
}

// Inputs the strided sweep can miss: zeros, subnormals, the saturation
// and overflow boundaries, the polynomial/exp switch of Tanh, infinities
// and NaNs of both signs.
std::vector<float> EdgeCases() {
  std::vector<float> edges = {
      0.0f, -0.0f, kInf, -kInf, kNaN, -kNaN,
      FromBits(0x7f800001u), FromBits(0xffc12345u),  // signaling / payload
      FromBits(1u), FromBits(0x80000001u), FromBits(0x007fffffu),
      std::numeric_limits<float>::min(), std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(), 1.0f, -1.0f, 0.5f, 2.0f,
      0.625f, -0.625f, std::nextafter(0.625f, 0.0f), 9.0f, 9.02f, 9.1f,
      -9.02f, 16.6f, 17.0f, -16.6f, -17.0f, 88.0f, 88.7228394f, 88.7228470f,
      89.0f, 100.0f, -87.3365479f, -88.7f, -100.0f, -103.972f, -103.973f,
      -104.0f, -200.0f, 0.693147182f, -0.346573591f, 0.346573591f,
      0.707106781f, 1.41421354f, 1e-8f, -1e-8f, 1e-30f, -1e-30f};
  // A dense walk over the inputs whose Exp and Sigmoid results go
  // subnormal, and over the mirrored positive range across Exp's
  // overflow boundary.
  for (float x = -104.0f; x <= -86.0f; x += 0.0625f) {
    edges.push_back(x);
    edges.push_back(-x - 0.03125f);
  }
  return edges;
}

// Checks `fn` over in[0..n): each scalar result's error and semantics,
// then each array path's output against the scalar bits.
void CheckBlock(const Function& fn, const float* in, int n, Worst* worst) {
  std::vector<float> want(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    want[i] = fn.scalar(in[i]);
    CheckPoint(fn, in[i], want[i], worst);
  }
  if (fn.array == nullptr) return;
  std::vector<float> got(want.size());
  for (const Isa& isa : ArrayPaths()) {
    (isa.*fn.array)(in, got.data(), n);
    for (int i = 0; i < n; ++i) {
      if (Bits(got[i]) != Bits(want[i])) {
        worst->Fail(isa.name + " differs from scalar " +
                    Describe(fn.name, in[i], want[i]) + ": got " +
                    Describe(fn.name, in[i], got[i]));
        break;
      }
    }
  }
}

void ExpectWithinBound(const Function& fn, const Worst& worst) {
  EXPECT_LE(worst.ulp, fn.max_ulp)
      << Describe(fn.name, worst.input, worst.got) << " is " << worst.ulp
      << " ulp from the double reference";
  EXPECT_EQ(worst.failures, 0) << worst.failures << " semantic failures; "
                               << "first: " << worst.first_failure;
  std::printf("%-8s max %.3f ulp at %s over %lld inputs\n", fn.name,
              worst.ulp, Describe(fn.name, worst.input, worst.got).c_str(),
              static_cast<long long>(worst.checked));
}

TEST(VmathTest, StridedSweepStaysWithinDocumentedUlp) {
  std::vector<float> inputs;
  for (uint64_t b = 0; b < (uint64_t{1} << 32); b += 4093) {
    inputs.push_back(FromBits(static_cast<uint32_t>(b)));
  }
  for (const float x : EdgeCases()) {
    inputs.push_back(x);
    inputs.push_back(-x);
  }
  for (const Function& fn : kFunctions) {
    Worst worst;
    CheckBlock(fn, inputs.data(), static_cast<int>(inputs.size()), &worst);
    ExpectWithinBound(fn, worst);
    EXPECT_LE(fn.max_ulp, 4.0) << fn.name;
  }
}

TEST(VmathTest, PinnedEdgeSemantics) {
  EXPECT_TRUE(std::isnan(vmath::Exp(kNaN)));
  EXPECT_EQ(Bits(vmath::Exp(-kInf)), Bits(0.0f));
  EXPECT_EQ(vmath::Exp(kInf), kInf);
  EXPECT_EQ(vmath::Exp(0.0f), 1.0f);
  EXPECT_EQ(vmath::Exp(-0.0f), 1.0f);
  EXPECT_EQ(Bits(vmath::Exp(-104.0f)), Bits(0.0f));
  EXPECT_EQ(vmath::Exp(100.0f), kInf);
  // Gradual underflow: e^-100 = 3.72e-44 is subnormal, not flushed.
  EXPECT_GT(vmath::Exp(-100.0f), 0.0f);
  EXPECT_LT(vmath::Exp(-100.0f), std::numeric_limits<float>::min());

  EXPECT_TRUE(std::isnan(vmath::Tanh(kNaN)));
  EXPECT_EQ(vmath::Tanh(kInf), 1.0f);
  EXPECT_EQ(vmath::Tanh(-kInf), -1.0f);
  EXPECT_EQ(vmath::Tanh(9.1f), 1.0f);
  EXPECT_EQ(vmath::Tanh(-50.0f), -1.0f);
  EXPECT_EQ(Bits(vmath::Tanh(0.0f)), Bits(0.0f));
  EXPECT_EQ(Bits(vmath::Tanh(-0.0f)), Bits(-0.0f));
  EXPECT_EQ(vmath::Tanh(FromBits(1u)), FromBits(1u));

  EXPECT_TRUE(std::isnan(vmath::Sigmoid(kNaN)));
  EXPECT_EQ(vmath::Sigmoid(0.0f), 0.5f);
  EXPECT_EQ(vmath::Sigmoid(-0.0f), 0.5f);
  EXPECT_EQ(vmath::Sigmoid(kInf), 1.0f);
  EXPECT_EQ(Bits(vmath::Sigmoid(-kInf)), Bits(0.0f));
  EXPECT_EQ(vmath::Sigmoid(20.0f), 1.0f);
  EXPECT_EQ(Bits(vmath::Sigmoid(-110.0f)), Bits(0.0f));
  EXPECT_GT(vmath::Sigmoid(-95.0f), 0.0f);  // subnormal, not flushed

  EXPECT_EQ(vmath::Log(0.0f), -kInf);
  EXPECT_EQ(vmath::Log(-0.0f), -kInf);
  EXPECT_TRUE(std::isnan(vmath::Log(-1.0f)));
  EXPECT_TRUE(std::isnan(vmath::Log(-kInf)));
  EXPECT_TRUE(std::isnan(vmath::Log(kNaN)));
  EXPECT_EQ(vmath::Log(kInf), kInf);
  EXPECT_EQ(Bits(vmath::Log(1.0f)), Bits(0.0f));
  EXPECT_NEAR(vmath::Log(FromBits(1u)), -103.278929903f, 1e-5f);
}

// Each path's array output against the scalar function by memcmp, with
// the inputs split into calls of every length 1..33 so every vector body
// and tail runs, then in place in one call. (The sweeps' CheckBlock only
// makes whole-array calls.)
TEST(VmathParity, EveryPathMatchesScalarBitwise) {
  std::vector<float> inputs = EdgeCases();
  for (uint64_t b = 0; b < (uint64_t{1} << 32); b += 65521) {
    inputs.push_back(FromBits(static_cast<uint32_t>(b)));
  }
  for (float x = -20.0f; x <= 20.0f; x += 0.01f) inputs.push_back(x);
  const int n = static_cast<int>(inputs.size());
  const size_t bytes = inputs.size() * sizeof(float);
  for (const Function& fn : kFunctions) {
    if (fn.array == nullptr) continue;
    std::vector<float> want(inputs.size());
    for (int i = 0; i < n; ++i) want[i] = fn.scalar(inputs[i]);
    for (const Isa& isa : ArrayPaths()) {
      std::vector<float> got(inputs.size(), -1.0f);
      for (int i = 0, len = 1; i < n; len = len % 33 + 1) {
        const int take = std::min(len, n - i);
        (isa.*fn.array)(inputs.data() + i, got.data() + i, take);
        i += take;
      }
      EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
          << isa.name << " " << fn.name << " in lengths 1..33";
      got = inputs;
      (isa.*fn.array)(got.data(), got.data(), n);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
          << isa.name << " " << fn.name << " in place";
    }
  }
}

#ifdef LEAD_VMATH_TEST_XINUSE
// XGETBV with ECX = 1 reads XINUSE; bit 2 is set while the upper halves
// of YMM0-15 hold non-zero state, bit 6 likewise for the upper 256 bits
// of ZMM0-15. False when the CPU cannot report it.
bool CanReadXinuse() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  return __get_cpuid_count(0xD, 1, &a, &b, &c, &d) != 0 && (a & 4u) != 0;
}
unsigned Xinuse() {
  unsigned eax = 0, edx = 0;
  asm volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(1));
  return eax;
}

// The callers are SSE code, which pays an AVX-SSE transition penalty on
// every instruction while the upper vector state is dirty. Each SIMD entry
// point must therefore return with it clean on every path: whole vectors
// only, tail only, and both.
TEST(VmathParity, SimdPathsReturnWithCleanUpperState) {
  if (!CanReadXinuse()) GTEST_SKIP() << "XGETBV(1) not supported";
  std::vector<float> in(40, 0.75f);
  std::vector<float> out(in.size());
  for (const Isa& isa : ArrayPaths()) {
    for (const int n : {3, 16, 17, 40}) {
      for (const ArrayFn fn : {isa.exp, isa.tanh, isa.sigmoid}) {
        fn(in.data(), out.data(), n);
        const unsigned state = Xinuse();
        EXPECT_EQ(state & ((1u << 2) | (1u << 6)), 0u)
            << isa.name << " n=" << n << " left XINUSE 0x" << std::hex
            << state;
      }
    }
  }
}
#endif

// All 2^32 bit patterns in 2^16-pattern blocks over up to 4 threads:
// each function's error bound and semantics, and every array path's bits
// against the scalar lane. Takes minutes; ci.sh runs it with
// --gtest_also_run_disabled_tests.
TEST(VmathExhaustive, DISABLED_AllFloatBitPatterns) {
  const unsigned lanes =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  constexpr uint64_t kTotal = uint64_t{1} << 32;
  constexpr int kBlock = 1 << 16;
  for (const Function& fn : kFunctions) {
    std::vector<Worst> per_lane(lanes);
    std::vector<std::thread> threads;
    for (unsigned lane = 0; lane < lanes; ++lane) {
      threads.emplace_back([&, lane] {
        std::vector<float> block(kBlock);
        for (uint64_t begin = uint64_t{lane} * kBlock; begin < kTotal;
             begin += uint64_t{lanes} * kBlock) {
          for (int i = 0; i < kBlock; ++i) {
            block[i] = FromBits(static_cast<uint32_t>(begin) +
                                static_cast<uint32_t>(i));
          }
          CheckBlock(fn, block.data(), kBlock, &per_lane[lane]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Worst worst;
    for (const Worst& w : per_lane) worst.Merge(w);
    EXPECT_EQ(worst.checked, static_cast<int64_t>(kTotal)) << fn.name;
    ExpectWithinBound(fn, worst);
  }
}

}  // namespace
