// vmath_fit: fits the polynomial coefficients of src/nn/vmath_lane.h.
//
// Each project-owned transcendental reduces its argument to a short
// interval and then evaluates a fixed-degree polynomial for a smooth
// remainder g whose value stays away from zero on that interval:
//
//   exp:  e^r  = 1 + r + r^2 g(r),             g(r) = (e^r - 1 - r) / r^2,
//         r in [-ln2/2, ln2/2], degree 5
//   tanh: tanh(x) = x + x z g(z), z = x^2,     g(z) = (tanh(x)/x - 1) / z,
//         x in [0, 0.625] (z in [0, 0.390625]), degree 5
//   log:  log(1+f) = f - f^2/2 + f^3 g(f),     g(f) = (log1p(f) - f + f^2/2) / f^3,
//         f in [sqrt(1/2) - 1, sqrt(2) - 1], degree 8
//
// Method: interpolation at the degree+1 Chebyshev nodes of the interval
// (near-minimax in the uniform norm), solved for monomial coefficients by
// Gaussian elimination with partial pivoting, all in long double. The
// remainder functions are evaluated in long double too, by Taylor series
// where the closed form cancels. Coefficients are then rounded once to
// float and printed with 9 significant digits, which round-trips a float
// exactly; the tool also prints the fit's maximum |g - p| over a
// 100001-point grid, before and after that rounding.
//
// Usage: vmath_fit
// Paste the printed arrays into src/nn/vmath_lane.h. The tool reads
// nothing and links nothing from the library.
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

namespace {

using Real = long double;

constexpr Real kPi = 3.14159265358979323846264338327950288L;

// Taylor series of (e^r - 1 - r) / r^2 = sum_k r^k / (k + 2)!.
Real ExpRemainder(Real r) {
  Real term = 0.5L;  // 1/2!
  Real sum = 0.0L;
  for (int k = 0; k < 40; ++k) {
    sum += term;
    term *= r / static_cast<Real>(k + 3);
  }
  return sum;
}

// (tanh(x)/x - 1) / x^2 at x = sqrt(z); the limit at z = 0 is -1/3.
Real TanhRemainder(Real z) {
  if (z < 1e-6L) return -1.0L / 3.0L + z * 2.0L / 15.0L;
  const Real x = std::sqrt(z);
  return (std::tanh(x) / x - 1.0L) / z;
}

// (log1p(f) - f + f^2/2) / f^3 = sum_k (-1)^k f^k / (k + 3) for small
// |f|, the closed form elsewhere.
Real LogRemainder(Real f) {
  if (std::fabs(f) < 0.05L) {
    Real sum = 0.0L;
    Real power = 1.0L;
    for (int k = 0; k < 40; ++k) {
      sum += ((k % 2 == 0) ? power : -power) / static_cast<Real>(k + 3);
      power *= f;
    }
    return sum;
  }
  return (std::log1p(f) - f + 0.5L * f * f) / (f * f * f);
}

// Solves a * x = b in place (n x n, row-major) with partial pivoting.
std::vector<Real> Solve(std::vector<Real> a, std::vector<Real> b) {
  const size_t n = b.size();
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r * n + col]) > std::fabs(a[pivot * n + col])) pivot = r;
    }
    for (size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
    std::swap(b[col], b[pivot]);
    for (size_t r = col + 1; r < n; ++r) {
      const Real factor = a[r * n + col] / a[col * n + col];
      for (size_t c = col; c < n; ++c) a[r * n + c] -= factor * a[col * n + c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<Real> x(n);
  for (size_t i = n; i-- > 0;) {
    Real sum = b[i];
    for (size_t c = i + 1; c < n; ++c) sum -= a[i * n + c] * x[c];
    x[i] = sum / a[i * n + i];
  }
  return x;
}

template <typename Coef>
Real Horner(const std::vector<Coef>& c, Real x) {
  Real p = 0.0L;
  for (size_t k = c.size(); k-- > 0;) p = p * x + static_cast<Real>(c[k]);
  return p;
}

void FitAndPrint(const char* name, const char* what, Real (*g)(Real), Real lo,
         Real hi, int degree) {
  const size_t n = static_cast<size_t>(degree) + 1;
  std::vector<Real> vandermonde(n * n);
  std::vector<Real> values(n);
  for (size_t i = 0; i < n; ++i) {
    const Real node =
        0.5L * (lo + hi) +
        0.5L * (hi - lo) *
            std::cos(kPi * static_cast<Real>(2 * i + 1) /
                     static_cast<Real>(2 * n));
    Real power = 1.0L;
    for (size_t k = 0; k < n; ++k) {
      vandermonde[i * n + k] = power;
      power *= node;
    }
    values[i] = g(node);
  }
  const std::vector<Real> coef = Solve(vandermonde, values);
  std::vector<float> rounded(coef.begin(), coef.end());
  Real err = 0.0L;
  Real err_rounded = 0.0L;
  constexpr int kGrid = 100000;
  for (int i = 0; i <= kGrid; ++i) {
    const Real x = lo + (hi - lo) * static_cast<Real>(i) / kGrid;
    const Real exact = g(x);
    err = std::fmax(err, std::fabs(Horner(coef, x) - exact));
    err_rounded = std::fmax(err_rounded, std::fabs(Horner(rounded, x) - exact));
  }
  std::printf("// %s: %s\n//   on [%.9Lg, %.9Lg], degree %d, Chebyshev-node "
              "interpolation in long double;\n//   max |g - p| = %.3Lg "
              "(%.3Lg with float coefficients)\n",
              name, what, lo, hi, degree, err, err_rounded);
  std::printf("constexpr float k%sPoly[] = {", name);
  for (size_t k = 0; k < n; ++k) {
    std::printf("%s%.9gf", k == 0 ? "" : ", ", static_cast<double>(rounded[k]));
  }
  std::printf("};\n\n");
}

}  // namespace

int main() {
  const Real ln2 = std::log(2.0L);
  FitAndPrint("Exp", "g(r) = (e^r - 1 - r) / r^2", ExpRemainder, -0.5L * ln2,
      0.5L * ln2, 5);
  FitAndPrint("Tanh", "g(z) = (tanh(sqrt z) / sqrt z - 1) / z", TanhRemainder, 0.0L,
      0.390625L, 5);
  FitAndPrint("Log", "g(f) = (log1p(f) - f + f^2/2) / f^3", LogRemainder,
      std::sqrt(0.5L) - 1.0L, std::sqrt(2.0L) - 1.0L, 8);
  return 0;
}
