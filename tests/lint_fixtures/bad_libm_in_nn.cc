// Fixture for the libm-in-nn rule: libm transcendentals in nn code.
// Linted with --lib (stands in for a file under src/nn/).
#include <cmath>

float Gate(float x) {
  const float a = std::tanh(x);           // line 6: std:: qualified
  const float b = expf(-x);               // line 7: bare, f suffix
  const float c = std::log1p(a * b);      // line 8: log1p family
  const double d = ::log(static_cast<double>(c));  // line 9: global ::
  return static_cast<float>(d) + std::expm1f(x);   // line 10: expm1
}

float Sigmoid(float x) {
  return 1.0f / (1.0f + exp(-x));  // line 14: after return
}
