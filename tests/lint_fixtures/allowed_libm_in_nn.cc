// Fixture: a deliberate libm call in nn code carries the allow marker,
// so the file lints clean under --lib.
#include <cmath>

double Reference(double x) {
  return std::exp(x);  // lead-lint: allow(libm-in-nn)
}
