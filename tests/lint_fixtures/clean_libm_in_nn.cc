// Fixture: nn code that mentions the libm names without calling libm;
// must lint clean under --lib. A comment saying std::exp(x) is fine.
#include <string>

namespace vmath {
float Exp(float x);
float Log(float x);
}  // namespace vmath

struct Recorder {
  void log(const std::string& line);
};

namespace mylib {
float tanh(float x);
}  // namespace mylib

float Gate(float x, Recorder* rec, Recorder& ref) {
  rec->log("std::exp(x) in a string");  // member call, not libm
  ref.log("tanh");
  const float exp = vmath::Exp(x);      // identifier named exp, no call
  return exp + vmath::Log(x) + mylib::tanh(x);  // other namespaces
}
