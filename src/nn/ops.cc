#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <span>
#include <utility>

#include "common/check.h"
#include "nn/contract.h"
#include "nn/op_registry.h"
#include "nn/plan.h"

// Every op here follows one shape: compute the forward value through the
// registered kernel (the same kernel a compiled plan replays, so eager
// and plan modes are bit-identical by construction), install the backward
// closure on the tape exactly as before, then hand the application to the
// plan recorder when one is active on this thread (plan.h).
namespace lead::nn {
namespace {

using internal::Node;

const OpAttrs kNoAttrs;

// Accumulates `src` into node's grad if the node requires it.
void AccumulateGrad(Node* node, const Matrix& src) {
  if (!node->requires_grad) return;
  node->EnsureGrad();
  LEAD_CHECK(node->grad.SameShape(src));
  float* dst = node->grad.data();
  const float* s = src.data();
  for (int i = 0; i < src.size(); ++i) dst[i] += s[i];
}

TensorView View(const Variable& v) {
  return TensorView{v.value().data(), v.rows(), v.cols()};
}

void RunKernel(OpKernel kernel, const TensorView* in, int num_in,
               Matrix* out, const OpAttrs& attrs) {
  OpCall call;
  call.in = in;
  call.num_in = num_in;
  call.out = out->data();
  call.out_rows = out->rows();
  call.out_cols = out->cols();
  call.attrs = &attrs;
  kernel(call);
}

void RunKernel(OpKernel kernel, std::initializer_list<TensorView> in,
               Matrix* out, const OpAttrs& attrs) {
  RunKernel(kernel, in.begin(), static_cast<int>(in.size()), out, attrs);
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  const bool broadcast =
      b.rows() == 1 && a.rows() != 1 && b.cols() == a.cols();
  contract::Require("Add",
                    broadcast || a.value().SameShape(b.value()),
                    "operands must match or rhs must be a [1 x n] row",
                    a.value(), b.value());
  LEAD_CHECK(broadcast ||
             (a.rows() == b.rows() && a.cols() == b.cols()));
  static const OpKernel kernel = OpRegistry::Get().MustFind("Add");
  OpAttrs attrs;
  attrs.i0 = broadcast ? 1 : 0;
  Matrix out(a.rows(), a.cols());
  RunKernel(kernel, {View(a), View(b)}, &out, attrs);
  Node* an = a.node();
  Node* bn = b.node();
  Variable result = Variable::FromOp(
      std::move(out), {a, b}, [an, bn, broadcast](const Matrix& g) {
        AccumulateGrad(an, g);
        if (!bn->requires_grad) return;
        if (broadcast) {
          bn->EnsureGrad();
          float* bg = bn->grad.row(0);
          for (int r = 0; r < g.rows(); ++r) {
            const float* grow = g.row(r);
            for (int c = 0; c < g.cols(); ++c) bg[c] += grow[c];
          }
        } else {
          AccumulateGrad(bn, g);
        }
      },
      "Add");
  plan_internal::MaybeRecord("Add", {&a, &b}, result, attrs);
  return result;
}

Variable Sub(const Variable& a, const Variable& b) {
  contract::RequireSameShape("Sub", a.value(), b.value());
  LEAD_CHECK(a.value().SameShape(b.value()));
  static const OpKernel kernel = OpRegistry::Get().MustFind("Sub");
  Matrix out(a.rows(), a.cols());
  RunKernel(kernel, {View(a), View(b)}, &out, kNoAttrs);
  Node* an = a.node();
  Node* bn = b.node();
  Variable result = Variable::FromOp(std::move(out), {a, b},
                          [an, bn](const Matrix& g) {
                            AccumulateGrad(an, g);
                            if (!bn->requires_grad) return;
                            bn->EnsureGrad();
                            float* bg = bn->grad.data();
                            const float* gd = g.data();
                            for (int i = 0; i < g.size(); ++i) {
                              bg[i] -= gd[i];
                            }
                          },
      "Sub");
  plan_internal::MaybeRecord("Sub", {&a, &b}, result, kNoAttrs);
  return result;
}

Variable Mul(const Variable& a, const Variable& b) {
  contract::RequireSameShape("Mul", a.value(), b.value());
  LEAD_CHECK(a.value().SameShape(b.value()));
  static const OpKernel kernel = OpRegistry::Get().MustFind("Mul");
  Matrix out(a.rows(), a.cols());
  RunKernel(kernel, {View(a), View(b)}, &out, kNoAttrs);
  Node* an = a.node();
  Node* bn = b.node();
  Variable result = Variable::FromOp(
      std::move(out), {a, b}, [an, bn](const Matrix& g) {
        if (an->requires_grad) {
          an->EnsureGrad();
          float* ag = an->grad.data();
          const float* gd = g.data();
          const float* bv = bn->value.data();
          for (int i = 0; i < g.size(); ++i) ag[i] += gd[i] * bv[i];
        }
        if (bn->requires_grad) {
          bn->EnsureGrad();
          float* bg = bn->grad.data();
          const float* gd = g.data();
          const float* av = an->value.data();
          for (int i = 0; i < g.size(); ++i) bg[i] += gd[i] * av[i];
        }
      },
      "Mul");
  plan_internal::MaybeRecord("Mul", {&a, &b}, result, kNoAttrs);
  return result;
}

Variable ScalarMul(const Variable& a, float s) {
  static const OpKernel kernel = OpRegistry::Get().MustFind("ScalarMul");
  OpAttrs attrs;
  attrs.f0 = s;
  Matrix out(a.rows(), a.cols());
  RunKernel(kernel, {View(a)}, &out, attrs);
  Node* an = a.node();
  Variable result =
      Variable::FromOp(std::move(out), {a}, [an, s](const Matrix& g) {
    if (!an->requires_grad) return;
    an->EnsureGrad();
    float* ag = an->grad.data();
    const float* gd = g.data();
    for (int i = 0; i < g.size(); ++i) ag[i] += gd[i] * s;
  },
      "ScalarMul");
  plan_internal::MaybeRecord("ScalarMul", {&a}, result, attrs);
  return result;
}

Variable MatMul(const Variable& a, const Variable& b) {
  contract::RequireInner("MatMul", a.value(), b.value());
  LEAD_CHECK_EQ(a.cols(), b.rows());
  static const OpKernel kernel = OpRegistry::Get().MustFind("MatMul");
  Matrix out(a.rows(), b.cols());
  RunKernel(kernel, {View(a), View(b)}, &out, kNoAttrs);
  Node* an = a.node();
  Node* bn = b.node();
  Variable result = Variable::FromOp(
      std::move(out), {a, b}, [an, bn](const Matrix& g) {
        if (an->requires_grad) {
          an->EnsureGrad();
          MatMulTransposeBAccumulate(g, bn->value, &an->grad,
                                     internal::PassTranspose(bn));
        }
        if (bn->requires_grad) {
          bn->EnsureGrad();
          MatMulTransposeAAccumulate(an->value, g, &bn->grad);
        }
      },
      "MatMul");
  plan_internal::MaybeRecord("MatMul", {&a, &b}, result, kNoAttrs);
  return result;
}

Variable Transpose(const Variable& a) {
  static const OpKernel kernel = OpRegistry::Get().MustFind("Transpose");
  Matrix out(a.cols(), a.rows());
  RunKernel(kernel, {View(a)}, &out, kNoAttrs);
  Node* an = a.node();
  Variable result =
      Variable::FromOp(std::move(out), {a}, [an](const Matrix& g) {
    if (!an->requires_grad) return;
    an->EnsureGrad();
    for (int r = 0; r < g.rows(); ++r) {
      for (int c = 0; c < g.cols(); ++c) {
        an->grad.at(c, r) += g.at(r, c);
      }
    }
  },
      "Transpose");
  plan_internal::MaybeRecord("Transpose", {&a}, result, kNoAttrs);
  return result;
}

namespace {

template <typename DerivFromOutputFn>
Variable ElementwiseOp(const char* name, OpKernel kernel, const Variable& a,
                       DerivFromOutputFn deriv) {
  Matrix out(a.rows(), a.cols());
  RunKernel(kernel, {View(a)}, &out, kNoAttrs);
  std::function<void(const Matrix&)> backward;
  if (internal::KeepsBackward(std::span(&a, 1))) {
    // The derivative is computed from the op's output value, so the
    // closure snapshots the output matrix.
    backward = [an = a.node(), deriv, out_copy = out](const Matrix& g) {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      float* ag = an->grad.data();
      const float* gd = g.data();
      const float* ov = out_copy.data();
      for (int i = 0; i < g.size(); ++i) {
        ag[i] += gd[i] * deriv(ov[i]);
      }
    };
  }
  Variable result =
      Variable::FromOp(std::move(out), {a}, std::move(backward), name);
  plan_internal::MaybeRecord(name, {&a}, result, kNoAttrs);
  return result;
}

}  // namespace

Variable Tanh(const Variable& a) {
  static const OpKernel kernel = OpRegistry::Get().MustFind("Tanh");
  return ElementwiseOp("Tanh", kernel, a,
                       [](float y) { return 1.0f - y * y; });
}

Variable Sigmoid(const Variable& a) {
  static const OpKernel kernel = OpRegistry::Get().MustFind("Sigmoid");
  return ElementwiseOp("Sigmoid", kernel, a,
                       [](float y) { return y * (1.0f - y); });
}

Variable Relu(const Variable& a) {
  static const OpKernel kernel = OpRegistry::Get().MustFind("Relu");
  return ElementwiseOp("Relu", kernel, a,
                       [](float y) { return y > 0.0f ? 1.0f : 0.0f; });
}

Variable Log(const Variable& a, float eps) {
  static const OpKernel kernel = OpRegistry::Get().MustFind("Log");
  OpAttrs attrs;
  attrs.f0 = eps;
  Matrix out(a.rows(), a.cols());
  RunKernel(kernel, {View(a)}, &out, attrs);
  std::function<void(const Matrix&)> backward;
  if (internal::KeepsBackward(std::span(&a, 1))) {
    // Derivative needs the (clamped) input, not the output.
    Matrix clamped_in = a.value();
    float* cd = clamped_in.data();
    for (int i = 0; i < clamped_in.size(); ++i) {
      cd[i] = std::max(cd[i], eps);
    }
    backward = [an = a.node(),
                clamped_in = std::move(clamped_in)](const Matrix& g) {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      float* ag = an->grad.data();
      const float* gd = g.data();
      const float* cv = clamped_in.data();
      for (int i = 0; i < g.size(); ++i) ag[i] += gd[i] / cv[i];
    };
  }
  Variable result =
      Variable::FromOp(std::move(out), {a}, std::move(backward), "Log");
  plan_internal::MaybeRecord("Log", {&a}, result, attrs);
  return result;
}

Variable SoftmaxRows(const Variable& a) {
  static const OpKernel kernel = OpRegistry::Get().MustFind("SoftmaxRows");
  Matrix out(a.rows(), a.cols());
  RunKernel(kernel, {View(a)}, &out, kNoAttrs);
  std::function<void(const Matrix&)> backward;
  if (internal::KeepsBackward(std::span(&a, 1))) {
    backward = [an = a.node(), out_copy = out](const Matrix& g) {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      for (int r = 0; r < g.rows(); ++r) {
        const float* grow = g.row(r);
        const float* yrow = out_copy.row(r);
        float dot = 0.0f;
        for (int c = 0; c < g.cols(); ++c) dot += grow[c] * yrow[c];
        float* arow = an->grad.row(r);
        for (int c = 0; c < g.cols(); ++c) {
          arow[c] += (grow[c] - dot) * yrow[c];
        }
      }
    };
  }
  Variable result = Variable::FromOp(std::move(out), {a}, std::move(backward),
                                     "SoftmaxRows");
  plan_internal::MaybeRecord("SoftmaxRows", {&a}, result, kNoAttrs);
  return result;
}

Variable AddScalar(const Variable& a, float s) {
  static const OpKernel kernel = OpRegistry::Get().MustFind("AddScalar");
  OpAttrs attrs;
  attrs.f0 = s;
  Matrix out(a.rows(), a.cols());
  RunKernel(kernel, {View(a)}, &out, attrs);
  Node* an = a.node();
  Variable result =
      Variable::FromOp(std::move(out), {a}, [an](const Matrix& g) {
    AccumulateGrad(an, g);
  },
      "AddScalar");
  plan_internal::MaybeRecord("AddScalar", {&a}, result, attrs);
  return result;
}

Variable SliceCols(const Variable& a, int start, int len) {
  contract::RequireSpan("SliceCols", a.value(), start, len, a.cols(),
                        "column slice [start, start+len) out of range");
  LEAD_CHECK_GE(start, 0);
  LEAD_CHECK_GE(len, 1);
  LEAD_CHECK_LE(start + len, a.cols());
  static const OpKernel kernel = OpRegistry::Get().MustFind("SliceCols");
  OpAttrs attrs;
  attrs.i0 = start;
  Matrix out(a.rows(), len);
  RunKernel(kernel, {View(a)}, &out, attrs);
  Node* an = a.node();
  Variable result = Variable::FromOp(std::move(out), {a},
                          [an, start](const Matrix& g) {
                            if (!an->requires_grad) return;
                            an->EnsureGrad();
                            for (int r = 0; r < g.rows(); ++r) {
                              const float* grow = g.row(r);
                              float* arow = an->grad.row(r) + start;
                              for (int c = 0; c < g.cols(); ++c) {
                                arow[c] += grow[c];
                              }
                            }
                          },
      "SliceCols");
  plan_internal::MaybeRecord("SliceCols", {&a}, result, attrs);
  return result;
}

Variable SliceRows(const Variable& a, int start, int len) {
  contract::RequireSpan("SliceRows", a.value(), start, len, a.rows(),
                        "row slice [start, start+len) out of range");
  LEAD_CHECK_GE(start, 0);
  LEAD_CHECK_GE(len, 1);
  LEAD_CHECK_LE(start + len, a.rows());
  static const OpKernel kernel = OpRegistry::Get().MustFind("SliceRows");
  OpAttrs attrs;
  attrs.i0 = start;
  Matrix out(len, a.cols());
  RunKernel(kernel, {View(a)}, &out, attrs);
  Node* an = a.node();
  Variable result = Variable::FromOp(std::move(out), {a},
                          [an, start](const Matrix& g) {
                            if (!an->requires_grad) return;
                            an->EnsureGrad();
                            for (int r = 0; r < g.rows(); ++r) {
                              const float* grow = g.row(r);
                              float* arow = an->grad.row(start + r);
                              for (int c = 0; c < g.cols(); ++c) {
                                arow[c] += grow[c];
                              }
                            }
                          },
      "SliceRows");
  plan_internal::MaybeRecord("SliceRows", {&a}, result, attrs);
  return result;
}

Variable ConcatRows(const std::vector<Variable>& parts) {
  LEAD_CHECK(!parts.empty());
  const int cols = parts[0].cols();
  int rows = 0;
  for (const Variable& p : parts) {
    contract::Require("ConcatRows", p.cols() == cols,
                      "parts must share the column count", parts[0].value(),
                      p.value());
    LEAD_CHECK_EQ(p.cols(), cols);
    rows += p.rows();
  }
  static const OpKernel kernel = OpRegistry::Get().MustFind("ConcatRows");
  std::vector<TensorView> views;
  views.reserve(parts.size());
  for (const Variable& p : parts) views.push_back(View(p));
  Matrix out(rows, cols);
  RunKernel(kernel, views.data(), static_cast<int>(views.size()), &out,
            kNoAttrs);
  std::vector<Node*> nodes;
  std::vector<int> offsets;
  std::vector<int> sizes;
  nodes.reserve(parts.size());
  int off = 0;
  for (const Variable& p : parts) {
    nodes.push_back(p.node());
    offsets.push_back(off);
    sizes.push_back(p.rows());
    off += p.rows();
  }
  Variable result = Variable::FromOp(
      std::move(out), parts,
      [nodes = std::move(nodes), offsets = std::move(offsets),
       sizes = std::move(sizes)](const Matrix& g) {
        for (size_t k = 0; k < nodes.size(); ++k) {
          Node* n = nodes[k];
          if (!n->requires_grad) continue;
          n->EnsureGrad();
          for (int r = 0; r < sizes[k]; ++r) {
            const float* grow = g.row(offsets[k] + r);
            float* nrow = n->grad.row(r);
            for (int c = 0; c < g.cols(); ++c) nrow[c] += grow[c];
          }
        }
      },
      "ConcatRows");
  plan_internal::MaybeRecordMany("ConcatRows", parts, result, kNoAttrs);
  return result;
}

Variable ConcatCols(const std::vector<Variable>& parts) {
  LEAD_CHECK(!parts.empty());
  const int rows = parts[0].rows();
  int cols = 0;
  for (const Variable& p : parts) {
    contract::Require("ConcatCols", p.rows() == rows,
                      "parts must share the row count", parts[0].value(),
                      p.value());
    LEAD_CHECK_EQ(p.rows(), rows);
    cols += p.cols();
  }
  static const OpKernel kernel = OpRegistry::Get().MustFind("ConcatCols");
  std::vector<TensorView> views;
  views.reserve(parts.size());
  for (const Variable& p : parts) views.push_back(View(p));
  Matrix out(rows, cols);
  RunKernel(kernel, views.data(), static_cast<int>(views.size()), &out,
            kNoAttrs);
  std::vector<Node*> nodes;
  std::vector<int> offsets;
  std::vector<int> widths;
  int off = 0;
  for (const Variable& p : parts) {
    nodes.push_back(p.node());
    offsets.push_back(off);
    widths.push_back(p.cols());
    off += p.cols();
  }
  Variable result = Variable::FromOp(
      std::move(out), parts,
      [nodes = std::move(nodes), offsets = std::move(offsets),
       widths = std::move(widths), rows](const Matrix& g) {
        for (size_t k = 0; k < nodes.size(); ++k) {
          Node* n = nodes[k];
          if (!n->requires_grad) continue;
          n->EnsureGrad();
          for (int r = 0; r < rows; ++r) {
            const float* grow = g.row(r) + offsets[k];
            float* nrow = n->grad.row(r);
            for (int c = 0; c < widths[k]; ++c) nrow[c] += grow[c];
          }
        }
      },
      "ConcatCols");
  plan_internal::MaybeRecordMany("ConcatCols", parts, result, kNoAttrs);
  return result;
}

Variable ReverseRows(const Variable& a) {
  static const OpKernel kernel = OpRegistry::Get().MustFind("ReverseRows");
  Matrix out(a.rows(), a.cols());
  RunKernel(kernel, {View(a)}, &out, kNoAttrs);
  Node* an = a.node();
  Variable result =
      Variable::FromOp(std::move(out), {a}, [an](const Matrix& g) {
    if (!an->requires_grad) return;
    an->EnsureGrad();
    for (int r = 0; r < g.rows(); ++r) {
      const float* grow = g.row(r);
      float* arow = an->grad.row(g.rows() - 1 - r);
      for (int c = 0; c < g.cols(); ++c) arow[c] += grow[c];
    }
  },
      "ReverseRows");
  plan_internal::MaybeRecord("ReverseRows", {&a}, result, kNoAttrs);
  return result;
}

Variable Sum(const Variable& a) {
  static const OpKernel kernel = OpRegistry::Get().MustFind("Sum");
  Matrix out(1, 1);
  RunKernel(kernel, {View(a)}, &out, kNoAttrs);
  Node* an = a.node();
  Variable result = Variable::FromOp(std::move(out), {a},
                          [an](const Matrix& g) {
                            if (!an->requires_grad) return;
                            an->EnsureGrad();
                            const float go = g.at(0, 0);
                            float* ag = an->grad.data();
                            for (int i = 0; i < an->grad.size(); ++i) {
                              ag[i] += go;
                            }
                          },
      "Sum");
  plan_internal::MaybeRecord("Sum", {&a}, result, kNoAttrs);
  return result;
}

Variable Mean(const Variable& a) {
  LEAD_CHECK_GT(a.value().size(), 0);
  return ScalarMul(Sum(a), 1.0f / static_cast<float>(a.value().size()));
}

Variable RowSum(const Variable& a) {
  static const OpKernel kernel = OpRegistry::Get().MustFind("RowSum");
  const int n = a.cols();
  Matrix out(a.rows(), 1);
  RunKernel(kernel, {View(a)}, &out, kNoAttrs);
  Node* an = a.node();
  Variable result =
      Variable::FromOp(std::move(out), {a}, [an, n](const Matrix& g) {
    if (!an->requires_grad) return;
    an->EnsureGrad();
    for (int r = 0; r < g.rows(); ++r) {
      const float go = g.at(r, 0);
      float* arow = an->grad.row(r);
      for (int c = 0; c < n; ++c) arow[c] += go;
    }
  },
      "RowSum");
  plan_internal::MaybeRecord("RowSum", {&a}, result, kNoAttrs);
  return result;
}

Variable ScaleRows(const Variable& a, const Variable& s) {
  contract::Require("ScaleRows", s.rows() == a.rows() && s.cols() == 1,
                    "scale operand must be [rows(a) x 1]", a.value(),
                    s.value());
  LEAD_CHECK_EQ(s.rows(), a.rows());
  LEAD_CHECK_EQ(s.cols(), 1);
  static const OpKernel kernel = OpRegistry::Get().MustFind("ScaleRows");
  Matrix out(a.rows(), a.cols());
  RunKernel(kernel, {View(a), View(s)}, &out, kNoAttrs);
  Node* an = a.node();
  Node* sn = s.node();
  Variable result = Variable::FromOp(
      std::move(out), {a, s}, [an, sn](const Matrix& g) {
        if (an->requires_grad) {
          an->EnsureGrad();
          for (int r = 0; r < g.rows(); ++r) {
            const float sv = sn->value.at(r, 0);
            const float* grow = g.row(r);
            float* arow = an->grad.row(r);
            for (int c = 0; c < g.cols(); ++c) arow[c] += grow[c] * sv;
          }
        }
        if (sn->requires_grad) {
          sn->EnsureGrad();
          for (int r = 0; r < g.rows(); ++r) {
            const float* grow = g.row(r);
            const float* arow = an->value.row(r);
            float dot = 0.0f;
            for (int c = 0; c < g.cols(); ++c) dot += grow[c] * arow[c];
            sn->grad.at(r, 0) += dot;
          }
        }
      },
      "ScaleRows");
  plan_internal::MaybeRecord("ScaleRows", {&a, &s}, result, kNoAttrs);
  return result;
}

Variable GatherRows(const Variable& a, std::vector<int> rows) {
  const int n = a.cols();
  static const OpKernel kernel = OpRegistry::Get().MustFind("GatherRows");
  OpAttrs attrs;
  attrs.ints = std::move(rows);
  for (size_t i = 0; i < attrs.ints.size(); ++i) {
    contract::RequireIndex("GatherRows", a.value(), attrs.ints[i], a.rows(),
                           "gather row index out of range");
    LEAD_CHECK_GE(attrs.ints[i], 0);
    LEAD_CHECK_LT(attrs.ints[i], a.rows());
  }
  Matrix out(static_cast<int>(attrs.ints.size()), n);
  RunKernel(kernel, {View(a)}, &out, attrs);
  Node* an = a.node();
  // Under NoGrad the closure is discarded by FromOp, so the row list must
  // survive in `attrs` for the recorder; with gradients enabled the
  // recorder is necessarily inactive and the list moves into the closure.
  Variable result = Variable::FromOp(
      std::move(out), {a},
      [an, rows = internal::NoGradEnabled() ? std::vector<int>()
                                            : std::move(attrs.ints)](
          const Matrix& g) {
        if (!an->requires_grad) return;
        an->EnsureGrad();
        for (size_t i = 0; i < rows.size(); ++i) {
          const float* grow = g.row(static_cast<int>(i));
          float* arow = an->grad.row(rows[i]);
          for (int c = 0; c < g.cols(); ++c) arow[c] += grow[c];
        }
      },
      "GatherRows");
  plan_internal::MaybeRecord("GatherRows", {&a}, result, attrs);
  return result;
}

Variable MseLoss(const Variable& prediction, const Variable& target) {
  contract::RequireSameShape("MseLoss", prediction.value(), target.value());
  LEAD_CHECK(prediction.value().SameShape(target.value()));
  const int n = prediction.value().size();
  LEAD_CHECK_GT(n, 0);
  static const OpKernel kernel = OpRegistry::Get().MustFind("MseLoss");
  Matrix out(1, 1);
  RunKernel(kernel, {View(prediction), View(target)}, &out, kNoAttrs);
  Node* pn = prediction.node();
  Node* tn = target.node();
  const float inv_n = 1.0f / static_cast<float>(n);
  Variable result = Variable::FromOp(
      std::move(out), {prediction, target},
      [pn, tn, inv_n, n](const Matrix& g) {
        const float go = g.at(0, 0);
        const float* pv = pn->value.data();
        const float* tv = tn->value.data();
        if (pn->requires_grad) {
          pn->EnsureGrad();
          float* pg = pn->grad.data();
          for (int i = 0; i < n; ++i) {
            pg[i] += go * 2.0f * (pv[i] - tv[i]) * inv_n;
          }
        }
        if (tn->requires_grad) {
          tn->EnsureGrad();
          float* tg = tn->grad.data();
          for (int i = 0; i < n; ++i) {
            tg[i] -= go * 2.0f * (pv[i] - tv[i]) * inv_n;
          }
        }
      },
      "MseLoss");
  plan_internal::MaybeRecord("MseLoss", {&prediction, &target}, result,
                             kNoAttrs);
  return result;
}

Variable Dropout(const Variable& a, float p, Rng* rng) {
  LEAD_CHECK_GE(p, 0.0f);
  LEAD_CHECK_LT(p, 1.0f);
  // p == 0 exactly means dropout is disabled; any nonzero p drops. Under
  // NoGrad (and therefore under recording) this is the identity, so plans
  // never contain a dropout step.
  if (p == 0.0f || internal::NoGradEnabled()) return a;  // lead-lint: allow(float-eq)
  const float keep_scale = 1.0f / (1.0f - p);
  Matrix mask(a.rows(), a.cols());
  for (int i = 0; i < mask.size(); ++i) {
    mask.data()[i] = rng->Bernoulli(p) ? 0.0f : keep_scale;
  }
  return Mul(a, Variable::Constant(std::move(mask)));
}

Variable KlDivergence(const Variable& label, const Variable& prediction,
                      float eps) {
  contract::RequireSameShape("KlDivergence", label.value(),
                             prediction.value());
  LEAD_CHECK(label.value().SameShape(prediction.value()));
  const int n = label.value().size();
  static const OpKernel kernel = OpRegistry::Get().MustFind("KlDivergence");
  OpAttrs attrs;
  attrs.f0 = eps;
  Matrix out(1, 1);
  RunKernel(kernel, {View(label), View(prediction)}, &out, attrs);
  Node* pn = prediction.node();
  Node* ln = label.node();
  Variable result = Variable::FromOp(
      std::move(out), {label, prediction},
      [pn, ln, eps, n](const Matrix& g) {
        if (!pn->requires_grad) return;
        pn->EnsureGrad();
        const float go = g.at(0, 0);
        const float* lvd = ln->value.data();
        const float* pvd = pn->value.data();
        float* pg = pn->grad.data();
        for (int i = 0; i < n; ++i) {
          if (lvd[i] <= 0.0f) continue;
          pg[i] -= go * lvd[i] / std::max(pvd[i], eps);
        }
      },
      "KlDivergence");
  plan_internal::MaybeRecord("KlDivergence", {&label, &prediction}, result,
                             attrs);
  return result;
}

}  // namespace lead::nn
