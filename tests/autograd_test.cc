// Unit tests for the autograd engine and tensor ops.
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/matrix.h"
#include "nn/ops.h"
#include "nn/variable.h"

namespace lead::nn {
namespace {

Matrix M(int rows, int cols, std::vector<float> values) {
  return Matrix(rows, cols, std::move(values));
}

TEST(VariableTest, ConstantHasNoGrad) {
  const Variable c = Variable::Constant(M(1, 2, {1.0f, 2.0f}));
  EXPECT_FALSE(c.requires_grad());
  EXPECT_EQ(c.rows(), 1);
  EXPECT_EQ(c.cols(), 2);
}

TEST(VariableTest, ParameterRequiresGrad) {
  const Variable p = Variable::Parameter(M(2, 2, {1, 2, 3, 4}));
  EXPECT_TRUE(p.requires_grad());
}

TEST(VariableTest, OpsOnConstantsProduceConstants) {
  const Variable a = Variable::Constant(M(1, 2, {1, 2}));
  const Variable b = Variable::Constant(M(1, 2, {3, 4}));
  const Variable sum = Add(a, b);
  EXPECT_FALSE(sum.requires_grad());
  EXPECT_FLOAT_EQ(sum.value().at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(sum.value().at(0, 1), 6.0f);
}

TEST(VariableTest, NoGradGuardSuppressesGraph) {
  const Variable p = Variable::Parameter(M(1, 2, {1, 2}));
  NoGradGuard guard;
  const Variable out = ScalarMul(p, 2.0f);
  EXPECT_FALSE(out.requires_grad());
}

TEST(VariableTest, GradientAccumulatesAcrossBackwardCalls) {
  Variable p = Variable::Parameter(M(1, 1, {3.0f}));
  Backward(Sum(p));
  Backward(Sum(p));
  EXPECT_FLOAT_EQ(p.grad().at(0, 0), 2.0f);
  p.ZeroGrad();
  EXPECT_FLOAT_EQ(p.grad().at(0, 0), 0.0f);
}

TEST(OpsTest, AddBroadcastsBiasRow) {
  const Variable a = Variable::Constant(M(2, 2, {1, 2, 3, 4}));
  const Variable bias = Variable::Constant(M(1, 2, {10, 20}));
  const Variable out = Add(a, bias);
  EXPECT_FLOAT_EQ(out.value().at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(out.value().at(1, 1), 24.0f);
}

TEST(OpsTest, AddBroadcastGradientSumsOverRows) {
  Variable bias = Variable::Parameter(M(1, 2, {0, 0}));
  const Variable a = Variable::Constant(M(3, 2, {1, 2, 3, 4, 5, 6}));
  Backward(Sum(Add(a, bias)));
  EXPECT_FLOAT_EQ(bias.grad().at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(bias.grad().at(0, 1), 3.0f);
}

TEST(OpsTest, MatMulValues) {
  const Variable a = Variable::Constant(M(2, 3, {1, 2, 3, 4, 5, 6}));
  const Variable b = Variable::Constant(M(3, 2, {7, 8, 9, 10, 11, 12}));
  const Variable out = MatMul(a, b);
  EXPECT_FLOAT_EQ(out.value().at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(out.value().at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(out.value().at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(out.value().at(1, 1), 154.0f);
}

TEST(OpsTest, MatMulGradient) {
  Variable a = Variable::Parameter(M(2, 2, {1, 2, 3, 4}));
  Variable b = Variable::Parameter(M(2, 2, {5, 6, 7, 8}));
  Backward(Sum(MatMul(a, b)));
  // dL/dA = 1 * B^T summed: each entry a_ij gets sum_j' b_j j'.
  EXPECT_FLOAT_EQ(a.grad().at(0, 0), 11.0f);  // 5 + 6
  EXPECT_FLOAT_EQ(a.grad().at(0, 1), 15.0f);  // 7 + 8
  EXPECT_FLOAT_EQ(b.grad().at(0, 0), 4.0f);   // 1 + 3
  EXPECT_FLOAT_EQ(b.grad().at(1, 1), 6.0f);   // 2 + 4
}

TEST(OpsTest, MulGradientIsOtherOperand) {
  Variable a = Variable::Parameter(M(1, 2, {2, 3}));
  Variable b = Variable::Parameter(M(1, 2, {5, 7}));
  Backward(Sum(Mul(a, b)));
  EXPECT_FLOAT_EQ(a.grad().at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(a.grad().at(0, 1), 7.0f);
  EXPECT_FLOAT_EQ(b.grad().at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(b.grad().at(0, 1), 3.0f);
}

TEST(OpsTest, TanhSigmoidReluValues) {
  const Variable x = Variable::Constant(M(1, 3, {-1.0f, 0.0f, 2.0f}));
  const Variable t = Tanh(x);
  EXPECT_NEAR(t.value().at(0, 0), std::tanh(-1.0f), 1e-6);
  const Variable s = Sigmoid(x);
  EXPECT_NEAR(s.value().at(0, 1), 0.5f, 1e-6);
  const Variable r = Relu(x);
  EXPECT_FLOAT_EQ(r.value().at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(r.value().at(0, 2), 2.0f);
}

TEST(OpsTest, TanhGradient) {
  Variable x = Variable::Parameter(M(1, 1, {0.5f}));
  Backward(Sum(Tanh(x)));
  const float y = std::tanh(0.5f);
  EXPECT_NEAR(x.grad().at(0, 0), 1.0f - y * y, 1e-6);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  const Variable x = Variable::Constant(M(2, 3, {1, 2, 3, -1, 0, 1}));
  const Variable y = SoftmaxRows(x);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 3; ++c) sum += y.value().at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-6);
  }
}

TEST(OpsTest, SoftmaxIsShiftInvariant) {
  const Variable a = Variable::Constant(M(1, 3, {1, 2, 3}));
  const Variable b = Variable::Constant(M(1, 3, {1001, 1002, 1003}));
  const Variable ya = SoftmaxRows(a);
  const Variable yb = SoftmaxRows(b);
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(ya.value().at(0, c), yb.value().at(0, c), 1e-5);
  }
}

TEST(OpsTest, SoftmaxGradientNumerical) {
  Variable x = Variable::Parameter(M(1, 4, {0.2f, -0.3f, 0.8f, 0.1f}));
  // Loss: weighted sum of softmax outputs so the gradient is nontrivial.
  const Variable w = Variable::Constant(M(1, 4, {1.0f, -2.0f, 0.5f, 3.0f}));
  auto loss_fn = [&] { return Sum(Mul(SoftmaxRows(x), w)); };
  Backward(loss_fn());
  const float step = 1e-3f;
  for (int i = 0; i < 4; ++i) {
    const float original = x.mutable_value().data()[i];
    x.mutable_value().data()[i] = original + step;
    const float up = loss_fn().value().at(0, 0);
    x.mutable_value().data()[i] = original - step;
    const float down = loss_fn().value().at(0, 0);
    x.mutable_value().data()[i] = original;
    EXPECT_NEAR(x.grad().data()[i], (up - down) / (2 * step), 1e-3);
  }
}

TEST(OpsTest, SliceAndConcatRoundTrip) {
  const Variable x = Variable::Constant(M(3, 2, {1, 2, 3, 4, 5, 6}));
  const Variable top = SliceRows(x, 0, 1);
  const Variable rest = SliceRows(x, 1, 2);
  const Variable back = ConcatRows({top, rest});
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_FLOAT_EQ(back.value().at(r, c), x.value().at(r, c));
    }
  }
}

TEST(OpsTest, SliceRowsGradientScattersToSource) {
  Variable x = Variable::Parameter(M(3, 2, {1, 2, 3, 4, 5, 6}));
  Backward(Sum(SliceRows(x, 1, 1)));
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(x.grad().at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(x.grad().at(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(x.grad().at(2, 0), 0.0f);
}

TEST(OpsTest, SliceColsGradient) {
  Variable x = Variable::Parameter(M(2, 3, {1, 2, 3, 4, 5, 6}));
  Backward(Sum(SliceCols(x, 1, 2)));
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(x.grad().at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(x.grad().at(1, 2), 1.0f);
}

TEST(OpsTest, ConcatColsValuesAndGradient) {
  Variable a = Variable::Parameter(M(2, 1, {1, 2}));
  Variable b = Variable::Parameter(M(2, 2, {3, 4, 5, 6}));
  const Variable out = ConcatCols({a, b});
  EXPECT_EQ(out.cols(), 3);
  EXPECT_FLOAT_EQ(out.value().at(1, 2), 6.0f);
  Backward(Sum(out));
  EXPECT_FLOAT_EQ(a.grad().at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(b.grad().at(1, 1), 1.0f);
}

TEST(OpsTest, ReverseRowsTwiceIsIdentity) {
  const Variable x = Variable::Constant(M(3, 1, {1, 2, 3}));
  const Variable twice = ReverseRows(ReverseRows(x));
  for (int r = 0; r < 3; ++r) {
    EXPECT_FLOAT_EQ(twice.value().at(r, 0), x.value().at(r, 0));
  }
  const Variable once = ReverseRows(x);
  EXPECT_FLOAT_EQ(once.value().at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(once.value().at(2, 0), 1.0f);
}

TEST(OpsTest, TransposeGradient) {
  Variable x = Variable::Parameter(M(2, 3, {1, 2, 3, 4, 5, 6}));
  const Variable w = Variable::Constant(M(3, 2, {1, 0, 0, 1, 2, 2}));
  Backward(Sum(Mul(Transpose(x), w)));
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(x.grad().at(0, 2), 2.0f);
  EXPECT_FLOAT_EQ(x.grad().at(1, 2), 2.0f);
}

TEST(OpsTest, MeanIsSumOverN) {
  const Variable x = Variable::Constant(M(2, 2, {1, 2, 3, 6}));
  EXPECT_FLOAT_EQ(Mean(x).value().at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(Sum(x).value().at(0, 0), 12.0f);
}

TEST(OpsTest, MseLossValueAndGradient) {
  Variable pred = Variable::Parameter(M(1, 2, {1.0f, 3.0f}));
  const Variable target = Variable::Constant(M(1, 2, {0.0f, 1.0f}));
  const Variable loss = MseLoss(pred, target);
  EXPECT_FLOAT_EQ(loss.value().at(0, 0), (1.0f + 4.0f) / 2.0f);
  Backward(loss);
  EXPECT_FLOAT_EQ(pred.grad().at(0, 0), 2.0f * 1.0f / 2.0f);
  EXPECT_FLOAT_EQ(pred.grad().at(0, 1), 2.0f * 2.0f / 2.0f);
}

TEST(OpsTest, KlDivergenceZeroWhenEqual) {
  const Variable p = Variable::Constant(M(1, 3, {0.2f, 0.3f, 0.5f}));
  Variable q = Variable::Parameter(M(1, 3, {0.2f, 0.3f, 0.5f}));
  EXPECT_NEAR(KlDivergence(p, q).value().at(0, 0), 0.0f, 1e-6);
}

TEST(OpsTest, KlDivergencePositiveAndGradient) {
  const Variable p = Variable::Constant(M(1, 2, {0.9f, 0.1f}));
  Variable q = Variable::Parameter(M(1, 2, {0.5f, 0.5f}));
  const Variable loss = KlDivergence(p, q);
  const float expected =
      0.9f * std::log(0.9f / 0.5f) + 0.1f * std::log(0.1f / 0.5f);
  EXPECT_NEAR(loss.value().at(0, 0), expected, 1e-5);
  Backward(loss);
  EXPECT_NEAR(q.grad().at(0, 0), -0.9f / 0.5f, 1e-5);
  EXPECT_NEAR(q.grad().at(0, 1), -0.1f / 0.5f, 1e-5);
}

TEST(OpsTest, LogClampsNearZero) {
  const Variable x = Variable::Constant(M(1, 2, {0.0f, 1.0f}));
  const Variable y = Log(x, 1e-6f);
  EXPECT_NEAR(y.value().at(0, 0), std::log(1e-6f), 1e-3);
  EXPECT_NEAR(y.value().at(0, 1), 0.0f, 1e-6);
}

TEST(OpsTest, DiamondGraphAccumulatesBothPaths) {
  // loss = sum(x * x) -> dx = 2x via two uses of the same node.
  Variable x = Variable::Parameter(M(1, 2, {3.0f, -2.0f}));
  Backward(Sum(Mul(x, x)));
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(x.grad().at(0, 1), -4.0f);
}

TEST(OpsTest, InPlaceWeightUpdateIsSeenByTheNextBackward) {
  // MatMul's input gradient reads a transpose of its weight that Backward
  // builds once per pass. Change W in place between passes, as an
  // optimizer step does: the next pass must use the new value, so W's
  // gradient equals, bit for bit, that of a fresh Parameter holding it.
  Rng rng(11);
  const Variable x = Variable::Constant(Matrix::Uniform(5, 16, 1.0f, &rng));
  Variable w = Variable::Parameter(Matrix::Uniform(16, 16, 0.5f, &rng));
  const auto loss = [&x](const Variable& weight) {
    return Sum(MatMul(MatMul(x, weight), weight));
  };
  Backward(loss(w));

  const Matrix updated = Matrix::Uniform(16, 16, 0.5f, &rng);
  float* values = w.mutable_value().data();
  for (int i = 0; i < updated.size(); ++i) values[i] = updated.data()[i];
  w.ZeroGrad();
  Backward(loss(w));

  const Variable fresh = Variable::Parameter(updated);
  Backward(loss(fresh));
  ASSERT_TRUE(w.grad().SameShape(fresh.grad()));
  EXPECT_EQ(std::memcmp(w.grad().data(), fresh.grad().data(),
                        sizeof(float) * fresh.grad().size()),
            0);
}

TEST(OpsTest, DeepChainGradient) {
  // loss = sum(tanh(tanh(...tanh(x)))), 20 deep; just verify it is finite
  // and matches a numeric estimate.
  Variable x = Variable::Parameter(M(1, 1, {0.7f}));
  auto loss_fn = [&] {
    Variable h = x;
    for (int i = 0; i < 20; ++i) h = Tanh(h);
    return Sum(h);
  };
  Backward(loss_fn());
  const float analytic = x.grad().at(0, 0);
  const float step = 1e-3f;
  x.mutable_value().at(0, 0) = 0.7f + step;
  const float up = loss_fn().value().at(0, 0);
  x.mutable_value().at(0, 0) = 0.7f - step;
  const float down = loss_fn().value().at(0, 0);
  EXPECT_NEAR(analytic, (up - down) / (2 * step), 1e-3);
}

}  // namespace
}  // namespace lead::nn
