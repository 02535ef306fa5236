#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"

namespace sttr::ag {
namespace {

/// Checks d(loss)/d(leaf) against central finite differences. `loss_fn`
/// must rebuild the graph from the leaf's current value on every call.
void CheckGradient(Variable& leaf,
                   const std::function<Variable()>& loss_fn,
                   double tol = 2e-2) {
  Variable loss = loss_fn();
  ASSERT_EQ(loss.value().size(), 1u);
  leaf.ZeroGrad();
  Backward(loss);
  const Tensor analytic = leaf.grad();

  const float eps = 1e-3f;
  for (size_t i = 0; i < leaf.value().size(); ++i) {
    const float orig = leaf.value()[i];
    leaf.mutable_value()[i] = orig + eps;
    const double up = loss_fn().value()[0];
    leaf.mutable_value()[i] = orig - eps;
    const double down = loss_fn().value()[0];
    leaf.mutable_value()[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol * std::max(1.0, std::fabs(numeric)))
        << "component " << i;
  }
}

TEST(BackwardTest, RequiresScalarRoot) {
  Variable x(Tensor({2}, std::vector<float>{1, 2}), true);
  EXPECT_DEATH(Backward(x), "scalar");
}

TEST(BackwardTest, LeafGradientOfSum) {
  Variable x(Tensor({3}, std::vector<float>{1, 2, 3}), true);
  Variable loss = Sum(x);
  Backward(loss);
  for (size_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(x.grad()[i], 1.0f);
}

TEST(BackwardTest, MeanDividesByCount) {
  Variable x(Tensor({4}, std::vector<float>{1, 2, 3, 4}), true);
  Backward(Mean(x));
  for (size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x.grad()[i], 0.25f);
}

TEST(BackwardTest, GradAccumulatesAcrossBackwards) {
  Variable x(Tensor({2}, std::vector<float>{1, 1}), true);
  Backward(Sum(x));
  Backward(Sum(x));
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(BackwardTest, ReusedVariableGetsBothPaths) {
  Variable x(Tensor({1}, std::vector<float>{3}), true);
  // loss = x + x -> dloss/dx = 2.
  Backward(Add(x, x));
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
}

TEST(BackwardTest, ConstantsReceiveNoGradient) {
  Variable x(Tensor({2}, std::vector<float>{1, 2}), true);
  Variable c = Constant(Tensor({2}, std::vector<float>{5, 5}));
  Backward(Sum(Mul(x, c)));
  EXPECT_FLOAT_EQ(x.grad()[0], 5.0f);
  EXPECT_FALSE(c.requires_grad());
}

TEST(GradCheckTest, MatMul) {
  Rng rng(1);
  Variable a(Tensor::RandomNormal({3, 4}, rng), true);
  Variable b(Tensor::RandomNormal({4, 2}, rng), true);
  CheckGradient(a, [&] { return Sum(MatMul(a, b)); });
  CheckGradient(b, [&] { return Sum(MatMul(a, b)); });
}

TEST(GradCheckTest, AddSubMul) {
  Rng rng(2);
  Variable a(Tensor::RandomNormal({2, 3}, rng), true);
  Variable b(Tensor::RandomNormal({2, 3}, rng), true);
  CheckGradient(a, [&] { return Sum(Add(a, b)); });
  CheckGradient(a, [&] { return Sum(Sub(a, b)); });
  CheckGradient(b, [&] { return Sum(Sub(a, b)); });
  CheckGradient(a, [&] { return Sum(Mul(a, b)); });
}

TEST(GradCheckTest, ScaleAndBias) {
  Rng rng(3);
  Variable x(Tensor::RandomNormal({3, 2}, rng), true);
  Variable bias(Tensor::RandomNormal({2}, rng), true);
  CheckGradient(x, [&] { return Sum(Scale(x, -1.7f)); });
  CheckGradient(bias, [&] { return Sum(AddRowBroadcast(x, bias)); });
  CheckGradient(x, [&] { return Sum(AddRowBroadcast(x, bias)); });
}

TEST(GradCheckTest, Activations) {
  Rng rng(4);
  Variable x(Tensor::RandomNormal({4, 3}, rng), true);
  // Shift away from the ReLU kink to keep finite differences clean.
  for (size_t i = 0; i < x.value().size(); ++i) {
    if (std::fabs(x.value()[i]) < 0.05f) x.mutable_value()[i] = 0.1f;
  }
  CheckGradient(x, [&] { return Sum(Relu(x)); });
  CheckGradient(x, [&] { return Sum(SigmoidOp(x)); });
  CheckGradient(x, [&] { return Sum(TanhOp(x)); });
}

// The ReLU backward adds the upstream gradient where the output is > 0 and
// leaves the input's gradient untouched elsewhere — at the kink, at -0.0f,
// at NaN inputs, and even when the masked-out upstream gradient is NaN.
TEST(GradCheckTest, ReluGradientMatchesMaskedReference) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> xs = {-2.0f, -0.0f, 0.0f, 3.0f, nan, 1e-30f,
                                 -1e-30f, 0.5f, -7.0f};
  const std::vector<float> ups = {nan, nan, 4.0f, -1.25f, 2.0f, -0.5f,
                                  nan, 0.75f, 1.0f};
  const size_t size = 41;  // vector body plus a ragged tail
  Tensor xv({size}), up({size}), prior({size});
  for (size_t i = 0; i < size; ++i) {
    xv.data()[i] = xs[i % xs.size()];
    up.data()[i] = ups[(i * 5) % ups.size()];
    prior.data()[i] = static_cast<float>(i % 3) - 1.0f;
  }
  Variable x(xv, true);
  // d/dx of Sum(Relu(x) * up) + Sum(x * prior): the second term seeds x's
  // gradient with `prior` so the ReLU backward accumulates onto non-zeros.
  Backward(Add(Sum(Mul(Relu(x), Constant(up))), Sum(Mul(x, Constant(prior)))));
  const Tensor& grad = x.grad();
  ASSERT_EQ(grad.size(), size);
  for (size_t i = 0; i < size; ++i) {
    float want = prior.data()[i];
    const float y = xv.data()[i] < 0 ? 0.0f : xv.data()[i];
    if (y > 0.0f) want += up.data()[i];
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(grad.data()[i])) << "element " << i;
    } else {
      EXPECT_EQ(std::bit_cast<uint32_t>(grad.data()[i]),
                std::bit_cast<uint32_t>(want))
          << "element " << i << ": " << grad.data()[i] << " vs " << want;
    }
  }
}

TEST(GradCheckTest, ConcatCols) {
  Rng rng(5);
  Variable a(Tensor::RandomNormal({2, 3}, rng), true);
  Variable b(Tensor::RandomNormal({2, 2}, rng), true);
  CheckGradient(a, [&] { return Sum(ConcatCols(a, b)); });
  CheckGradient(b, [&] { return Sum(ConcatCols(a, b)); });
}

TEST(GradCheckTest, RowwiseDot) {
  Rng rng(6);
  Variable a(Tensor::RandomNormal({3, 4}, rng), true);
  Variable b(Tensor::RandomNormal({3, 4}, rng), true);
  CheckGradient(a, [&] { return Sum(RowwiseDot(a, b)); });
  CheckGradient(b, [&] { return Sum(RowwiseDot(a, b)); });
}

TEST(GradCheckTest, GatherRows) {
  Rng rng(7);
  Variable table(Tensor::RandomNormal({5, 3}, rng), true);
  std::vector<int64_t> idx = {4, 1, 1, 0};
  CheckGradient(table, [&] { return Sum(GatherRows(table, idx)); });
}

TEST(GradCheckTest, BceWithLogits) {
  Rng rng(8);
  Variable logits(Tensor::RandomNormal({6}, rng), true);
  Tensor labels({6}, std::vector<float>{1, 0, 1, 1, 0, 0});
  CheckGradient(logits, [&] { return BceWithLogits(logits, labels); });
}

TEST(GradCheckTest, TwoLayerComposition) {
  Rng rng(9);
  Variable w1(Tensor::RandomNormal({4, 8}, rng), true);
  Variable w2(Tensor::RandomNormal({8, 1}, rng), true);
  Variable x = Constant(Tensor::RandomNormal({5, 4}, rng));
  auto loss = [&] {
    return Mean(SigmoidOp(MatMul(Relu(MatMul(x, w1)), w2)));
  };
  CheckGradient(w1, loss, 5e-2);
  CheckGradient(w2, loss, 5e-2);
}

TEST(GatherRowsTest, RecordsTouchedRows) {
  Rng rng(10);
  Variable table(Tensor::RandomNormal({6, 2}, rng), true);
  Backward(Sum(GatherRows(table, {3, 5, 3})));
  const auto& touched = table.touched_rows();
  EXPECT_EQ(touched.size(), 3u);
  // Non-touched rows carry zero gradient.
  EXPECT_FLOAT_EQ(table.grad().at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(table.grad().at(3, 0), 2.0f);  // gathered twice
  EXPECT_FLOAT_EQ(table.grad().at(5, 0), 1.0f);
  table.ZeroGrad();
  EXPECT_TRUE(table.touched_rows().empty());
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Rng rng(11);
  Variable x(Tensor::RandomNormal({10, 10}, rng), true);
  Variable y = Dropout(x, 0.5f, /*training=*/false, rng);
  EXPECT_TRUE(y.value().AllClose(x.value(), 0, 0));
}

TEST(DropoutTest, ZeroRateIsIdentity) {
  Rng rng(12);
  Variable x(Tensor::RandomNormal({4, 4}, rng), true);
  Variable y = Dropout(x, 0.0f, /*training=*/true, rng);
  EXPECT_TRUE(y.value().AllClose(x.value(), 0, 0));
}

TEST(DropoutTest, PreservesExpectationAndZeroes) {
  Rng rng(13);
  Variable x(Tensor::Ones({100, 100}), true);
  Variable y = Dropout(x, 0.3f, /*training=*/true, rng);
  size_t zeros = 0;
  for (size_t i = 0; i < y.value().size(); ++i) {
    if (y.value()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.value()[i], 1.0f / 0.7f, 1e-5);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.3, 0.02);
  // Inverted dropout keeps the mean roughly constant.
  EXPECT_NEAR(y.value().Mean(), 1.0, 0.05);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Rng rng(14);
  Variable x(Tensor::Ones({50, 1}), true);
  Variable y = Dropout(x, 0.5f, /*training=*/true, rng);
  Backward(Sum(y));
  for (size_t i = 0; i < x.value().size(); ++i) {
    EXPECT_FLOAT_EQ(x.grad()[i], y.value()[i]);  // grad == mask value
  }
}

TEST(VariableTest, UndefinedHandling) {
  Variable v;
  EXPECT_FALSE(v.defined());
  Variable w(Tensor::Scalar(1.0f));
  EXPECT_TRUE(w.defined());
  EXPECT_FALSE(w.requires_grad());
}

TEST(VariableTest, NameIsStored) {
  Variable v(Tensor::Scalar(1.0f));
  v.set_name("loss");
  EXPECT_EQ(v.name(), "loss");
}

}  // namespace
}  // namespace sttr::ag
