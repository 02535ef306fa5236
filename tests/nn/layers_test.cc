#include "nn/layers.h"

#include <bit>
#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "nn/optimizer.h"
#include "serve/alloc_hook.h"
#include "tensor/tensor_ops.h"

namespace sttr::nn {
namespace {

/// The unfused tower: MatMul, AddRowBroadcast and Relu per hidden layer,
/// then MatMul and AddRowBroadcast for the logit — what InferenceForward
/// computed before its layers were fused.
Tensor UnfusedForward(const Mlp& mlp, const Tensor& x) {
  const std::vector<ag::Variable> params = mlp.Parameters();
  Tensor h = x;
  for (size_t p = 0; p + 2 < params.size(); p += 2) {
    h = Relu(AddRowBroadcast(MatMul(h, params[p].value()),
                             params[p + 1].value()));
  }
  return AddRowBroadcast(MatMul(h, params[params.size() - 2].value()),
                         params.back().value());
}

/// An Mlp whose biases are random too (they start at zero), so the fused
/// bias add and the ReLU both see mixed signs.
Mlp RandomMlp(size_t input_dim, const std::vector<size_t>& dims,
              uint64_t seed) {
  Rng rng(seed);
  Mlp mlp(input_dim, dims, 0.0f, rng);
  for (ag::Variable& p : mlp.Parameters()) {
    if (p.value().ndim() == 1) {
      p.mutable_value() = Tensor::RandomNormal(p.value().shape(), rng);
    }
  }
  return mlp;
}

TEST(EmbeddingTest, ForwardGathersRows) {
  Rng rng(1);
  Embedding emb(10, 4, rng);
  EXPECT_EQ(emb.num_rows(), 10u);
  EXPECT_EQ(emb.dim(), 4u);
  ag::Variable out = emb.Forward({7, 7, 0});
  EXPECT_EQ(out.value().rows(), 3u);
  EXPECT_EQ(out.value().cols(), 4u);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(out.value().at(0, j), out.value().at(1, j));
    EXPECT_EQ(out.value().at(0, j), emb.table().value().at(7, j));
  }
}

TEST(EmbeddingTest, InitStddevScales) {
  Rng rng(2);
  Embedding tight(100, 32, rng, 0.001f);
  Rng rng2(2);
  Embedding wide(100, 32, rng2, 1.0f);
  EXPECT_LT(tight.table().value().MaxAbs(), 0.01);
  EXPECT_GT(wide.table().value().MaxAbs(), 1.0);
}

TEST(EmbeddingTest, ParametersExposeTable) {
  Rng rng(3);
  Embedding emb(5, 2, rng);
  auto params = emb.Parameters();
  ASSERT_EQ(params.size(), 1u);
  EXPECT_TRUE(params[0].requires_grad());
  EXPECT_EQ(emb.NumParams(), 10u);
}

TEST(LinearTest, AffineTransform) {
  Rng rng(4);
  Linear lin(3, 2, rng);
  EXPECT_EQ(lin.in_dim(), 3u);
  EXPECT_EQ(lin.out_dim(), 2u);
  // With zero input, output equals bias (zero-initialised).
  ag::Variable x = ag::Constant(Tensor({1, 3}));
  ag::Variable y = lin.Forward(x);
  EXPECT_EQ(y.value().at(0, 0), 0.0f);
  EXPECT_EQ(y.value().at(0, 1), 0.0f);
}

TEST(LinearTest, TrainsTowardsTarget) {
  // One linear layer must fit y = 2x exactly.
  Rng rng(5);
  Linear lin(1, 1, rng);
  Adam opt(lin.Parameters(), 0.05f);
  for (int step = 0; step < 300; ++step) {
    Tensor xs({8, 1});
    Tensor ys({8, 1});
    for (size_t i = 0; i < 8; ++i) {
      xs.at(i, 0) = static_cast<float>(rng.Normal());
      ys.at(i, 0) = 2.0f * xs.at(i, 0);
    }
    ag::Variable pred = lin.Forward(ag::Constant(xs));
    ag::Variable diff = ag::Sub(pred, ag::Constant(ys));
    ag::Backward(ag::Mean(ag::Mul(diff, diff)));
    opt.Step();
  }
  ag::Variable probe =
      lin.Forward(ag::Constant(Tensor({1, 1}, std::vector<float>{3.0f})));
  EXPECT_NEAR(probe.value()[0], 6.0f, 0.1f);
}

TEST(MlpTest, OutputShapeIsSingleLogit) {
  Rng rng(6);
  Mlp mlp(8, {16, 4}, 0.0f, rng);
  EXPECT_EQ(mlp.depth(), 2u);
  Rng drop(1);
  ag::Variable y =
      mlp.Forward(ag::Constant(Tensor({5, 8})), /*training=*/false, drop);
  EXPECT_EQ(y.value().rows(), 5u);
  EXPECT_EQ(y.value().cols(), 1u);
}

TEST(MlpTest, ZeroHiddenLayersIsLinear) {
  Rng rng(7);
  Mlp mlp(4, {}, 0.0f, rng);
  EXPECT_EQ(mlp.depth(), 0u);
  Rng drop(1);
  ag::Variable y =
      mlp.Forward(ag::Constant(Tensor({2, 4})), /*training=*/false, drop);
  EXPECT_EQ(y.value().rows(), 2u);
}

TEST(MlpTest, ParameterCount) {
  Rng rng(8);
  Mlp mlp(10, {6}, 0.0f, rng);
  // (10*6 + 6) + (6*1 + 1) = 73.
  EXPECT_EQ(mlp.NumParams(), 73u);
  EXPECT_EQ(mlp.Parameters().size(), 4u);
}

TEST(MlpTest, DropoutOnlyInTraining) {
  Rng rng(9);
  Mlp mlp(4, {8}, 0.5f, rng);
  Tensor x({3, 4}, 1.0f);
  Rng d1(42), d2(42);
  ag::Variable eval1 = mlp.Forward(ag::Constant(x), false, d1);
  ag::Variable eval2 = mlp.Forward(ag::Constant(x), false, d2);
  // Deterministic without dropout.
  EXPECT_TRUE(eval1.value().AllClose(eval2.value(), 0, 0));
}

// Row counts straddle the 8-row GEMM tile (1, 7, 8, 9) and reach serving
// sizes (351 is one request's candidates, 513 one more than a batcher
// flush). The paper's tower (128-128-64-32-16-1) runs the full 32-column
// kernel and the ragged m=16 and m=1 edges; the second tower's widths
// (40, 16, 7) hit ragged edges on every layer; the third is the output
// layer alone.
TEST(MlpTest, FusedInferenceMatchesUnfusedLayersBitwise) {
  struct Tower {
    size_t input_dim;
    std::vector<size_t> dims;
  };
  const Tower towers[] = {{128, {128, 64, 32, 16}}, {13, {40, 16, 7}},
                          {9, {}}};
  for (const Tower& t : towers) {
    const Mlp mlp = RandomMlp(t.input_dim, t.dims, 77 + t.input_dim);
    for (const size_t rows : {1u, 7u, 8u, 9u, 351u, 513u, 8u}) {
      Rng rng(rows * 3 + t.input_dim);
      const Tensor x = Tensor::RandomNormal({rows, t.input_dim}, rng);
      const Tensor got = mlp.InferenceForward(x);
      const Tensor want = UnfusedForward(mlp, x);
      ASSERT_TRUE(got.SameShape(want));
      ASSERT_EQ(got.cols(), 1u);
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(got.data()[i]),
                  std::bit_cast<uint32_t>(want.data()[i]))
            << "input " << t.input_dim << ", " << rows << " rows, row " << i;
      }
    }
  }
}

TEST(MlpTest, WarmedInferenceAllocatesOnlyTheLogits) {
  ASSERT_TRUE(serve::AllocHookActive());
  const Mlp mlp = RandomMlp(128, {128, 64, 32, 16}, 5);
  Rng rng(6);
  const Tensor big = Tensor::RandomNormal({351, 128}, rng);
  const Tensor small = Tensor::RandomNormal({40, 128}, rng);
  uint64_t logits_allocs = 0;
  {
    const serve::ScopedAllocCount meter;
    const Tensor logits({351, 1});
    logits_allocs = meter.Count();
  }
  ASSERT_GT(logits_allocs, 0u);
  (void)mlp.InferenceForward(big);  // grows this thread's buffers
  for (const Tensor* x : {&big, &small, &big}) {
    const serve::ScopedAllocCount meter;
    const Tensor logits = mlp.InferenceForward(*x);
    EXPECT_EQ(meter.Count(), logits_allocs) << x->rows() << " rows";
  }
}

TEST(ModuleTest, SaveLoadRoundTrip) {
  Rng rng(10);
  Mlp a(6, {4}, 0.0f, rng);
  Mlp b(6, {4}, 0.0f, rng);  // different init
  std::stringstream ss;
  ASSERT_TRUE(a.Save(ss).ok());
  ASSERT_TRUE(b.Load(ss).ok());
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i].value().AllClose(pb[i].value(), 0, 0));
  }
}

TEST(ModuleTest, LoadShapeMismatchFails) {
  Rng rng(11);
  Mlp a(6, {4}, 0.0f, rng);
  Mlp b(6, {5}, 0.0f, rng);
  std::stringstream ss;
  ASSERT_TRUE(a.Save(ss).ok());
  EXPECT_FALSE(b.Load(ss).ok());
}

TEST(ModuleTest, CopyParamsFrom) {
  Rng rng(12);
  Embedding a(4, 3, rng), b(4, 3, rng);
  b.CopyParamsFrom(a);
  EXPECT_TRUE(
      a.table().value().AllClose(b.table().value(), 0, 0));
  // Copies values, not aliases.
  b.Parameters()[0].mutable_value()[0] += 1.0f;
  EXPECT_FALSE(a.table().value().AllClose(b.table().value(), 0, 0));
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(13);
  Embedding emb(4, 2, rng);
  ag::Backward(ag::Sum(emb.Forward({1, 2})));
  EXPECT_GT(emb.Parameters()[0].grad().MaxAbs(), 0.0);
  emb.ZeroGrad();
  EXPECT_EQ(emb.Parameters()[0].grad().MaxAbs(), 0.0);
}

}  // namespace
}  // namespace sttr::nn
