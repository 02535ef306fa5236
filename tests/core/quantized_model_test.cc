// Quantized serving snapshots (core/quantized_model.h): scoring parity
// against the fp32 model within the documented error bounds, internal
// Score/ScoreBatch/ScorePairs agreement, the v2 checkpoint round trip, and
// the version accept/reject matrix keeping training checkpoints and serving
// artifacts from crossing paths.

#include "core/quantized_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "../scratch_dir.h"
#include "core/checkpoint.h"
#include "core/st_transrec.h"
#include "data/synth/world_generator.h"
#include "tensor/quant.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace sttr {
namespace {

struct Fixture {
  synth::SynthWorld world;
  CrossCitySplit split;
};

Fixture MakeFixture() {
  auto cfg = synth::SynthWorldConfig::FoursquareLike(synth::Scale::kTiny);
  Fixture f{synth::GenerateWorld(cfg), {}};
  f.split = MakeCrossCitySplit(f.world.dataset, cfg.target_city);
  return f;
}

StTransRecConfig SmallConfig() {
  StTransRecConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_dims = {16};
  cfg.num_epochs = 2;
  cfg.batch_size = 32;
  cfg.mmd_batch = 8;
  return cfg;
}

/// All (test user, target-city POI) pairs, the serving workload.
void TestPairs(const Fixture& f, std::vector<UserId>* users,
               std::vector<PoiId>* pois) {
  const auto& city_pois = f.world.dataset.PoisInCity(f.split.target_city);
  for (const CrossCitySplit::TestUser& tu : f.split.test_users) {
    for (const PoiId p : city_pois) {
      users->push_back(tu.user);
      pois->push_back(p);
    }
  }
}

/// QuantizedModel::ScorePairs recomputed the way it ran before its tail was
/// fused: the int8 layer 0 in the same float order into a fresh tensor,
/// then MatMul, AddRowBroadcast and Relu per tail layer.
std::vector<double> UnfusedQuantizedScores(const StTransRec& model,
                                           const QuantizationConfig& cfg,
                                           const std::vector<UserId>& users,
                                           const std::vector<PoiId>& pois) {
  const std::vector<ag::Variable> params = model.Parameters();
  const size_t d = params[0].value().cols();
  const RowQuantizedMatrix uq =
      QuantizeRows(params[0].value(), cfg.embedding_scheme);
  const RowQuantizedMatrix pq =
      QuantizeRows(params[1].value(), cfg.embedding_scheme);
  const Tensor& w0 = params[3].value();
  const Tensor& b0 = params[4].value();
  const size_t h0 = w0.cols();
  Tensor w0t({h0, 2 * d});
  for (size_t r = 0; r < 2 * d; ++r) {
    for (size_t j = 0; j < h0; ++j) w0t.at(j, r) = w0.at(r, j);
  }
  const RowQuantizedMatrix wq = QuantizeRows(w0t, QuantScheme::kSymmetric);
  // user, poi, word tables + (W, b) for layer 0 and the output: no tail.
  const bool relu0 = params.size() > 5;
  const size_t n = users.size();
  Tensor h({n, h0});
  for (size_t i = 0; i < n; ++i) {
    const auto u = static_cast<size_t>(users[i]);
    const auto v = static_cast<size_t>(pois[i]);
    for (size_t j = 0; j < h0; ++j) {
      const int8_t* qw = wq.row(j);
      const int32_t top = simd::DotI8Scalar(uq.row(u), qw, d);
      const int32_t bot = simd::DotI8Scalar(pq.row(v), qw + d, d);
      const float sw = wq.scale(j);
      float out = b0[j] +
                  uq.scale(u) * sw *
                      static_cast<float>(top - uq.zero_point(u) *
                                                   simd::SumI8Scalar(qw, d)) +
                  pq.scale(v) * sw *
                      static_cast<float>(bot - pq.zero_point(v) *
                                                   simd::SumI8Scalar(qw + d, d));
      if (relu0 && out < 0.0f) out = 0.0f;
      h.at(i, j) = out;
    }
  }
  Tensor cur = h;
  for (size_t p = 5; p + 1 < params.size(); p += 2) {
    Tensor w = params[p].value();
    Tensor b = params[p + 1].value();
    if (cfg.fp16_tail) {
      for (Tensor* t : {&w, &b}) {
        for (size_t e = 0; e < t->size(); ++e) {
          t->data()[e] = HalfToFloat(FloatToHalf(t->data()[e]));
        }
      }
    }
    const Tensor z = AddRowBroadcast(MatMul(cur, w), b);
    cur = p + 2 < params.size() ? Relu(z) : z;
  }
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = SigmoidScalar(cur.data()[i]);
  return out;
}

class QuantizedModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new Fixture(MakeFixture());
    model_ = new StTransRec(SmallConfig());
    STTR_CHECK_OK(model_->Fit(fixture_->world.dataset, fixture_->split));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete fixture_;
    model_ = nullptr;
    fixture_ = nullptr;
  }

  static Fixture* fixture_;
  static StTransRec* model_;
};

Fixture* QuantizedModelTest::fixture_ = nullptr;
StTransRec* QuantizedModelTest::model_ = nullptr;

TEST_F(QuantizedModelTest, ScoresTrackFp32Closely) {
  const auto quant = QuantizedModel::Quantize(*model_);
  ASSERT_TRUE(quant.ok()) << quant.status().ToString();
  std::vector<UserId> users;
  std::vector<PoiId> pois;
  TestPairs(*fixture_, &users, &pois);
  const std::vector<double> ref = model_->ScorePairs(users, pois);
  const std::vector<double> got = quant->ScorePairs(users, pois);
  ASSERT_EQ(ref.size(), got.size());
  double max_delta = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    max_delta = std::max(max_delta, std::fabs(ref[i] - got[i]));
  }
  // Post-sigmoid scores; one quantized layer with per-row scales stays well
  // inside this (measured ~7e-3 on the tiny world).
  EXPECT_LT(max_delta, 0.05);
}

TEST_F(QuantizedModelTest, ScoreVariantsAgreeBitwise) {
  const auto quant = QuantizedModel::Quantize(*model_);
  ASSERT_TRUE(quant.ok());
  const auto& pois = fixture_->world.dataset.PoisInCity(0);
  const size_t n = std::min<size_t>(pois.size(), 12);
  const UserId u = fixture_->split.test_users.front().user;
  const std::vector<double> batch =
      quant->ScoreBatch(u, {pois.data(), n});
  const std::vector<UserId> users(n, u);
  const std::vector<double> paired =
      quant->ScorePairs(users, {pois.data(), n});
  ASSERT_EQ(batch.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(batch[i], paired[i]) << i;
    EXPECT_EQ(quant->Score(u, pois[i]), batch[i]) << i;
  }
}

// The fused fp32 tail (bias and ReLU in the GEMM store, ping-pong
// buffers) must score exactly as the unfused reference. The fitted model
// has no hidden tail layer; the Prepare()d one has two ReLU tail layers with
// ragged widths and random biases, over 1 to 513 pairs.
TEST_F(QuantizedModelTest, FusedTailMatchesUnfusedReferenceBitwise) {
  StTransRecConfig deep_cfg = SmallConfig();
  deep_cfg.hidden_dims = {24, 16, 7};
  StTransRec deep(deep_cfg);
  ASSERT_TRUE(deep.Prepare(fixture_->world.dataset, fixture_->split).ok());
  Rng rng(17);
  for (ag::Variable& p : deep.Parameters()) {
    if (p.value().ndim() == 1) {
      p.mutable_value() = Tensor::RandomNormal(p.value().shape(), rng);
    }
  }
  std::vector<UserId> all_users;
  std::vector<PoiId> all_pois;
  TestPairs(*fixture_, &all_users, &all_pois);
  ASSERT_GE(all_users.size(), 513u);
  for (const StTransRec* model : {static_cast<const StTransRec*>(model_),
                                  static_cast<const StTransRec*>(&deep)}) {
    for (const bool fp16_tail : {true, false}) {
      QuantizationConfig cfg;
      cfg.fp16_tail = fp16_tail;
      const auto quant = QuantizedModel::Quantize(*model, cfg);
      ASSERT_TRUE(quant.ok()) << quant.status().ToString();
      for (const size_t n : {1u, 7u, 8u, 9u, 351u, 513u}) {
        const std::vector<UserId> users(all_users.begin(),
                                        all_users.begin() + n);
        const std::vector<PoiId> pois(all_pois.begin(), all_pois.begin() + n);
        EXPECT_EQ(quant->ScorePairs(users, pois),
                  UnfusedQuantizedScores(*model, cfg, users, pois))
            << "hidden layers " << model->config().hidden_dims.size()
            << ", fp16_tail=" << fp16_tail << ", " << n << " pairs";
      }
    }
  }
}

TEST_F(QuantizedModelTest, EmbeddingBytesMatchQuantizedLayout) {
  const auto quant = QuantizedModel::Quantize(*model_);
  ASSERT_TRUE(quant.ok());
  const size_t rows = quant->num_users() + quant->num_pois();
  // int8 data plus a fp32 scale and int32 zero point per row (affine
  // default). At this test's dim=8 the per-row metadata caps the shrink
  // near 2x; the headline >= 3x holds from dim ~24 up (quant_test checks it
  // at 32, micro_quant measures 3.56x at the paper's 64).
  EXPECT_EQ(quant->EmbeddingBytes(),
            rows * quant->embedding_dim() +
                rows * (sizeof(float) + sizeof(int32_t)));
  EXPECT_LT(quant->EmbeddingBytes(),
            rows * quant->embedding_dim() * sizeof(float));
  EXPECT_GT(quant->ApproxBytes(), quant->EmbeddingBytes());
}

TEST_F(QuantizedModelTest, CheckpointRoundTripIsBitIdentical) {
  for (const bool fp16_tail : {true, false}) {
    QuantizationConfig cfg;
    cfg.fp16_tail = fp16_tail;
    const auto quant = QuantizedModel::Quantize(*model_, cfg);
    ASSERT_TRUE(quant.ok());
    const std::string path = TestScratchDir() + "/" + CheckpointFileName(2);
    ASSERT_TRUE(quant->WriteCheckpointFile(*Env::Default(), path).ok());

    const auto back = QuantizedModel::LoadFromCheckpoint(*Env::Default(), path);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->epoch(), quant->epoch());
    EXPECT_EQ(back->config_fingerprint(), quant->config_fingerprint());
    EXPECT_EQ(back->fp16_tail(), fp16_tail);

    // Quantize() pre-round-trips the tail through fp16, so the reloaded
    // scorer must reproduce the in-memory one bit for bit — the property
    // that makes --fidelity numbers measured in-process match production.
    std::vector<UserId> users;
    std::vector<PoiId> pois;
    TestPairs(*fixture_, &users, &pois);
    EXPECT_EQ(quant->ScorePairs(users, pois), back->ScorePairs(users, pois))
        << "fp16_tail=" << fp16_tail;
  }
}

TEST_F(QuantizedModelTest, SymmetricSchemeAlsoRoundTrips) {
  QuantizationConfig cfg;
  cfg.embedding_scheme = QuantScheme::kSymmetric;
  const auto quant = QuantizedModel::Quantize(*model_, cfg);
  ASSERT_TRUE(quant.ok());
  EXPECT_EQ(quant->embedding_scheme(), QuantScheme::kSymmetric);
  const std::string path = TestScratchDir() + "/" + CheckpointFileName(2);
  ASSERT_TRUE(quant->WriteCheckpointFile(*Env::Default(), path).ok());
  const auto back = QuantizedModel::LoadFromCheckpoint(*Env::Default(), path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->embedding_scheme(), QuantScheme::kSymmetric);
}

TEST_F(QuantizedModelTest, EpochDefaultsToLossHistoryAndHonorsOverride) {
  const auto from_fit = QuantizedModel::Quantize(*model_);
  ASSERT_TRUE(from_fit.ok());
  EXPECT_EQ(from_fit->epoch(), model_->loss_history().size());

  QuantizationConfig cfg;
  cfg.epoch = 41;  // what sttr_quantize passes from the source meta section
  const auto overridden = QuantizedModel::Quantize(*model_, cfg);
  ASSERT_TRUE(overridden.ok());
  EXPECT_EQ(overridden->epoch(), 41u);
}

TEST_F(QuantizedModelTest, QuantizeRejectsUnfittedModel) {
  StTransRec unfitted(SmallConfig());
  EXPECT_FALSE(QuantizedModel::Quantize(unfitted).ok());
}

// ---- Version accept/reject matrix ------------------------------------------

class VersionMatrixTest : public QuantizedModelTest {
 protected:
  /// Writes one v1 training checkpoint and one v2 artifact into a fresh dir.
  void WriteBoth(std::string* v1_path, std::string* v2_path) {
    const std::string dir = TestScratchDir();
    StTransRecConfig cfg = SmallConfig();
    cfg.checkpoint_dir = dir;
    StTransRec trainer(cfg);
    STTR_CHECK_OK(trainer.Fit(fixture_->world.dataset, fixture_->split));
    const auto latest = FindLatestValidCheckpoint(*Env::Default(), dir);
    STTR_CHECK_OK(latest.status());
    *v1_path = *latest;

    const auto quant = QuantizedModel::Quantize(trainer);
    STTR_CHECK_OK(quant.status());
    *v2_path = dir + "/quant-" + CheckpointFileName(2);
    STTR_CHECK_OK(quant->WriteCheckpointFile(*Env::Default(), *v2_path));
  }
};

TEST_F(VersionMatrixTest, ReadersAcceptAndRejectByVersion) {
  std::string v1_path, v2_path;
  WriteBoth(&v1_path, &v2_path);

  // Current reader accepts both container versions.
  const auto v1 = CheckpointReader::Open(*Env::Default(), v1_path);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->version(), kCheckpointFormatVersion);
  const auto v2 = CheckpointReader::Open(*Env::Default(), v2_path);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->version(), kQuantCheckpointFormatVersion);

  // An old (v1-only) reader must reject a v2 file cleanly, not misparse it.
  const auto old_reader = CheckpointReader::Open(
      *Env::Default(), v2_path, /*max_supported_version=*/1);
  ASSERT_FALSE(old_reader.ok());
  EXPECT_NE(old_reader.status().ToString().find("unsupported format version"),
            std::string::npos)
      << old_reader.status().ToString();
  // ...while still accepting v1 files.
  EXPECT_TRUE(CheckpointReader::Open(*Env::Default(), v1_path, 1).ok());
}

TEST_F(VersionMatrixTest, TrainingRestoreRejectsServingArtifact) {
  std::string v1_path, v2_path;
  WriteBoth(&v1_path, &v2_path);
  StTransRec model(SmallConfig());
  ASSERT_TRUE(model.Prepare(fixture_->world.dataset, fixture_->split).ok());
  const Status status = model.RestoreFromCheckpoint(v2_path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.ToString().find("not a training checkpoint"),
            std::string::npos)
      << status.ToString();
  // The v1 file restores fine into the same prepared model.
  EXPECT_TRUE(model.RestoreFromCheckpoint(v1_path).ok());
}

TEST_F(VersionMatrixTest, QuantizedLoadRejectsTrainingCheckpoint) {
  std::string v1_path, v2_path;
  WriteBoth(&v1_path, &v2_path);
  EXPECT_FALSE(
      QuantizedModel::LoadFromCheckpoint(*Env::Default(), v1_path).ok());
  EXPECT_TRUE(
      QuantizedModel::LoadFromCheckpoint(*Env::Default(), v2_path).ok());
}

}  // namespace
}  // namespace sttr
