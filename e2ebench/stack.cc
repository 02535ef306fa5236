#include "stack.h"

#include <filesystem>
#include <thread>
#include <utility>

#include "core/checkpoint.h"
#include "core/delta.h"
#include "util/check.h"
#include "util/fs.h"
#include "util/rng.h"

namespace e2e {

using namespace sttr;

World MakeWorld() {
  const synth::SynthWorldConfig cfg =
      synth::SynthWorldConfig::FoursquareLike(synth::Scale::kSmall);
  World w{synth::GenerateWorld(cfg), {}};
  w.split = MakeCrossCitySplit(w.world.dataset, cfg.target_city);
  return w;
}

StTransRecConfig ServedModelConfig() {
  StTransRecConfig cfg;
  // bench::ApplyPaperArchitecture("foursquare", ...).
  cfg.embedding_dim = 64;
  cfg.hidden_dims = {128, 64, 32, 16};
  cfg.dropout_rate = 0.1f;
  cfg.resample_alpha = 0.10;
  cfg.verbose = false;
  return cfg;
}

void TrainServedCheckpoint(const World& world, const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  StTransRecConfig cfg = ServedModelConfig();
  cfg.checkpoint_dir = dir;
  StTransRec model(cfg);
  STTR_CHECK_OK(model.Prepare(world.dataset(), world.split));
  Rng rng(cfg.seed);
  for (size_t step = 0; step < kServedTrainSteps; ++step) {
    const TrainingBatch batch = model.SampleBatch(rng);
    model.ComputeGradients(batch, rng);
    model.OptimizerStep();
  }
  STTR_CHECK_OK(model.WriteCheckpoint());
}

Stack::Stack(const World& world, StackOptions options)
    : world_(world), options_(std::move(options)) {
  delta_dir_ = options_.checkpoint_dir + "/deltas";

  serve::ModelBundleConfig bundle_cfg;
  bundle_cfg.checkpoint_dir = options_.checkpoint_dir;
  bundle_cfg.model = ServedModelConfig();
  bundle_cfg.poll_interval = std::chrono::milliseconds(200);
  bundle_cfg.stats = &stats_;
  if (options_.streaming) bundle_cfg.delta_dir = delta_dir_;
  bundle_ = std::make_unique<serve::ModelBundle>(world_.dataset(),
                                                 world_.split, bundle_cfg);
  STTR_CHECK_OK(bundle_->LoadInitial());
  base_checkpoint_ = bundle_->snapshot()->checkpoint_path;

  serve::CandidateIndexConfig index_cfg;
  index_cfg.grid_rows = 16;
  index_cfg.grid_cols = 16;
  index_cfg.use_regions = true;
  index_cfg.min_candidates = 200;
  index_ = std::make_unique<serve::CandidateIndex>(world_.dataset(),
                                                   &world_.split, index_cfg);

  serve::BatcherConfig batcher_cfg;
  batcher_cfg.max_batch_pairs = 512;
  batcher_cfg.min_batch_pairs = 1;
  batcher_cfg.max_wait = std::chrono::microseconds(300);
  batcher_ = std::make_unique<serve::ScoreBatcher>(batcher_cfg, &stats_);
  batcher_->Start();

  serve::ResultCacheConfig cache_cfg;
  cache_cfg.capacity = 4096;
  cache_cfg.ttl = std::chrono::milliseconds(5000);
  cache_ = std::make_unique<serve::ResultCache>(cache_cfg);
  bundle_->AddReloadListener([this](const serve::ModelSnapshot&) {
    cache_->InvalidateAll();
    stats_.model_reloads.fetch_add(1, std::memory_order_relaxed);
  });

  if (options_.streaming) {
    StTransRecConfig stream_cfg = ServedModelConfig();
    stream_cfg.checkpoint_dir.clear();
    stream_model_ = std::make_unique<StTransRec>(stream_cfg);
    STTR_CHECK_OK(stream_model_->Prepare(world_.dataset(), world_.split));
    stream::IncrementalTrainerConfig trainer_cfg;
    trainer_cfg.delta_dir = delta_dir_;
    trainer_cfg.delta_keep_last = 4;
    inc_trainer_ = std::make_unique<stream::IncrementalTrainer>(trainer_cfg);
    STTR_CHECK_OK(inc_trainer_->Init(stream_model_.get(), world_.dataset(),
                                     base_checkpoint_));
    stream::IngestServiceConfig ingest_cfg;
    ingest_cfg.queue_capacity = 4096;
    ingest_cfg.window = 32;
    ingest_cfg.publish_every_windows = 1;
    ingest_ = std::make_unique<stream::IngestService>(
        world_.dataset(), inc_trainer_.get(), &stats_.ingest, ingest_cfg);
    if (!options_.external_loops) ingest_->Start();
    bundle_->AddDeltaListener([this](const serve::ModelSnapshot& snapshot,
                                     const DeltaCheckpoint& delta) {
      serve::InvalidateForDelta(world_.dataset(), delta, *cache_);
      if (options_.delta_observer) options_.delta_observer(snapshot, delta);
    });
  }

  serve::ServerConfig server_cfg;
  server_cfg.port = 0;
  server_cfg.num_workers = 8;
  server_cfg.num_io_threads = 1;
  server_cfg.default_city = world_.split.target_city;
  server_cfg.enable_cache = true;
  server_ = std::make_unique<serve::RecommendServer>(
      server_cfg, world_.dataset(), bundle_.get(), index_.get(),
      batcher_.get(), cache_.get(), &stats_, nullptr, ingest_.get(), nullptr);
  STTR_CHECK_OK(server_->Start());
  if (!options_.external_loops) bundle_->StartWatcher();
}

Stack::~Stack() { Shutdown(); }

void Stack::DrainIngest() {
  if (ingest_ == nullptr) return;
  bundle_->StopWatcher();
  ingest_->Stop();
  const uint64_t want = inc_trainer_->published_seq();
  // ApplyDeltaIfNewer declines while the standby instance is still held by
  // an in-flight request; retry until the final delta is live.
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (bundle_->snapshot()->delta_seq >= want) return;
    const StatusOr<bool> applied = bundle_->ApplyDeltaIfNewer();
    STTR_CHECK(applied.ok()) << applied.status().ToString();
    if (!applied.value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  STTR_CHECK(bundle_->snapshot()->delta_seq >= want)
      << "final delta " << want << " never went live";
}

void Stack::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  bundle_->StopWatcher();
  server_->Shutdown();
  if (ingest_ != nullptr) ingest_->Stop();
  batcher_->Stop();
}

}  // namespace e2e
