// The system under test, built the way tools/sttr_serve builds it with its
// default flags: Foursquare-like world at --scale=small, the paper's
// Foursquare architecture, epoll core with 8 scoring workers and one I/O
// loop, 16x16 candidate grid with region merging and 200 candidates,
// micro-batcher (512 pairs, continuous batching), 4096-entry result cache
// with a 5 s TTL and a 200 ms checkpoint/delta poll. With `streaming` the
// stack adds what --stream adds: /checkin, the incremental trainer
// (32-event windows, a delta per window, 4 deltas kept) and row-level cache
// invalidation on every applied delta.
#ifndef E2EBENCH_STACK_H_
#define E2EBENCH_STACK_H_

#include <functional>
#include <memory>
#include <string>

#include "core/st_transrec.h"
#include "data/split.h"
#include "data/synth/world_generator.h"
#include "serve/batcher.h"
#include "serve/candidate_index.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "stream/incremental_trainer.h"
#include "stream/ingest_service.h"

namespace e2e {

/// The served world and its split (the preset seed; the workload seed only
/// shapes the traffic).
struct World {
  sttr::synth::SynthWorld world;
  sttr::CrossCitySplit split;
  const sttr::Dataset& dataset() const { return world.dataset; }
};

World MakeWorld();

/// Model config of the served checkpoint: the paper's Foursquare
/// architecture (bench::ApplyPaperArchitecture), model defaults otherwise.
sttr::StTransRecConfig ServedModelConfig();

/// Training steps behind the served checkpoint. Serving cost depends on the
/// architecture and table sizes, not on how long the weights trained; the
/// model default of eight epochs (~1560 steps) takes ~48 s here and would
/// not fit the benchmark's time budget seven times per run.
constexpr size_t kServedTrainSteps = 60;

/// Trains kServedTrainSteps steps (SampleBatch, ComputeGradients,
/// OptimizerStep — Fit()'s step) and writes the checkpoint into `dir`
/// (created fresh).
void TrainServedCheckpoint(const World& world, const std::string& dir);

struct StackOptions {
  std::string checkpoint_dir;
  bool streaming = false;
  /// The traced run drives the ingest trainer and the delta poll itself,
  /// so the service's trainer thread and the bundle watcher stay off.
  bool external_loops = false;
  /// Runs on the applying thread after the cache invalidation of every
  /// applied delta.
  std::function<void(const sttr::serve::ModelSnapshot&,
                     const sttr::DeltaCheckpoint&)>
      delta_observer;
};

class Stack {
 public:
  /// Loads the newest checkpoint in options.checkpoint_dir and starts the
  /// server on an ephemeral loopback port.
  Stack(const World& world, StackOptions options);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  int port() const { return server_->port(); }

  /// Stops the ingest service (training the final partial window and
  /// publishing the last delta) and applies that delta, so the served
  /// snapshot covers every accepted check-in. Serving continues.
  void DrainIngest();
  /// Stops everything in sttr_serve's shutdown order. Idempotent.
  void Shutdown();

  sttr::serve::ServeStats& stats() { return stats_; }
  sttr::serve::ModelBundle& bundle() { return *bundle_; }
  sttr::serve::CandidateIndex& index() { return *index_; }
  sttr::serve::ScoreBatcher& batcher() { return *batcher_; }
  sttr::serve::ResultCache& cache() { return *cache_; }
  sttr::stream::IngestService* ingest() { return ingest_.get(); }
  sttr::stream::IncrementalTrainer* inc_trainer() {
    return inc_trainer_.get();
  }
  const std::string& base_checkpoint() const { return base_checkpoint_; }

 private:
  const World& world_;
  StackOptions options_;
  std::string delta_dir_;
  std::string base_checkpoint_;
  sttr::serve::ServeStats stats_;
  std::unique_ptr<sttr::serve::ModelBundle> bundle_;
  std::unique_ptr<sttr::serve::CandidateIndex> index_;
  std::unique_ptr<sttr::serve::ScoreBatcher> batcher_;
  std::unique_ptr<sttr::serve::ResultCache> cache_;
  std::unique_ptr<sttr::StTransRec> stream_model_;
  std::unique_ptr<sttr::stream::IncrementalTrainer> inc_trainer_;
  std::unique_ptr<sttr::stream::IngestService> ingest_;
  std::unique_ptr<sttr::serve::RecommendServer> server_;
  bool shut_down_ = false;
};

}  // namespace e2e

#endif  // E2EBENCH_STACK_H_
