#ifndef STTR_SERVE_BATCHER_H_
#define STTR_SERVE_BATCHER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "data/types.h"
#include "eval/protocol.h"
#include "serve/stats.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sttr::serve {

struct BatcherConfig {
  /// Flush when the pending (user, poi) pair count reaches this. 1 degrades
  /// to per-request scoring (the loadgen's baseline mode).
  size_t max_batch_pairs = 512;
  /// Don't wait for more traffic once this many pairs are pending. The
  /// default of 1 is continuous batching: the dispatcher flushes whatever
  /// queued while the previous flush was scoring, so batches grow with load
  /// and a lone request is never delayed.
  size_t min_batch_pairs = 1;
  /// With min_batch_pairs > 1: flush no later than this after the *oldest*
  /// pending request arrived, bounding the latency cost of waiting for
  /// co-batchable traffic.
  std::chrono::microseconds max_wait{300};
};

/// Dynamic micro-batching queue: concurrent recommendation requests enqueue
/// their (user, candidates) work and block on a future; a dispatcher thread
/// coalesces everything pending into one ScorePairs call — one MLP forward
/// over the union batch instead of one per request — and distributes the
/// scores back. Because ScorePairs computes every row independently
/// (bit-identical to per-pair Score), batching is invisible in the results;
/// it only changes throughput.
///
/// Dispatch is caller-runs when idle: a Submit that finds the queue empty
/// and no flush in flight scores its own request on the submitting thread,
/// skipping the dispatcher hand-off entirely — so an unloaded server pays
/// no batching overhead. Under load the hand-off path takes over and
/// flushes coalesce. (Only with min_batch_pairs == 1; a larger minimum
/// always queues, since lone requests must wait for co-batchable traffic.)
///
/// A coalesced ScorePairs call runs entirely on the dispatcher thread: the
/// model's GEMMs run serially there, as offline batched inference runs them
/// on its caller, with no pool fan-out. At most one flush runs at a time, so
/// scoring working sets never contend with each other for cache.
class ScoreBatcher {
 public:
  /// `stats` (optional) receives batch-occupancy counters.
  explicit ScoreBatcher(BatcherConfig config, ServeStats* stats = nullptr);
  ~ScoreBatcher();

  ScoreBatcher(const ScoreBatcher&) = delete;
  ScoreBatcher& operator=(const ScoreBatcher&) = delete;

  void Start() EXCLUDES(mu_);
  /// Drains pending requests (they still get scored), then joins. Safe to
  /// call concurrently: one caller performs the shutdown, the others block
  /// until it completes — so by the time any Stop() returns, the dispatcher
  /// is joined and the batcher is restartable. In particular the destructor
  /// waits out an explicit Stop already in flight rather than destroying
  /// state the stopper still uses. (As with any object, destruction must
  /// still be externally ordered after all other calls *begin*.)
  void Stop() EXCLUDES(mu_);

  /// Enqueues one request against `model` (kept alive via the shared_ptr
  /// until its flush completes, so a hot reload never pulls a snapshot out
  /// from under a queued request). The future yields scores in `pois` order.
  std::future<std::vector<double>> Submit(
      std::shared_ptr<const PoiScorer> model, UserId user,
      std::vector<PoiId> pois) EXCLUDES(mu_);

  /// ScorePairs flushes issued so far.
  uint64_t num_batches() const EXCLUDES(mu_);

 private:
  struct Request {
    std::shared_ptr<const PoiScorer> model;
    UserId user;
    std::vector<PoiId> pois;
    std::promise<std::vector<double>> promise;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  void DispatchLoop() EXCLUDES(mu_);
  /// Pops queued requests up to the pair budget (always at least one, so an
  /// oversized request still flushes as its own batch).
  std::vector<Request> TakeBatchLocked() REQUIRES(mu_);
  /// Scores `batch` (grouped by model snapshot) and fulfils its promises.
  /// Runs with mu_ dropped — scoring must not block Submit admission.
  void Flush(std::vector<Request> batch) EXCLUDES(mu_);

  BatcherConfig config_;
  ServeStats* stats_;

  mutable Mutex mu_;
  CondVar work_ready_;
  /// Signalled (under mu_) once a stop has fully completed; latecomer
  /// Stop() callers wait on this, never on work_ready_, so a NotifyOne
  /// aimed at the dispatcher can't be swallowed by a waiting stopper.
  CondVar stop_done_;
  std::deque<Request> queue_ GUARDED_BY(mu_);
  size_t pending_pairs_ GUARDED_BY(mu_) = 0;
  uint64_t batches_ GUARDED_BY(mu_) = 0;
  /// running_ spans Start() through the end of the stopping caller's join
  /// (the joiner clears it last); stopping_ marks the one Stop() allowed
  /// to join. Start() during a stop is a no-op because running_ is still
  /// true, so a second dispatcher can never be spawned mid-shutdown.
  bool running_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;
  /// True while any thread (dispatcher or a caller-runs Submit) is inside
  /// Flush; keeps scoring serialized.
  bool flush_in_flight_ GUARDED_BY(mu_) = false;
  /// Flush-only scratch for the coalesced (user, poi) columns, reused so a
  /// steady stream of flushes stops allocating once the capacity high-water
  /// is reached. Not GUARDED_BY(mu_): Flush runs with mu_ dropped, but at
  /// most one Flush is ever in flight (flush_in_flight_ is set under mu_
  /// before entry and cleared under mu_ after return, so successive flushes
  /// are ordered by the mutex — TSan sees the hand-off).
  std::vector<UserId> flush_users_;
  std::vector<PoiId> flush_pois_;
  /// Joined via a local moved out under mu_, so concurrent Stop() calls
  /// can never double-join.
  std::thread dispatcher_ GUARDED_BY(mu_);
};

}  // namespace sttr::serve

#endif  // STTR_SERVE_BATCHER_H_
