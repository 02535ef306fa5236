// train_parallel: ParallelTrainer iterations at 1 worker and at nproc
// workers on the served world (paper Table 2).
//
// Untraced run: set up kSetupReps times (world + Init of both trainers),
// then kWarmIters + N iterations per worker count, each timed alone; after
// every iteration, outside the timing, a fingerprint of the master's
// parameters is taken. Peak RSS is read there, before any check allocates.
// The timed trainers are then freed and a second pair with the same seed
// reruns the same iterations: its fingerprints must match bit for bit, and
// after every iteration a loss probe scores a fixed sampled batch with the
// master's current parameters.
//
// Traced run: the serial step's public calls (SampleBatch,
// ComputeGradients, OptimizerStep), MmdLossLinear forward+backward on each
// step's own pools, and RunIterations(1) at both worker counts.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "autograd/variable.h"
#include "core/parallel_trainer.h"
#include "stack.h"
#include "trace.h"
#include "transfer/mmd.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace sttr;

/// Set-up takes ~0.15 s, so its median over many repetitions is cheap and
/// steady.
constexpr size_t kSetupReps = 15;
constexpr size_t kWarmIters = 3;
/// Timed iterations per worker count: 10 per second of --seconds, at least
/// 100 so the p90 has ten samples beyond it.
size_t TimedIters(double seconds) {
  return std::max<size_t>(100, static_cast<size_t>(std::llround(10 * seconds)));
}
constexpr size_t kTraceSteps = 60;

StTransRecConfig TrainConfig(uint64_t seed) {
  StTransRecConfig cfg = ServedModelConfig();
  cfg.seed = seed;
  return cfg;
}

/// Binary cross-entropy of the master's scores on one fixed sampled batch
/// (positives and their sampled negatives), computed with Score() on a
/// separate model holding a copy of the master's parameters.
class LossProbe {
 public:
  LossProbe(const World& world, const StTransRecConfig& cfg,
            StTransRec& master, uint64_t seed)
      : probe_(cfg) {
    STTR_CHECK_OK(probe_.Prepare(world.dataset(), world.split));
    std::stringstream bytes;
    STTR_CHECK_OK(master.Save(bytes));
    STTR_CHECK_OK(probe_.Load(bytes));  // marks the probe fitted
    Rng rng(seed ^ 0x9b0beULL);
    batch_ = probe_.SampleBatch(rng);
  }

  double Loss(const StTransRec& master) {
    const std::vector<ag::Variable> src = master.Parameters();
    std::vector<ag::Variable> dst = probe_.Parameters();
    for (size_t i = 0; i < src.size(); ++i) {
      dst[i].mutable_value() = src[i].value();
    }
    double sum = 0.0;
    for (size_t i = 0; i < batch_.users.size(); ++i) {
      const double s = std::clamp(
          probe_.Score(batch_.users[i], batch_.pois[i]), 1e-12, 1 - 1e-12);
      sum -= batch_.labels[i] > 0.5f ? std::log(s) : std::log(1.0 - s);
    }
    return sum / static_cast<double>(batch_.users.size());
  }

 private:
  StTransRec probe_;
  TrainingBatch batch_;
};

/// FNV-1a over the bits of every parameter of `model`: equal fingerprints
/// after every iteration mean the same parameter sequence, and so the same
/// loss sequence.
uint64_t Fingerprint(const StTransRec& model) {
  uint64_t h = 1469598103934665603ULL;
  for (const ag::Variable& v : model.Parameters()) {
    const Tensor& t = v.value();
    const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
    for (size_t i = 0; i < t.size() * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  }
  return h;
}

struct Phase {
  Samples iter_ms;
  double cpu_s = 0.0;  ///< process CPU inside the timed iterations
  std::vector<uint64_t> fingerprints;
  std::vector<double> losses;  ///< the checking rerun only
};

/// kWarmIters + iters iterations, each timed alone; with `probe` the loss
/// probe also scores the master after every iteration.
Phase RunPhase(ParallelTrainer& trainer, size_t iters, LossProbe* probe) {
  Phase p;
  for (size_t i = 0; i < kWarmIters + iters; ++i) {
    const double cpu = ProcessCpuSeconds();
    const Clock::time_point t = Clock::now();
    trainer.RunIterations(1);
    const double ms = ToMs(Clock::now() - t);
    if (i >= kWarmIters) {
      p.iter_ms.Add(ms);
      p.cpu_s += ProcessCpuSeconds() - cpu;
    }
    p.fingerprints.push_back(Fingerprint(trainer.master()));
    if (probe != nullptr) p.losses.push_back(probe->Loss(trainer.master()));
  }
  return p;
}

/// Reruns the timed iterations on a fresh trainer with the same seed: the
/// parameter sequence must match the timed run's bit for bit, and the loss
/// must be finite and fall.
void CheckRerun(const std::string& label, const World& world,
                const StTransRecConfig& cfg, size_t workers,
                const Phase& timed, RunResult* run) {
  ParallelTrainer trainer(cfg, workers);
  STTR_CHECK_OK(trainer.Init(world.dataset(), world.split));
  LossProbe probe(world, cfg, trainer.master(), cfg.seed);
  const Phase p = RunPhase(trainer, timed.iter_ms.size(), &probe);
  run->attempted += p.fingerprints.size();
  if (p.fingerprints != timed.fingerprints) {
    run->Fail(label + ": a rerun with the same seed gave other parameters, "
                      "so another loss sequence");
  }
  for (double l : p.losses) {
    if (!std::isfinite(l)) {
      run->Fail(label + ": non-finite loss");
      return;
    }
  }
  const size_t tenth = std::max<size_t>(1, p.losses.size() / 10);
  double first = 0.0, last = 0.0;
  for (size_t i = 0; i < tenth; ++i) {
    first += p.losses[i];
    last += p.losses[p.losses.size() - 1 - i];
  }
  if (!(last < first)) {
    run->Fail(label + ": mean loss of the last tenth (" +
              std::to_string(last / tenth) + ") is not below the first (" +
              std::to_string(first / tenth) + ")");
  }
  Report& r = run->report;
  const std::string suffix = workers == 1 ? ".w1" : ".wmax";
  r.Add("probe_loss.first" + suffix, p.losses.front(), "nats");
  r.Add("probe_loss.last" + suffix, p.losses.back(), "nats");
}

RunResult RunTrainUntraced(const RunOptions& options) {
  RunResult run;
  const size_t wmax = Nproc();
  const size_t iters = TimedIters(options.seconds);
  const StTransRecConfig cfg = TrainConfig(options.seed);
  std::unique_ptr<World> world;
  std::unique_ptr<ParallelTrainer> w1, wn;
  Samples setup_s;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    w1.reset();
    wn.reset();
    world.reset();
    const Clock::time_point t0 = Clock::now();
    world = std::make_unique<World>(MakeWorld());
    w1 = std::make_unique<ParallelTrainer>(cfg, 1);
    STTR_CHECK_OK(w1->Init(world->dataset(), world->split));
    wn = std::make_unique<ParallelTrainer>(cfg, wmax);
    STTR_CHECK_OK(wn->Init(world->dataset(), world->split));
    setup_s.Add(ToS(Clock::now() - t0));
  }
  const Phase p1 = RunPhase(*w1, iters, nullptr);
  const Phase pn = RunPhase(*wn, iters, nullptr);
  run.attempted += p1.fingerprints.size() + pn.fingerprints.size();
  const double peak_rss_mb = PeakRssMb();
  w1.reset();
  wn.reset();

  CheckRerun("1 worker", *world, cfg, 1, p1, &run);
  CheckRerun(std::to_string(wmax) + " workers", *world, cfg, wmax, pn, &run);

  const double batch = static_cast<double>(cfg.batch_size);
  const auto rate = [&](const Phase& p) {
    double total_ms = 0.0;
    for (double v : p.iter_ms.values()) total_ms += v;
    return batch * static_cast<double>(p.iter_ms.size()) / (total_ms * 1e-3);
  };
  Report& r = run.report;
  r.Add("setup_s", setup_s.Quantile(0.5), "s", setup_s.size());
  r.Add("train_samples_per_s.w1", rate(p1), "samples/s", p1.iter_ms.size());
  r.Add("train_samples_per_s.wmax", rate(pn), "samples/s",
        pn.iter_ms.size());
  r.Add("train_speedup.wmax", rate(pn) / rate(p1), "ratio");
  r.AddQuantile("train_iter_ms.p50.w1", p1.iter_ms, 0.5, "ms");
  r.AddQuantile("train_iter_ms.p90.w1", p1.iter_ms, 0.9, "ms");
  r.AddQuantile("train_iter_ms.p50.wmax", pn.iter_ms, 0.5, "ms");
  r.AddQuantile("train_iter_ms.p90.wmax", pn.iter_ms, 0.9, "ms");
  r.Add("cpu_ms_per_iteration",
        1e3 * (p1.cpu_s + pn.cpu_s) / static_cast<double>(2 * iters), "ms");
  r.Add("wmax", static_cast<double>(wmax), "count");
  r.Add("peak_rss_mb", peak_rss_mb, "MB");

  Report& s = run.summary;
  s.Add("setup_s", r.Get("setup_s"), "s");
  s.Add("peak_rss_mb", r.Get("peak_rss_mb"), "MB");
  s.Add("cpu_ms_per_op", r.Get("cpu_ms_per_iteration"), "ms");
  return run;
}

RunResult RunTrainTraced(const RunOptions& options) {
  RunResult run;
  const size_t wmax = Nproc();
  const StTransRecConfig cfg = TrainConfig(options.seed);
  const World world = MakeWorld();
  SpanLog log;
  SpanLog::Buffer* spans = log.NewBuffer();
  Report& r = run.report;

  // Serial step through the public calls, plus MMD on each step's pools.
  StTransRec model(cfg);
  STTR_CHECK_OK(model.Prepare(world.dataset(), world.split));
  Rng rng(options.seed);
  Rng sigma_rng(options.seed ^ 0x515ULL);
  Samples touched;
  for (size_t step = 1; step <= kTraceSteps; ++step) {
    const uint64_t root = spans->ReserveId();
    const Clock::time_point start = Clock::now();
    Clock::time_point t = start;
    const TrainingBatch batch = model.SampleBatch(rng);
    spans->Record("sample_batch", step, root, t);
    t = Clock::now();
    const StepLosses losses = model.ComputeGradients(batch, rng);
    spans->Record("compute_gradients", step, root, t);
    if (!std::isfinite(losses.total)) run.Fail("non-finite step loss");
    const std::vector<ag::Variable> params = model.Parameters();
    double rows = 0.0;
    for (size_t i = 0; i < model.NumEmbeddingParameters(); ++i) {
      const std::vector<int64_t>& tr = params[i].touched_rows();
      rows += static_cast<double>(
          std::set<int64_t>(tr.begin(), tr.end()).size());
    }
    touched.Add(rows);
    t = Clock::now();
    model.OptimizerStep();
    spans->Record("optimizer_step", step, root, t);
    spans->RecordAs(root, "train_step", step, 0, start, Clock::now());

    // MMD forward + backward on leaf copies of this step's pool rows, so
    // the timing leaves the model's gradients alone.
    const Tensor& table = params[1].value();  // the POI embedding table
    const auto gather = [&](const std::vector<int64_t>& ids) {
      Tensor out({ids.size(), table.cols()});
      for (size_t i = 0; i < ids.size(); ++i) {
        std::memcpy(out.row(i), table.row(static_cast<size_t>(ids[i])),
                    table.cols() * sizeof(float));
      }
      return ag::Variable(std::move(out), true);
    };
    const ag::Variable xs = gather(batch.mmd_source);
    const ag::Variable xt = gather(batch.mmd_target);
    const double sigma =
        MedianHeuristicSigma(xs.value(), xt.value(), 256, sigma_rng);
    t = Clock::now();
    const ag::Variable mmd = ag_ops::MmdLossLinear(xs, xt, {sigma});
    ag::Backward(mmd);
    spans->Record("mmd", step, 0, t);
  }

  // Data-parallel iterations, and one shard's gradient compute at wmax.
  const auto iterations = [&](size_t workers, const char* name) {
    ParallelTrainer trainer(cfg, workers);
    STTR_CHECK_OK(trainer.Init(world.dataset(), world.split));
    trainer.RunIterations(kWarmIters);
    for (size_t i = 1; i <= kTraceSteps; ++i) {
      const Clock::time_point t = Clock::now();
      trainer.RunIterations(1);
      spans->Record(name, i, 0, t);
    }
  };
  iterations(1, "iteration_w1");
  iterations(wmax, "iteration_wmax");
  // A replica computes its shard on a pool worker, where kernels run
  // inline; time the shard the same way.
  StTransRecConfig shard_cfg = cfg;
  shard_cfg.batch_size = std::max<size_t>(1, cfg.batch_size / wmax);
  StTransRec shard(shard_cfg);
  STTR_CHECK_OK(shard.Prepare(world.dataset(), world.split));
  Rng shard_rng(options.seed + 1);
  ThreadPool worker(1);
  worker.Submit([&] {
    for (size_t i = 1; i <= kTraceSteps; ++i) {
      const Clock::time_point t = Clock::now();
      const TrainingBatch batch = shard.SampleBatch(shard_rng);
      shard.ComputeGradients(batch, shard_rng);
      spans->Record("shard_gradients", i, 0, t);
      shard.OptimizerStep();
    }
  });
  worker.Wait();

  const double iter_wmax = log.Durations("iteration_wmax").Quantile(0.5);
  r.Add("train.sample_batch_ms", log.Durations("sample_batch").Quantile(0.5),
        "ms", kTraceSteps);
  r.Add("train.compute_gradients_ms",
        log.Durations("compute_gradients").Quantile(0.5), "ms", kTraceSteps);
  r.Add("train.optimizer_step_ms",
        log.Durations("optimizer_step").Quantile(0.5), "ms", kTraceSteps);
  r.Add("train.mmd_ms", log.Durations("mmd").Quantile(0.5), "ms",
        kTraceSteps);
  r.Add("train.iter_ms.w1", log.Durations("iteration_w1").Quantile(0.5), "ms",
        kTraceSteps);
  r.Add("train.iter_ms.wmax", iter_wmax, "ms", kTraceSteps);
  r.Add("train.sync_ms.wmax",
        iter_wmax - log.Durations("shard_gradients").Quantile(0.5), "ms");
  r.Add("train.touched_rows_per_iter", touched.Mean(), "count");
  const std::string spans_path = options.out_dir + "/" + options.workload +
                                 "-seed" + std::to_string(options.seed) +
                                 "-spans.jsonl";
  if (!log.WriteJsonLines(spans_path)) run.Fail("cannot write " + spans_path);
  r.Fact("spans", JsonString(spans_path));
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  run.attempted = 3 * kTraceSteps + 2 * (kWarmIters + kTraceSteps);
  return run;
}

}  // namespace

RunResult RunTrain(const RunOptions& options) {
  return options.trace ? RunTrainTraced(options) : RunTrainUntraced(options);
}

}  // namespace e2e
