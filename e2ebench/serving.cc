// The two serving workloads, recommend_miss and recommend_skew_checkin.
//
// Untraced run: set the stack up kSetupReps times (world, checkpoint
// trained kServedTrainSteps steps into a fresh directory, stack start) and
// keep the last; then a short warm-up, a fixed low-rate step, a fixed
// high-rate step and a binary search over the rate ladder, all open-loop
// Poisson /recommend arrivals. recommend_skew_checkin adds /checkin writes
// at a fixed rate on one more connection for the whole measurement. The
// gated peak RSS is read when the first set-up ends; the peak through the
// fixed steps is reported beside it (see README.md, Metrics).
//
// Traced run: the same warm-up, low and high steps over HTTP for the
// server-side counters, and the low step's requests replayed through the
// layers' public functions with one span per call on a second stack, HTTP
// and replay taking turns chunk by chunk. Ingest of the replay stack is
// driven through IngestService::Submit, IncrementalTrainer::TrainWindow /
// PublishDelta and ModelBundle::ApplyDeltaIfNewer from benchmark threads.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "checks.h"
#include "core/delta.h"
#include "core/recommender.h"
#include "loadgen.h"
#include "stack.h"
#include "trace.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace sttr;

// ---- Workload definition (recorded in README.md) ---------------------------

/// Rate ladder shared by both serving workloads: rung i offers
/// kLadderBase * kLadderRatio^i requests per second.
constexpr double kLadderBase = 50.0;
constexpr double kLadderRatio = 1.05;
constexpr size_t kLadderRungs = 120;
/// p99 latency limit for recommend_max_qps.
constexpr double kP99LimitMs = 100.0;
constexpr size_t kK = 10;
/// recommend_skew_checkin key space: Zipf over this many (user, location)
/// keys, a quarter of the result cache.
constexpr size_t kSkewKeys = 1024;
constexpr double kZipfExponent = 1.0;
/// /checkin writes per second. The held-out check-ins carry ordering-only
/// timestamps, so the rate is not taken from the data: it equals the low
/// read step (a 1:1 read:write mix there), fills a 32-event window every
/// 0.32 s (a delta per 1.6 polls of 200 ms), and is ~3% of the ingest
/// trainer's measured capacity (TrainWindow + PublishDelta ~9 ms per 32
/// events): no check-in is refused and the ingest queue stays below one
/// window.
constexpr double kCheckinRate = 100.0;
/// Set-up takes ~1.5 s; its median over this many repetitions is the
/// reported setup_s.
constexpr size_t kSetupReps = 7;
/// Rate search: climb kClimb rungs at a time from the highest fixed step
/// that met the limit, then bisect; at most kProbes probes.
constexpr size_t kProbes = 8;
constexpr size_t kClimb = 5;
constexpr double kWarmSeconds = 0.5;
/// Shares of --seconds given to each phase.
constexpr double kLowShare = 0.55;
constexpr double kHighShare = 0.20;
constexpr double kProbeShare = 0.03;
/// How long after its last due time a step waits for stragglers; long
/// enough that a slow fixed step drains instead of losing requests.
constexpr double kGraceSeconds = 20.0;
constexpr size_t kMinFixedStepRequests = 1050;
/// Responses of the fixed steps re-ranked from scratch by the checker.
constexpr size_t kDeepChecks = 120;
/// Post-drain probes of recommend_skew_checkin checked against the replay.
constexpr size_t kReplayProbes = 100;
/// Ingest window and delta poll of the served stack (sttr_serve defaults).
constexpr size_t kWindow = 32;
constexpr auto kPoll = std::chrono::milliseconds(200);
/// The traced stage means must add up to the untraced server.handle_ms
/// mean at the low rate within this share of it.
constexpr double kStageSumTolerance = 0.20;

/// The fixed steps, the same on both serving workloads: low 99 req/s,
/// high 250 req/s.
constexpr size_t kLowRung = 14;
constexpr size_t kHighRung = 33;

double Rung(size_t i) {
  return kLadderBase * std::pow(kLadderRatio, static_cast<double>(i));
}

/// Seeded request keys. recommend_miss: users uniform over all users,
/// locations uniform over target-city POIs. recommend_skew_checkin: Zipf
/// over kSkewKeys keys drawn that way once.
class QueryGen {
 public:
  QueryGen(const World& world, bool skew, uint64_t seed)
      : world_(world), skew_(skew), rng_(seed) {
    if (!skew_) return;
    Rng key_rng(seed ^ 0x5eedf00dULL);
    double total = 0.0;
    for (size_t i = 0; i < kSkewKeys; ++i) {
      keys_.push_back(Uniform(key_rng));
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  RecommendQuery Next() {
    if (!skew_) return Uniform(rng_);
    const double u = rng_.Uniform();
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return keys_[std::min(i, keys_.size() - 1)];
  }

 private:
  RecommendQuery Uniform(Rng& rng) const {
    const Dataset& d = world_.dataset();
    const CityId city = world_.split.target_city;
    const std::vector<PoiId>& pois = d.PoisInCity(city);
    RecommendQuery q;
    q.user = static_cast<int64_t>(rng.UniformInt(d.num_users()));
    const Poi& poi = d.poi(pois[rng.UniformInt(pois.size())]);
    q.lat = poi.location.lat;
    q.lon = poi.location.lon;
    q.city = city;
    q.k = kK;
    return q;
  }

  const World& world_;
  bool skew_;
  Rng rng_;
  std::vector<RecommendQuery> keys_;
  std::vector<double> cdf_;
};

/// The held-out target-city check-ins (not in the training split), in a
/// seeded order; the check-in stream cycles through them.
std::vector<CheckinRecord> HeldOutCheckins(const World& world,
                                           uint64_t seed) {
  std::vector<char> in_train(world.dataset().num_checkins(), 0);
  for (size_t i : world.split.train) in_train[i] = 1;
  std::vector<CheckinRecord> out;
  const auto& all = world.dataset().checkins();
  for (size_t i = 0; i < all.size(); ++i) {
    if (!in_train[i] && all[i].city == world.split.target_city) {
      out.push_back(all[i]);
    }
  }
  Rng rng(seed ^ 0xc4ec1c5ULL);
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.UniformInt(i)]);
  }
  return out;
}

std::string CheckinTarget(const CheckinRecord& c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "/checkin?user=%lld&poi=%lld&t=%.17g",
                static_cast<long long>(c.user), static_cast<long long>(c.poi),
                c.time);
  return buf;
}

/// ServeStats counters a step reads as before/after differences.
struct Counters {
  uint64_t cache_hits = 0, cache_misses = 0, batches = 0,
           batched_requests = 0, scored_pairs = 0, rejected = 0,
           recommend_allocs = 0, hot_requests = 0, hot_allocs = 0,
           syscalls = 0;

  static Counters Read(const serve::ServeStats& s) {
    const auto r = [](const std::atomic<uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    Counters c;
    c.cache_hits = r(s.cache_hits);
    c.cache_misses = r(s.cache_misses);
    c.batches = r(s.batches);
    c.batched_requests = r(s.batched_requests);
    c.scored_pairs = r(s.scored_pairs);
    c.rejected = r(s.rejected_requests);
    c.recommend_allocs = r(s.recommend_allocs);
    c.hot_requests = r(s.hot_requests);
    c.hot_allocs = r(s.hot_allocs);
    c.syscalls = r(s.sys_reads) + r(s.sys_writes) + r(s.sys_epoll_waits) +
                 r(s.sys_accepts);
    return c;
  }
  Counters Minus(const Counters& o) const {
    Counters c;
    c.cache_hits = cache_hits - o.cache_hits;
    c.cache_misses = cache_misses - o.cache_misses;
    c.batches = batches - o.batches;
    c.batched_requests = batched_requests - o.batched_requests;
    c.scored_pairs = scored_pairs - o.scored_pairs;
    c.rejected = rejected - o.rejected;
    c.recommend_allocs = recommend_allocs - o.recommend_allocs;
    c.hot_requests = hot_requests - o.hot_requests;
    c.hot_allocs = hot_allocs - o.hot_allocs;
    c.syscalls = syscalls - o.syscalls;
    return c;
  }
  uint64_t recommends() const { return cache_hits + cache_misses; }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// One open-loop step at a fixed rate.
struct Step {
  double rate = 0.0;
  std::vector<RecommendQuery> queries;
  std::vector<HttpResult> results;
  Samples latency_ms;   ///< from due time, answered requests
  Samples rtt_ms;       ///< from send time
  Samples lateness_ms;  ///< send time - due time
  size_t ok = 0, refused = 0, lost = 0, malformed = 0;
  double span_s = 0.0;  ///< first to last due time
  Counters counters;
  serve::LatencyHistogram::Summary server;
  /// Process CPU during the step minus the /recommend generator threads'
  /// CPU.
  double server_cpu_s = 0.0;
  double wall_s = 0.0;  ///< wall time of the step's RunOpenLoop

  bool MeetsLimit() const {
    return refused == 0 && lost == 0 && malformed == 0 &&
           latency_ms.Quantile(0.99) <= kP99LimitMs;
  }
  double achieved_rate() const {
    return Ratio(static_cast<double>(ok), span_s);
  }
};

/// A step's arrival times and keys, drawn before it runs.
struct Schedule {
  double rate = 0.0;
  std::vector<double> due;
  std::vector<RecommendQuery> queries;
};

Schedule MakeSchedule(QueryGen& gen, Rng& arrivals, double rate,
                      size_t count) {
  Schedule s;
  s.rate = rate;
  s.due = PoissonArrivals(arrivals, rate, count);
  for (size_t i = 0; i < count; ++i) s.queries.push_back(gen.Next());
  return s;
}

/// Sends requests [begin, end) of `schedule` over HTTP, due times counted
/// from request `begin`, and shape-checks every body. With
/// `reset_latency` the server's latency histogram starts empty.
Step SendSchedule(Stack& stack, const World& world, const Schedule& schedule,
                  size_t begin, size_t end, size_t connections,
                  bool reset_latency, RunResult* run, const char* label) {
  Step step;
  step.rate = schedule.rate;
  std::vector<HttpRequest> requests;
  for (size_t i = begin; i < end; ++i) {
    step.queries.push_back(schedule.queries[i]);
    requests.push_back(HttpRequest{schedule.due[i] - schedule.due[begin],
                                   schedule.queries[i].Target(), false});
  }
  step.span_s = end > begin ? schedule.due[end - 1] - schedule.due[begin] : 0;
  if (reset_latency) stack.stats().request_latency.Reset();
  const Counters before = Counters::Read(stack.stats());
  const double cpu_before = ProcessCpuSeconds();
  double client_cpu_s = 0.0;
  const Clock::time_point wall_before = Clock::now();
  step.results = RunOpenLoop(stack.port(), requests, connections,
                             kGraceSeconds, &client_cpu_s);
  step.wall_s = ToS(Clock::now() - wall_before);
  step.server_cpu_s = ProcessCpuSeconds() - cpu_before - client_cpu_s;
  step.counters = Counters::Read(stack.stats()).Minus(before);
  step.server = stack.stats().request_latency.Summarize();
  for (size_t i = 0; i < requests.size(); ++i) {
    const HttpResult& r = step.results[i];
    if (r.status == 200) {
      RecommendBody parsed;
      std::string error;
      if (!CheckRecommendShape(world.dataset(), step.queries[i], r.body,
                               &parsed, &error)) {
        ++step.malformed;
        run->Fail(std::string(label) + " response: " + error);
        continue;
      }
      ++step.ok;
      step.latency_ms.Add(r.latency_ms());
      step.rtt_ms.Add(ToMs(r.done - r.sent));
      step.lateness_ms.Add(r.lateness_ms());
    } else if (r.status == 503) {
      ++step.refused;
    } else if (r.status == 0) {
      ++step.lost;
    } else {
      ++step.malformed;
      run->Fail(std::string(label) + ": HTTP " + std::to_string(r.status) +
                " " + r.body);
    }
  }
  run->attempted += requests.size();
  return step;
}

/// Runs `count` /recommend arrivals at `rate` and shape-checks every body.
Step RunStep(Stack& stack, const World& world, QueryGen& gen, Rng& arrivals,
             double rate, size_t count, size_t connections, RunResult* run,
             const char* label) {
  return SendSchedule(stack, world, MakeSchedule(gen, arrivals, rate, count),
                      0, count, connections, true, run, label);
}

size_t StepCount(double rate, double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(std::llround(rate * seconds)));
}

/// A fixed step's request count: its share of the run, and never fewer
/// than the 1000 + headroom its p99 needs to have ten samples beyond it.
size_t FixedStepCount(double rate, double seconds) {
  return std::max<size_t>(kMinFixedStepRequests, StepCount(rate, seconds));
}

/// Check-in stream of one run: Poisson at kCheckinRate, cycling through
/// the held-out check-ins.
struct CheckinPlan {
  std::vector<CheckinRecord> events;
  std::vector<HttpRequest> requests;
};

CheckinPlan MakeCheckinPlan(const World& world, uint64_t seed,
                            double seconds) {
  CheckinPlan plan;
  const std::vector<CheckinRecord> source = HeldOutCheckins(world, seed);
  STTR_CHECK(!source.empty());
  Rng arrivals(seed ^ 0xa77a1ULL);
  const size_t count = StepCount(kCheckinRate, seconds);
  const std::vector<double> due =
      PoissonArrivals(arrivals, kCheckinRate, count);
  for (size_t i = 0; i < count; ++i) {
    plan.events.push_back(source[i % source.size()]);
    plan.requests.push_back(
        HttpRequest{due[i], CheckinTarget(plan.events.back()), true});
  }
  return plan;
}

/// Delta applications seen by the stack's delta listener.
struct DeltaLog {
  struct Entry {
    Clock::time_point at;
    uint64_t events_applied = 0;
    size_t users = 0;
    size_t cities = 0;
    size_t rows = 0;
  };
  sttr::Mutex mu;
  std::vector<Entry> entries GUARDED_BY(mu);

  void Observe(const Dataset& dataset, const DeltaCheckpoint& delta) {
    std::set<CityId> cities;
    for (int64_t row : delta.poi.rows) {
      cities.insert(dataset.poi(static_cast<PoiId>(row)).city);
    }
    sttr::MutexLock lock(mu);
    entries.push_back(Entry{Clock::now(), delta.events_applied,
                            delta.user.num_rows(), cities.size(),
                            delta.total_rows()});
  }
};

std::string NewDir(const RunOptions& options, const std::string& name) {
  const std::string dir = options.work_dir + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Accepted check-ins of a run, checked and ordered by seq.
struct Accepted {
  std::vector<stream::CheckinEvent> events;  ///< events[i].seq == i + 1
  std::vector<Clock::time_point> sent;
  Samples latency_ms;
};

Accepted CheckCheckins(const World& world, const CheckinPlan& plan,
                       const std::vector<HttpResult>& results,
                       RunResult* run) {
  Accepted acc;
  std::map<uint64_t, size_t> by_seq;
  for (size_t i = 0; i < results.size(); ++i) {
    const HttpResult& r = results[i];
    if (r.status != 200) {
      ++run->failed;
      continue;
    }
    uint64_t seq = 0;
    std::string error;
    if (!CheckCheckinBody(r.body, &seq, &error)) {
      ++run->failed;
      run->Fail("checkin response: " + error);
      continue;
    }
    if (!by_seq.emplace(seq, i).second) {
      run->Fail("checkin seq " + std::to_string(seq) + " issued twice");
    }
    acc.latency_ms.Add(r.latency_ms());
  }
  run->attempted += results.size();
  uint64_t expect = 1;
  for (const auto& [seq, i] : by_seq) {
    if (seq != expect++) {
      run->Fail("accepted check-in seqs are not 1..N");
      break;
    }
    const CheckinRecord& c = plan.events[i];
    stream::CheckinEvent e;
    e.user = c.user;
    e.poi = c.poi;
    e.city = world.dataset().poi(c.poi).city;
    e.time = c.time;
    e.seq = seq;
    acc.events.push_back(e);
    acc.sent.push_back(results[i].sent);
  }
  return acc;
}

/// Offline replay of the accepted check-ins through a fresh trainer over a
/// copy of the base checkpoint, in the service's windows.
std::unique_ptr<StTransRec> ReplayModel(const World& world,
                                        const std::string& base_copy,
                                        const std::string& delta_dir,
                                        const Accepted& acc) {
  StTransRecConfig cfg = ServedModelConfig();
  auto model = std::make_unique<StTransRec>(cfg);
  STTR_CHECK_OK(model->Prepare(world.dataset(), world.split));
  stream::IncrementalTrainerConfig tcfg;
  tcfg.delta_dir = delta_dir;
  stream::IncrementalTrainer trainer(tcfg);
  STTR_CHECK_OK(trainer.Init(model.get(), world.dataset(), base_copy));
  for (size_t i = 0; i < acc.events.size(); i += kWindow) {
    const size_t n = std::min(kWindow, acc.events.size() - i);
    STTR_CHECK_OK(trainer.TrainWindow({acc.events.data() + i, n}));
  }
  return model;
}

std::string CopyCheckpoint(const std::string& path, const std::string& dir) {
  const std::string copy =
      dir + "/" + std::filesystem::path(path).filename().string();
  std::filesystem::copy_file(path, copy,
                             std::filesystem::copy_options::overwrite_existing);
  return copy;
}

/// Probes on one connection, 1 ms apart, for the post-drain replay check.
std::vector<HttpResult> Probe(int port,
                              const std::vector<RecommendQuery>& queries) {
  std::vector<HttpRequest> requests;
  for (size_t i = 0; i < queries.size(); ++i) {
    requests.push_back(HttpRequest{0.001 * static_cast<double>(i),
                                   queries[i].Target(), false});
  }
  return RunOpenLoop(port, requests, 1, 5.0);
}

void AddTail(Report& r, const std::string& prefix, const std::string& suffix,
             const Samples& s, const std::string& unit) {
  for (double q : {0.99, 0.95, 0.90}) {
    if (s.Reportable(q)) {
      const int pct = static_cast<int>(std::lround(q * 100));
      r.Add(prefix + "_p" + std::to_string(pct) + "_ms" + suffix,
            s.Quantile(q), unit, s.size());
      return;
    }
  }
}

/// Phases shared by the untraced run and the traced run's HTTP part.
struct HttpPhases {
  Step low, high;
  std::vector<Step> probes;
  std::vector<size_t> probe_rungs;
  double max_qps = 0.0;
  std::vector<HttpResult> checkins;
  CheckinPlan plan;
  /// Peak RSS when the high step ends, before the rate search.
  double fixed_steps_peak_rss_mb = 0.0;
  /// CPU and wall time of the /checkin generator thread.
  double checkin_cpu_s = 0.0;
  double checkin_wall_s = 0.0;

  /// Server CPU of the low and high steps. The /checkin generator runs
  /// beside them; its CPU is charged to them by their share of its wall
  /// time (its arrivals are uniform in time) and taken off.
  double FixedStepsServerCpuS() const {
    const double share = Ratio(low.wall_s + high.wall_s, checkin_wall_s);
    return low.server_cpu_s + high.server_cpu_s -
           checkin_cpu_s * std::min(1.0, share);
  }
};

HttpPhases RunHttpPhases(Stack& stack, const World& world,
                         const RunOptions& options, bool skew,
                         RunResult* run) {
  const size_t conns = std::max<size_t>(1, Nproc() - (skew ? 1 : 0));
  QueryGen gen(world, skew, options.seed);
  Rng arrivals(options.seed * 0x9E3779B97F4A7C15ULL + 7);
  HttpPhases h;

  const double low_rate = Rung(kLowRung);
  const Step warm =
      RunStep(stack, world, gen, arrivals, low_rate,
              StepCount(low_rate, kWarmSeconds), conns, run, "warm-up");

  std::thread checkin_thread;
  if (skew) {
    const double window =
        options.seconds * (kLowShare + kHighShare + kProbes * kProbeShare);
    h.plan = MakeCheckinPlan(world, options.seed, window);
    checkin_thread = std::thread([&] {
      const Clock::time_point t0 = Clock::now();
      h.checkins = RunOpenLoop(stack.port(), h.plan.requests, 1,
                               kGraceSeconds, &h.checkin_cpu_s);
      h.checkin_wall_s = ToS(Clock::now() - t0);
    });
  }
  h.low = RunStep(stack, world, gen, arrivals, low_rate,
                  FixedStepCount(low_rate, kLowShare * options.seconds), conns,
                  run, "low step");
  const double high_rate = Rung(kHighRung);
  h.high = RunStep(stack, world, gen, arrivals, high_rate,
                   FixedStepCount(high_rate, kHighShare * options.seconds),
                   conns, run, "high step");
  h.fixed_steps_peak_rss_mb = PeakRssMb();
  for (const Step* s : {&warm, static_cast<const Step*>(&h.low),
                        static_cast<const Step*>(&h.high)}) {
    run->failed += s->refused + s->lost + s->malformed;
  }

  {
    // Highest rung meeting the limit: climb from the highest fixed step
    // that met it (or from the bottom of the ladder), then bisect the last
    // passing/failing gap.
    const Step* best = nullptr;
    size_t lo = 0;  // highest rung known to pass (when best != nullptr)
    size_t hi = kLadderRungs;  // lowest rung known to fail
    if (h.high.MeetsLimit()) {
      best = &h.high;
      lo = kHighRung;
    } else if (h.low.MeetsLimit()) {
      best = &h.low;
      lo = kLowRung;
      hi = kHighRung;
    } else {
      hi = kLowRung;
    }
    h.probes.reserve(kProbes);
    for (size_t p = 0; p < kProbes; ++p) {
      size_t rung = 0;
      if (best == nullptr) {
        rung = hi / 2;  // nothing passed yet: bisect below
      } else if (hi == kLadderRungs) {
        rung = std::min(lo + kClimb, kLadderRungs - 1);
      } else {
        rung = (lo + hi) / 2;
      }
      if ((best != nullptr && rung <= lo) || rung >= hi) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      h.probes.push_back(RunStep(stack, world, gen, arrivals, Rung(rung),
                                 StepCount(Rung(rung),
                                           kProbeShare * options.seconds),
                                 conns, run, "probe"));
      h.probe_rungs.push_back(rung);
      if (h.probes.back().MeetsLimit()) {
        best = &h.probes.back();
        lo = rung;
      } else {
        hi = rung;
      }
    }
    h.max_qps = best == nullptr ? 0.0 : best->achieved_rate();
  }
  if (checkin_thread.joinable()) checkin_thread.join();
  return h;
}

void ReportStep(Report& r, const std::string& suffix, const Step& s) {
  r.AddQuantile("recommend_p50_ms" + suffix, s.latency_ms, 0.5, "ms");
  AddTail(r, "recommend", suffix, s.latency_ms, "ms");
  r.Add("offered_qps" + suffix, s.rate, "req/s");
  r.AddQuantile("generator_late_ms.p50" + suffix, s.lateness_ms, 0.5, "ms");
  r.AddQuantile("generator_late_ms.p99" + suffix, s.lateness_ms, 0.99, "ms");
  r.Add("generator_late_ms.max" + suffix, s.lateness_ms.Max(), "ms",
        s.lateness_ms.size());
  r.Add("requests" + suffix, static_cast<double>(s.queries.size()), "count");
  r.Add("refused" + suffix, static_cast<double>(s.refused), "count");
}

std::string ProbesJson(const HttpPhases& h) {
  std::string out = "[";
  for (size_t i = 0; i < h.probes.size(); ++i) {
    const Step& p = h.probes[i];
    if (i > 0) out += ", ";
    out += "{\"rung\": " + std::to_string(h.probe_rungs[i]) +
           ", \"offered_qps\": " + JsonNumber(p.rate) +
           ", \"p99_ms\": " + JsonNumber(p.latency_ms.Quantile(0.99)) +
           ", \"refused\": " + std::to_string(p.refused) +
           ", \"lost\": " + std::to_string(p.lost) +
           ", \"meets_limit\": " + (p.MeetsLimit() ? "true" : "false") + "}";
  }
  return out + "]";
}

/// Deep-checks a spread sample of the fixed steps' responses.
void DeepCheck(const ReferenceRanker& ranker,
               const std::vector<const Step*>& steps, RunResult* run,
               size_t* checked) {
  size_t total = 0;
  for (const Step* s : steps) total += s->queries.size();
  const size_t stride = std::max<size_t>(1, total / kDeepChecks);
  size_t i = 0;
  for (const Step* s : steps) {
    for (size_t j = 0; j < s->queries.size(); ++j, ++i) {
      if (i % stride != 0 || s->results[j].status != 200) continue;
      std::string error;
      if (!ranker.Check(s->queries[j], s->results[j].body, &error)) {
        run->Fail("deep check: " + error);
      }
      ++*checked;
    }
  }
}

}  // namespace

// ---- Untraced run ----------------------------------------------------------

namespace {

RunResult RunServingUntraced(const RunOptions& options, bool skew) {
  RunResult run;
  DeltaLog deltas;
  std::unique_ptr<World> world;
  std::unique_ptr<Stack> stack;
  std::string ckpt_dir;
  Samples setup_s;
  double setup_peak_rss_mb = 0.0;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    world.reset();
    const Clock::time_point t0 = Clock::now();
    world = std::make_unique<World>(MakeWorld());
    ckpt_dir = NewDir(options, "ckpt" + std::to_string(rep));
    TrainServedCheckpoint(*world, ckpt_dir);
    StackOptions so;
    so.checkpoint_dir = ckpt_dir;
    so.streaming = skew;
    const World* w = world.get();
    so.delta_observer = [&deltas, w](const serve::ModelSnapshot&,
                                     const DeltaCheckpoint& d) {
      deltas.Observe(w->dataset(), d);
    };
    stack = std::make_unique<Stack>(*world, so);
    setup_s.Add(ToS(Clock::now() - t0));
    // Later repetitions free and rebuild everything, which fragments the
    // heap; the first shows the loaded stack's own footprint.
    if (rep == 0) setup_peak_rss_mb = PeakRssMb();
  }

  const std::pair<uint64_t, uint64_t> steal0 = HostStealTicks();
  HttpPhases h = RunHttpPhases(*stack, *world, options, skew, &run);
  const std::pair<uint64_t, uint64_t> steal1 = HostStealTicks();

  Report& r = run.report;
  r.Add("setup_s", setup_s.Quantile(0.5), "s", setup_s.size());
  r.Add("cpu_ms_per_request",
        1e3 * h.FixedStepsServerCpuS() /
            static_cast<double>(h.low.queries.size() + h.high.queries.size()),
        "ms");
  r.Add("host_steal_share",
        Ratio(static_cast<double>(steal1.first - steal0.first),
              static_cast<double>(steal1.second - steal0.second)),
        "ratio");
  ReportStep(r, ".low", h.low);
  ReportStep(r, ".high", h.high);
  r.Add("recommend_max_qps", h.max_qps, "req/s");
  r.Add("probes_missing_limit",
        static_cast<double>(std::count_if(
            h.probes.begin(), h.probes.end(),
            [](const Step& s) { return !s.MeetsLimit(); })),
        "count");
  run.report.Fact("probes", ProbesJson(h));

  // Checks: an independent model from a copy of the served checkpoint.
  const std::string check_dir = NewDir(options, "check");
  const std::string base_copy =
      CopyCheckpoint(stack->base_checkpoint(), check_dir);
  std::unique_ptr<serve::CandidateIndex> ref_index =
      MakeReferenceIndex(world->dataset(), world->split);
  size_t deep_checked = 0;
  if (!skew) {
    std::unique_ptr<StTransRec> ref = LoadReferenceModel(
        world->dataset(), world->split, ServedModelConfig(), base_copy);
    ReferenceRanker ranker(world->dataset(), *ref_index, *ref);
    DeepCheck(ranker, {&h.low, &h.high}, &run, &deep_checked);
  } else {
    Accepted acc = CheckCheckins(*world, h.plan, h.checkins, &run);
    AddTail(r, "checkin", "", acc.latency_ms, "ms");
    // Freshness: acceptance (send time) to the first applied delta whose
    // cumulative event count covers the check-in.
    std::vector<DeltaLog::Entry> applied;
    {
      sttr::MutexLock lock(deltas.mu);
      applied = deltas.entries;
    }
    Samples fresh_ms;
    for (size_t i = 0; i < acc.events.size(); ++i) {
      for (const DeltaLog::Entry& e : applied) {
        if (e.events_applied >= acc.events[i].seq) {
          fresh_ms.Add(ToMs(e.at - acc.sent[i]));
          break;
        }
      }
    }
    r.AddQuantile("freshness_p50_ms", fresh_ms, 0.5, "ms");
    AddTail(r, "freshness", "", fresh_ms, "ms");
    r.Add("checkins_accepted", static_cast<double>(acc.events.size()),
          "count");
    r.Add("deltas_applied_during_run", static_cast<double>(applied.size()),
          "count");

    stack->DrainIngest();
    const uint64_t trained =
        stack->stats().ingest.events_trained.load(std::memory_order_relaxed);
    if (trained != acc.events.size() ||
        stack->inc_trainer()->events_applied() != acc.events.size()) {
      run.Fail("accepted " + std::to_string(acc.events.size()) +
               " check-ins but trained " + std::to_string(trained));
    }
    std::unique_ptr<StTransRec> replayed =
        ReplayModel(*world, base_copy, check_dir + "/deltas", acc);
    ReferenceRanker ranker(world->dataset(), *ref_index, *replayed);
    std::vector<RecommendQuery> probes(
        h.low.queries.begin(),
        h.low.queries.begin() +
            static_cast<long>(std::min(kReplayProbes, h.low.queries.size())));
    const std::vector<HttpResult> answers = Probe(stack->port(), probes);
    run.attempted += answers.size();
    for (size_t i = 0; i < answers.size(); ++i) {
      std::string error;
      if (answers[i].status != 200) {
        ++run.failed;
        run.Fail("post-drain probe: HTTP " +
                 std::to_string(answers[i].status));
      } else if (!ranker.Check(probes[i], answers[i].body, &error)) {
        run.Fail("post-drain probe vs offline replay: " + error);
      }
      ++deep_checked;
    }
  }
  r.Add("deep_checked_responses", static_cast<double>(deep_checked),
        "count");
  stack->Shutdown();
  r.Add("peak_rss_mb", setup_peak_rss_mb, "MB");
  r.Add("peak_rss_mb.fixed_steps", h.fixed_steps_peak_rss_mb, "MB");

  Report& s = run.summary;
  s.Add("setup_s", r.Get("setup_s"), "s");
  s.Add("peak_rss_mb", r.Get("peak_rss_mb"), "MB");
  s.Add("cpu_ms_per_op", r.Get("cpu_ms_per_request"), "ms");
  for (const char* name : {"recommend_p99_ms.low", "recommend_p99_ms.high"}) {
    if (!r.Has(name)) run.Fail(std::string(name) + " has too few samples");
  }
  return run;
}

// ---- Traced run ------------------------------------------------------------

/// Per-request outcome of the traced replay.
struct ReplayRecord {
  bool hit = false;
  /// snapshot, cell_of, cache_get, candidates, batcher_submit, topk,
  /// cache_put (0 for stages a hit skips).
  double stage_us[7] = {0, 0, 0, 0, 0, 0, 0};
  /// Time spent recording this request's spans.
  double record_us = 0.0;
  std::vector<PoiId> candidates;
};

constexpr const char* kStageNames[7] = {
    "snapshot", "cell_of", "cache_get", "candidates", "batcher_submit",
    "topk",     "cache_put"};

/// Low-step chunks: HTTP and replay take turns so both see the same
/// stretch of host time.
constexpr size_t kTraceChunks = 8;

/// One replay thread: runs every `stride`-th request of [begin, end) at its
/// due time through the seven calls RecommendServer::ProcessRecommend
/// makes, in its order. `spans` null = no recording (warm-up).
void ReplayThread(Stack& stack, const Schedule& schedule, size_t begin,
                  size_t end, size_t stride, Clock::time_point t0,
                  SpanLog::Buffer* spans, std::vector<ReplayRecord>* out) {
  serve::CandidateIndex::Scratch scratch;
  std::vector<PoiId> candidates;
  serve::ResultCache::Value cached;
  for (size_t i = begin; i < end; i += stride) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(schedule.due[i] -
                                               schedule.due[begin])));
    ReplayRecord& rec = (*out)[i];
    const RecommendQuery& q = schedule.queries[i];
    const uint64_t req = i + 1;
    const uint64_t req_span = spans != nullptr ? spans->ReserveId() : 0;
    Clock::time_point marks[8];
    size_t m = 0;
    marks[m++] = Clock::now();
    const std::shared_ptr<const serve::ModelSnapshot> snapshot =
        stack.bundle().snapshot();
    marks[m++] = Clock::now();
    const GeoPoint loc{q.lat, q.lon};
    const CityId city = static_cast<CityId>(q.city);
    const uint64_t cell = stack.index().CellOf(city, loc);
    marks[m++] = Clock::now();
    const serve::ResultCacheKey key{q.user, city, cell,
                                    static_cast<uint32_t>(q.k),
                                    static_cast<uint8_t>(snapshot->precision)};
    rec.hit = stack.cache().GetInto(key, &cached);
    marks[m++] = Clock::now();
    if (!rec.hit) {
      stack.index().CandidatesInto(city, loc, 0, &scratch, &candidates);
      marks[m++] = Clock::now();
      const std::vector<double> scores =
          stack.batcher().Submit(snapshot->scorer, q.user, candidates).get();
      marks[m++] = Clock::now();
      serve::ResultCache::Value top =
          TopKByScore(candidates, scores, static_cast<size_t>(q.k));
      marks[m++] = Clock::now();
      stack.cache().Put(key, std::move(top));
      marks[m++] = Clock::now();
      rec.candidates = candidates;
    }
    for (size_t s = 0; s + 1 < m; ++s) {
      rec.stage_us[s] = ToUs(marks[s + 1] - marks[s]);
    }
    if (spans != nullptr) {
      for (size_t s = 0; s + 1 < m; ++s) {
        spans->RecordAs(spans->ReserveId(), kStageNames[s], req, req_span,
                        marks[s], marks[s + 1]);
      }
      spans->RecordAs(req_span, "request", req, 0, marks[0], marks[m - 1]);
      rec.record_us = ToUs(Clock::now() - marks[m - 1]);
    }
  }
}

void ReplayPass(Stack& stack, const Schedule& schedule, size_t begin,
                size_t end, size_t threads, SpanLog* log,
                std::vector<ReplayRecord>* out) {
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    SpanLog::Buffer* buf = log != nullptr ? log->NewBuffer() : nullptr;
    pool.emplace_back(ReplayThread, std::ref(stack), std::cref(schedule),
                      begin + t, end, threads, t0, buf, out);
  }
  for (std::thread& t : pool) t.join();
}

/// Ingest of the replay stack driven from benchmark threads: Submit at the
/// check-in schedule, the service's window loop with TrainWindow and
/// PublishDelta, and the bundle's 200 ms delta poll. Each check-in also
/// goes to `mirror`'s ingest service, which trains it on its own thread,
/// so the HTTP stack sees the same write stream.
class ReplayIngest {
 public:
  ReplayIngest(Stack& stack, Stack* mirror, const CheckinPlan& plan,
               SpanLog& log)
      : stack_(stack), mirror_(mirror), plan_(plan) {
    submit_spans_ = log.NewBuffer();
    train_spans_ = log.NewBuffer();
    poll_spans_ = log.NewBuffer();
    const Clock::time_point t0 = Clock::now();
    submitter_ = std::thread([this, t0] { Submit(t0); });
    trainer_ = std::thread([this] { Train(); });
    poller_ = std::thread([this] { Poll(); });
  }
  ~ReplayIngest() { Finish(); }
  ReplayIngest(const ReplayIngest&) = delete;
  ReplayIngest& operator=(const ReplayIngest&) = delete;

  /// Stops submitting, trains and publishes what is left, applies it.
  /// Idempotent.
  void Finish() {
    if (!submitter_.joinable()) return;
    stop_submit_.store(true);
    submitter_.join();
    stack_.ingest()->log().Close();
    trainer_.join();
    stop_poll_.store(true);
    poller_.join();
    for (int i = 0; i < 500; ++i) {
      if (stack_.bundle().snapshot()->delta_seq >=
          stack_.inc_trainer()->published_seq()) {
        break;
      }
      const Clock::time_point t = Clock::now();
      const StatusOr<bool> applied = stack_.bundle().ApplyDeltaIfNewer();
      if (applied.ok() && applied.value()) {
        poll_spans_->Record("apply_delta", 0, 0, t);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }

  size_t pending_max() const { return pending_max_; }

 private:
  void Submit(Clock::time_point t0) {
    for (size_t i = 0; i < plan_.requests.size(); ++i) {
      if (stop_submit_.load()) break;
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(plan_.requests[i].due_s)));
      stream::CheckinEvent e;
      e.user = plan_.events[i].user;
      e.poi = plan_.events[i].poi;
      e.time = plan_.events[i].time;
      const Clock::time_point t = Clock::now();
      const StatusOr<uint64_t> seq = stack_.ingest()->Submit(e);
      submit_spans_->Record("ingest_submit", 0, 0, t);
      if (mirror_ != nullptr) (void)mirror_->ingest()->Submit(e);
      (void)seq;
      pending_max_ = std::max(pending_max_, stack_.ingest()->pending());
    }
  }

  void Train() {
    std::vector<stream::CheckinEvent> window;
    for (;;) {
      window.clear();
      bool closed = false;
      while (window.size() < kWindow) {
        if (stack_.ingest()->log().WaitPop(kWindow - window.size(),
                                           &window) == 0) {
          closed = true;
          break;
        }
      }
      if (!window.empty()) {
        Clock::time_point t = Clock::now();
        STTR_CHECK_OK(stack_.inc_trainer()->TrainWindow(window));
        train_spans_->Record("train_window", 0, 0, t);
        t = Clock::now();
        STTR_CHECK_OK(stack_.inc_trainer()->PublishDelta());
        train_spans_->Record("publish_delta", 0, 0, t);
      }
      if (closed) return;
    }
  }

  void Poll() {
    while (!stop_poll_.load()) {
      const Clock::time_point t = Clock::now();
      const StatusOr<bool> applied = stack_.bundle().ApplyDeltaIfNewer();
      if (applied.ok() && applied.value()) {
        poll_spans_->Record("apply_delta", 0, 0, t);
      }
      std::this_thread::sleep_for(kPoll);
    }
  }

  Stack& stack_;
  Stack* mirror_;
  const CheckinPlan& plan_;
  SpanLog::Buffer* submit_spans_;
  SpanLog::Buffer* train_spans_;
  SpanLog::Buffer* poll_spans_;
  std::atomic<bool> stop_submit_{false};
  std::atomic<bool> stop_poll_{false};
  size_t pending_max_ = 0;
  std::thread submitter_, trainer_, poller_;
};

RunResult RunServingTraced(const RunOptions& options, bool skew) {
  RunResult run;
  const World world = MakeWorld();
  const std::string ckpt_dir = NewDir(options, "ckpt");
  TrainServedCheckpoint(world, ckpt_dir);
  Report& r = run.report;

  // Stack `http` serves HTTP exactly as in the untraced run (the
  // server-side counters); stack `replay`, over a copy of the checkpoint,
  // takes the layer-by-layer replay of the same requests.
  StackOptions http_options;
  http_options.checkpoint_dir = ckpt_dir;
  http_options.streaming = skew;
  Stack http(world, http_options);
  const std::string replay_dir = NewDir(options, "replay");
  CopyCheckpoint(http.base_checkpoint(), replay_dir);
  DeltaLog deltas;
  StackOptions replay_options;
  replay_options.checkpoint_dir = replay_dir;
  replay_options.streaming = skew;
  replay_options.external_loops = true;
  replay_options.delta_observer = [&deltas, &world](
                                      const serve::ModelSnapshot&,
                                      const DeltaCheckpoint& d) {
    deltas.Observe(world.dataset(), d);
  };
  Stack replay(world, replay_options);

  const size_t conns = std::max<size_t>(1, Nproc() - (skew ? 1 : 0));
  const double low_rate = Rung(kLowRung);
  QueryGen gen(world, skew, options.seed);
  Rng arrivals(options.seed * 0x9E3779B97F4A7C15ULL + 7);
  SpanLog log;
  CheckinPlan plan;
  std::unique_ptr<ReplayIngest> ingest;
  if (skew) {
    plan = MakeCheckinPlan(
        world, options.seed,
        kWarmSeconds + (2 * kLowShare + kHighShare) * options.seconds);
    ingest = std::make_unique<ReplayIngest>(replay, &http, plan, log);
  }

  // Warm-up on both stacks, then the low step with HTTP and replay taking
  // turns chunk by chunk, then the high step over HTTP.
  const auto count_failures = [&run](const Step& s) {
    run.failed += s.refused + s.lost + s.malformed;
  };
  const Schedule warm = MakeSchedule(gen, arrivals, low_rate,
                                     StepCount(low_rate, kWarmSeconds));
  std::vector<ReplayRecord> warm_records(warm.due.size());
  count_failures(SendSchedule(http, world, warm, 0, warm.due.size(), conns,
                              true, &run, "warm-up"));
  ReplayPass(replay, warm, 0, warm.due.size(), conns, nullptr,
             &warm_records);

  const Schedule low = MakeSchedule(
      gen, arrivals, low_rate,
      FixedStepCount(low_rate, kLowShare * options.seconds));
  const size_t n = low.due.size();
  std::vector<ReplayRecord> traced(n);
  // The replay stack keeps its own ServeStats, so the HTTP stack's
  // counters across the loop cover exactly the HTTP chunks.
  http.stats().request_latency.Reset();
  const Counters low_before = Counters::Read(http.stats());
  Samples rtt_ms;
  for (size_t c = 0; c < kTraceChunks; ++c) {
    const size_t b = n * c / kTraceChunks;
    const size_t e = n * (c + 1) / kTraceChunks;
    const Step chunk = SendSchedule(http, world, low, b, e, conns, false,
                                    &run, "low step");
    count_failures(chunk);
    for (double v : chunk.rtt_ms.values()) rtt_ms.Add(v);
    ReplayPass(replay, low, b, e, conns, &log, &traced);
  }
  const Counters lc = Counters::Read(http.stats()).Minus(low_before);
  const serve::LatencyHistogram::Summary server =
      http.stats().request_latency.Summarize();
  const Step high = RunStep(
      http, world, gen, arrivals, Rung(kHighRung),
      FixedStepCount(Rung(kHighRung), kHighShare * options.seconds), conns,
      &run, "high step");
  count_failures(high);
  if (ingest != nullptr) ingest->Finish();
  http.Shutdown();

  // Scoring alone, single-threaded, for every traced miss.
  Samples alone_us, wait_us, cand_count;
  double pairs = 0.0, alone_total_s = 0.0;
  const std::shared_ptr<const serve::ModelSnapshot> snapshot =
      replay.bundle().snapshot();
  std::vector<UserId> users;
  for (size_t i = 0; i < n; ++i) {
    const ReplayRecord& rec = traced[i];
    if (rec.hit) continue;
    users.assign(rec.candidates.size(), low.queries[i].user);
    const Clock::time_point t = Clock::now();
    const std::vector<double> scores =
        snapshot->scorer->ScorePairs(users, rec.candidates);
    const double us = ToUs(Clock::now() - t);
    STTR_CHECK(scores.size() == rec.candidates.size());
    alone_us.Add(us);
    wait_us.Add(rec.stage_us[4] - us);
    pairs += static_cast<double>(rec.candidates.size());
    alone_total_s += us * 1e-6;
    cand_count.Add(static_cast<double>(rec.candidates.size()));
  }
  replay.Shutdown();

  const Counters& hc = high.counters;
  r.Add("transport.rtt_minus_server_ms.p50",
        rtt_ms.Quantile(0.5) - server.p50_ms, "ms", rtt_ms.size());
  r.Add("transport.syscalls_per_req",
        Ratio(static_cast<double>(lc.syscalls), static_cast<double>(n)),
        "count");
  r.Add("transport.allocs_per_hit",
        Ratio(static_cast<double>(lc.hot_allocs + hc.hot_allocs),
              static_cast<double>(lc.hot_requests + hc.hot_requests)),
        "count");
  r.Add("serve.allocs_per_req",
        Ratio(static_cast<double>(lc.recommend_allocs),
              static_cast<double>(lc.recommends())),
        "count");
  r.Add("serve.rejected_requests",
        static_cast<double>(lc.rejected + hc.rejected), "count");
  r.Add("server.handle_ms.p50", server.p50_ms, "ms", server.count);
  r.Add("server.handle_ms.p99", server.p99_ms, "ms", server.count);
  r.Add("server.handle_ms.mean", server.mean_ms, "ms", server.count);
  r.Add("batcher.requests_per_flush",
        Ratio(static_cast<double>(hc.batched_requests),
              static_cast<double>(hc.batches)),
        "count");
  r.Add("batcher.pairs_per_flush",
        Ratio(static_cast<double>(hc.scored_pairs),
              static_cast<double>(hc.batches)),
        "count");

  const auto stage_samples = [&](size_t stage) {
    Samples out;
    for (const ReplayRecord& rec : traced) {
      if (!rec.hit || stage < 3) out.Add(rec.stage_us[stage]);
    }
    return out;
  };
  size_t hits = 0;
  double stage_sum_ms = 0.0;
  Samples record_us;
  for (const ReplayRecord& rec : traced) {
    hits += rec.hit ? 1 : 0;
    for (double us : rec.stage_us) stage_sum_ms += us * 1e-3;
    record_us.Add(rec.record_us);
  }
  stage_sum_ms /= static_cast<double>(std::max<size_t>(1, n));
  r.Add("server.unattributed_ms.mean", server.mean_ms - stage_sum_ms, "ms");
  r.Add("trace.stage_sum_ms.mean", stage_sum_ms, "ms", n);
  // The replay runs the same calls with or without spans; recording them
  // is what tracing adds to each request.
  r.Add("trace.overhead_us.mean", record_us.Mean(), "us", record_us.size());
  const bool within = std::abs(server.mean_ms - stage_sum_ms) <=
                      kStageSumTolerance * server.mean_ms;
  r.Fact("stage_sum_within_tolerance", within ? "true" : "false");
  if (!within && !skew) {
    run.Fail("traced stage means add up to " + std::to_string(stage_sum_ms) +
             " ms, not within " +
             std::to_string(static_cast<int>(kStageSumTolerance * 100)) +
             "% of the server.handle_ms mean " +
             std::to_string(server.mean_ms) + " ms");
  }
  r.Add("cache.hit_share",
        Ratio(static_cast<double>(hits), static_cast<double>(n)), "ratio");
  r.Add("cache.get_us.p50", stage_samples(2).Quantile(0.5), "us");
  r.Add("cache.put_us.p50", stage_samples(6).Quantile(0.5), "us");
  r.Add("candidates.per_request", cand_count.Mean(), "count");
  r.Add("candidates.us.p50", stage_samples(3).Quantile(0.5), "us");
  r.Add("batcher.wait_us.p50", wait_us.Quantile(0.5), "us", wait_us.size());
  r.Add("score.us_per_request.p50", alone_us.Quantile(0.5), "us",
        alone_us.size());
  r.Add("score.pairs_per_s", Ratio(pairs, alone_total_s), "1/s");
  r.Add("topk.us.p50", stage_samples(5).Quantile(0.5), "us");
  r.Add("stage.snapshot_us.p50", stage_samples(0).Quantile(0.5), "us");
  r.Add("stage.cell_of_us.p50", stage_samples(1).Quantile(0.5), "us");
  std::vector<DeltaLog::Entry> applied;
  {
    sttr::MutexLock lock(deltas.mu);
    applied = deltas.entries;
  }
  Samples users_per, cities_per, rows_per;
  for (const DeltaLog::Entry& e : applied) {
    users_per.Add(static_cast<double>(e.users));
    cities_per.Add(static_cast<double>(e.cities));
    rows_per.Add(static_cast<double>(e.rows));
  }
  r.Add("cache.invalidated_users_per_delta", users_per.Mean(), "count");
  if (!applied.empty()) {
    // Deltas are cumulative: the first and last show how the set grows.
    r.Fact("invalidated_users_first_last_delta",
           "[" + std::to_string(applied.front().users) + ", " +
               std::to_string(applied.back().users) + "]");
  }
  r.Add("cache.invalidated_cities_per_delta", cities_per.Mean(), "count");
  r.Add("bundle.delta_apply_ms.p50",
        log.Durations("apply_delta").Quantile(0.5), "ms");
  r.Add("bundle.deltas_applied", static_cast<double>(applied.size()),
        "count");
  r.Add("bundle.rows_patched_per_delta", rows_per.Mean(), "count");
  r.Add("ingest.submit_us.p50",
        log.Durations("ingest_submit").Quantile(0.5) * 1e3, "us");
  r.Add("ingest.pending.max",
        ingest != nullptr ? static_cast<double>(ingest->pending_max()) : 0.0,
        "count");
  r.Add("ingest.rejected",
        static_cast<double>(replay.stats().ingest.checkins_rejected.load()),
        "count");
  r.Add("inc_trainer.window_ms.p50",
        log.Durations("train_window").Quantile(0.5), "ms");
  r.Add("inc_trainer.publish_ms.p50",
        log.Durations("publish_delta").Quantile(0.5), "ms");
  const stream::IncrementalTrainer* inc = replay.inc_trainer();
  r.Add("inc_trainer.delta_rows",
        inc != nullptr ? static_cast<double>(inc->BuildDelta().total_rows())
                       : 0.0,
        "count");
  const std::string spans_path = options.out_dir + "/" + options.workload +
                                 "-seed" + std::to_string(options.seed) +
                                 "-spans.jsonl";
  if (!log.WriteJsonLines(spans_path)) run.Fail("cannot write " + spans_path);
  r.Fact("spans", JsonString(spans_path));
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  return run;
}

}  // namespace

RunResult RunServing(const RunOptions& options, bool skew) {
  return options.trace ? RunServingTraced(options, skew)
                       : RunServingUntraced(options, skew);
}

namespace {

/// A response body built the way the server formats one (scores "%.17g").
std::string BodyOf(const RecommendQuery& q,
                   const std::vector<std::pair<int64_t, double>>& results) {
  std::string body = "{\"user\": " + std::to_string(q.user) +
                     ", \"city\": " + std::to_string(q.city) +
                     ", \"cell\": 0, \"k\": " + std::to_string(q.k) +
                     ", \"cached\": false, \"model_epoch\": 1, "
                     "\"model_version\": 1, \"results\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    char score[40];
    std::snprintf(score, sizeof(score), "%.17g", results[i].second);
    body += (i > 0 ? ", " : "") + std::string("{\"poi\": ") +
            std::to_string(results[i].first) + ", \"score\": " + score + "}";
  }
  return body + "]}";
}

}  // namespace

int RunCheckerSelfTest(const RunOptions& options) {
  const World world = MakeWorld();
  const std::string ckpt_dir = NewDir(options, "ckpt");
  TrainServedCheckpoint(world, ckpt_dir);
  const std::string check_dir = NewDir(options, "check");
  int failures = 0;
  const auto expect = [&](const char* what, bool want_pass, bool passed,
                          const std::string& error) {
    const bool ok = want_pass == passed;
    failures += ok ? 0 : 1;
    std::printf("%s  %-44s %s%s\n", ok ? "ok  " : "FAIL", what,
                passed ? "accepted" : "rejected",
                error.empty() ? "" : (": " + error).c_str());
  };

  std::string base;
  RecommendQuery q;
  std::string served_body;
  {
    // A live response from the served stack must pass the checker.
    Stack stack(world, StackOptions{ckpt_dir, false, false, nullptr});
    base = CopyCheckpoint(stack.base_checkpoint(), check_dir);
    QueryGen gen(world, false, options.seed);
    q = gen.Next();
    const std::vector<HttpResult> got = Probe(stack.port(), {q});
    served_body = got[0].body;
    stack.Shutdown();
  }
  const std::unique_ptr<serve::CandidateIndex> index =
      MakeReferenceIndex(world.dataset(), world.split);
  const std::unique_ptr<StTransRec> model = LoadReferenceModel(
      world.dataset(), world.split, ServedModelConfig(), base);
  const ReferenceRanker ranker(world.dataset(), *index, *model);
  std::string error;
  expect("live /recommend response", true,
         ranker.Check(q, served_body, &error), error);

  const std::vector<std::pair<int64_t, double>> good = ranker.Expected(q);
  error.clear();
  expect("reference top-k", true, ranker.Check(q, BodyOf(q, good), &error),
         error);

  auto perturbed = good;
  perturbed[3].second = std::nextafter(perturbed[3].second, 2.0);
  error.clear();
  expect("score off by one ulp", false,
         ranker.Check(q, BodyOf(q, perturbed), &error), error);

  auto swapped = good;
  std::swap(swapped[1], swapped[2]);
  error.clear();
  expect("two results swapped", false,
         ranker.Check(q, BodyOf(q, swapped), &error), error);

  auto duplicated = good;
  duplicated[5] = duplicated[4];
  error.clear();
  expect("duplicate poi", false,
         ranker.Check(q, BodyOf(q, duplicated), &error), error);

  auto foreign = good;
  for (const Poi& poi : world.dataset().pois()) {
    if (poi.city != q.city) {
      foreign[9].first = poi.id;
      break;
    }
  }
  error.clear();
  expect("poi outside the requested city", false,
         ranker.Check(q, BodyOf(q, foreign), &error), error);

  auto short_list = good;
  short_list.pop_back();
  error.clear();
  expect("k-1 results", false,
         ranker.Check(q, BodyOf(q, short_list), &error), error);

  error.clear();
  expect("truncated JSON", false,
         ranker.Check(q, BodyOf(q, good).substr(0, 40), &error), error);

  // Stale post-delta result: one window of held-out check-ins replayed;
  // the pre-delta ranking of a user in that window must be rejected.
  Accepted acc;
  const std::vector<CheckinRecord> held = HeldOutCheckins(world, options.seed);
  for (size_t i = 0; i < kWindow && i < held.size(); ++i) {
    stream::CheckinEvent e;
    e.user = held[i].user;
    e.poi = held[i].poi;
    e.city = held[i].city;
    e.time = held[i].time;
    e.seq = i + 1;
    acc.events.push_back(e);
  }
  const std::unique_ptr<StTransRec> replayed =
      ReplayModel(world, base, check_dir + "/deltas", acc);
  const ReferenceRanker after(world.dataset(), *index, *replayed);
  RecommendQuery hot = q;
  hot.user = acc.events[0].user;
  hot.lat = world.dataset().poi(acc.events[0].poi).location.lat;
  hot.lon = world.dataset().poi(acc.events[0].poi).location.lon;
  error.clear();
  expect("post-delta top-k vs replay", true,
         after.Check(hot, BodyOf(hot, after.Expected(hot)), &error), error);
  error.clear();
  expect("stale pre-delta top-k vs replay", false,
         after.Check(hot, BodyOf(hot, ranker.Expected(hot)), &error), error);

  std::printf("checker self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace e2e
