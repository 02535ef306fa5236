// e2ebench: one command for the end-to-end benchmark of the serving stack
// (/recommend, /checkin) and data-parallel training. See README.md.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//   e2ebench --self-test
//
// Prints a human-readable summary, writes the run's JSON document to
// .bench_out/, and ends with one JSON line: {"correct", "attempted",
// "failed", "metrics"}. The metrics are the end-to-end metrics of
// BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "workloads.h"

namespace e2e {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "recommend_miss", "recommend_skew_checkin", "train_parallel"};
  return names;
}

const std::vector<std::string>& SummaryMetricNames() {
  static const std::vector<std::string> names = {"setup_s", "peak_rss_mb",
                                                 "cpu_ms_per_op"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"transport.rtt_minus_server_ms.p50", "ms"},
      {"transport.syscalls_per_req", "count"},
      {"transport.allocs_per_hit", "count"},
      {"serve.allocs_per_req", "count"},
      {"serve.rejected_requests", "count"},
      {"server.handle_ms.p50", "ms"},
      {"server.handle_ms.p99", "ms"},
      {"server.unattributed_ms.mean", "ms"},
      {"trace.overhead_us.mean", "us"},
      {"cache.hit_share", "ratio"},
      {"cache.get_us.p50", "us"},
      {"cache.put_us.p50", "us"},
      {"cache.invalidated_users_per_delta", "count"},
      {"cache.invalidated_cities_per_delta", "count"},
      {"candidates.per_request", "count"},
      {"candidates.us.p50", "us"},
      {"batcher.requests_per_flush", "count"},
      {"batcher.pairs_per_flush", "count"},
      {"batcher.wait_us.p50", "us"},
      {"score.us_per_request.p50", "us"},
      {"score.pairs_per_s", "1/s"},
      {"topk.us.p50", "us"},
      {"bundle.delta_apply_ms.p50", "ms"},
      {"bundle.deltas_applied", "count"},
      {"bundle.rows_patched_per_delta", "count"},
      {"ingest.submit_us.p50", "us"},
      {"ingest.pending.max", "count"},
      {"ingest.rejected", "count"},
      {"inc_trainer.window_ms.p50", "ms"},
      {"inc_trainer.publish_ms.p50", "ms"},
      {"inc_trainer.delta_rows", "count"},
      {"train.sample_batch_ms", "ms"},
      {"train.compute_gradients_ms", "ms"},
      {"train.optimizer_step_ms", "ms"},
      {"train.mmd_ms", "ms"},
      {"train.iter_ms.w1", "ms"},
      {"train.iter_ms.wmax", "ms"},
      {"train.sync_ms.wmax", "ms"},
      {"train.touched_rows_per_iter", "count"},
  };
  return metrics;
}

size_t Nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

std::pair<uint64_t, uint64_t> HostStealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  uint64_t total = 0;
  for (unsigned long long x : v) total += x;
  return {v[7], total};
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       e2ebench --self-test\nworkloads:");
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Reads "--name value" or "--name=value".
bool Flag(int argc, char** argv, int* i, const char* name,
          std::string* value) {
  const std::string arg = argv[*i];
  const std::string flag = std::string("--") + name;
  if (arg == flag && *i + 1 < argc) {
    *value = argv[++*i];
    return true;
  }
  if (arg.rfind(flag + "=", 0) == 0) {
    *value = arg.substr(flag.size() + 1);
    return true;
  }
  return false;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool self_test = false;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-test") == 0) {
      self_test = true;
    } else if (Flag(argc, argv, &i, "workload", &value)) {
      options.workload = value;
    } else if (Flag(argc, argv, &i, "seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(argc, argv, &i, "seconds", &value)) {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (Flag(argc, argv, &i, "trace", &value)) {
      options.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (!(options.seconds >= 1.0 && options.seconds <= 600.0)) return Usage();

  options.out_dir = ".bench_out";
  options.work_dir = ".bench_build/work/" +
                     (self_test ? std::string("self-test") : options.workload) +
                     "-" + std::to_string(::getpid());
  std::filesystem::create_directories(options.out_dir);
  std::filesystem::create_directories(options.work_dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() { std::filesystem::remove_all(dir); }
  } cleanup{options.work_dir};

  if (self_test) return RunCheckerSelfTest(options);

  RunResult run;
  if (options.workload == "recommend_miss") {
    run = RunServing(options, false);
  } else if (options.workload == "recommend_skew_checkin") {
    run = RunServing(options, true);
  } else if (options.workload == "train_parallel") {
    run = RunTrain(options);
  } else {
    return Usage();
  }

  // Per-layer metrics a workload does not exercise read 0.
  Report last;
  if (options.trace) {
    for (const auto& [name, unit] : LayerMetrics()) {
      last.Add(name, run.report.Get(name), unit);
    }
  } else {
    for (const std::string& name : SummaryMetricNames()) {
      const Metric* m = run.summary.Find(name);
      if (m == nullptr || !(m->value > 0.0)) {
        run.Fail("end-to-end metric " + name + " was not measured");
        last.Add(name, 0.0, "");
      } else {
        last.Add(name, m->value, m->unit);
      }
    }
  }

  for (const Metric& m : run.report.metrics()) {
    std::printf("%-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : run.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }

  const std::string doc_path = options.out_dir + "/" + options.workload +
                               "-seed" + std::to_string(options.seed) +
                               "-trace" + (options.trace ? "1" : "0") +
                               ".json";
  if (std::FILE* f = std::fopen(doc_path.c_str(), "w")) {
    std::string errors = "[";
    for (size_t i = 0; i < run.errors.size(); ++i) {
      errors += (i > 0 ? ", " : "") + JsonString(run.errors[i]);
    }
    errors += "]";
    std::fprintf(
        f,
        "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %s, "
        "\"nproc\": %zu,\n \"correct\": %s, \"attempted\": %llu, "
        "\"failed\": %llu, \"errors\": %s,\n \"facts\": %s,\n \"metrics\": "
        "%s,\n \"summary\": %s}\n",
        JsonString(options.workload).c_str(),
        static_cast<unsigned long long>(options.seed),
        JsonNumber(options.seconds).c_str(), options.trace ? "true" : "false",
        Nproc(), run.correct ? "true" : "false",
        static_cast<unsigned long long>(run.attempted),
        static_cast<unsigned long long>(run.failed), errors.c_str(),
        run.report.FactsJson().c_str(), run.report.MetricsJson(2).c_str(),
        last.MetricsJson(2).c_str());
    std::fclose(f);
    std::printf("wrote %s\n", doc_path.c_str());
  }

  std::string line = "{\"correct\": ";
  line += run.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(run.attempted);
  line += ", \"failed\": " + std::to_string(run.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < last.metrics().size(); ++i) {
    const Metric& m = last.metrics()[i];
    if (i > 0) line += ", ";
    line += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
