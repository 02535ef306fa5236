// The benchmark's workloads and what a run of one returns.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch space for checkpoints, deltas and spans (inside the checkout).
  std::string work_dir;
  /// Where the per-run JSON document and span file go.
  std::string out_dir;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Everything the run measured, under the names in the README.
  Report report;
  /// The metrics on the last output line, in BENCHMARK.json's order.
  Report summary;
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
};

/// Workload names, in BENCHMARK.json's order.
const std::vector<std::string>& WorkloadNames();

RunResult RunServing(const RunOptions& options, bool skew);
RunResult RunTrain(const RunOptions& options);

/// Checker self-test: a correct response passes and a perturbed score, a
/// misordered list and a stale post-delta result are each caught.
int RunCheckerSelfTest(const RunOptions& options);

/// Hardware threads available to the process.
size_t Nproc();
/// Peak resident set size of the process so far, in MB.
double PeakRssMb();
/// CPU seconds (user + system) the whole process has used so far.
double ProcessCpuSeconds();
/// Cumulative CPU ticks of the host: (steal, total), from /proc/stat.
std::pair<uint64_t, uint64_t> HostStealTicks();

/// End-to-end metric names every workload reports (BENCHMARK.json).
const std::vector<std::string>& SummaryMetricNames();
/// Per-layer metric names every traced run reports (BENCHMARK.json); a
/// layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
