// Shared pieces of the end-to-end benchmark: the clock, sample summaries
// with the "ten samples beyond a percentile" reporting rule, and the metric
// report every run prints and writes.
#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ToMs(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double ToUs(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double ToS(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// A bag of measurements of one kind (latencies, spans, ...).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  double Mean() const;
  double Max() const;
  /// Linear-interpolated quantile q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  /// True when at least ten samples lie beyond quantile q, the rule for
  /// reporting a percentile (and the median needs forty samples).
  bool Reportable(double q) const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Measurements behind the value (0 = a count or a ratio of counts).
  uint64_t samples = 0;
};

/// Ordered metric list plus the run's free-form facts, rendered as the
/// per-workload JSON document.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0);
  /// Adds `name` = quantile q of `s` when the sample rule allows it.
  void AddQuantile(const std::string& name, const Samples& s, double q,
                   const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// Extra facts (strings/numbers already JSON-encoded).
  void Fact(const std::string& key, const std::string& json_value);
  std::string FactsJson() const;
  std::string MetricsJson(int indent) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> facts_;
};

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

}  // namespace e2e

#endif  // E2EBENCH_COMMON_H_
