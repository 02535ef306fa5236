#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::Max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

bool Samples::Reportable(double q) const {
  const double n = static_cast<double>(values_.size());
  if (q <= 0.5) return n >= 40;
  return n * (1.0 - q) >= 10.0 - 1e-9;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::AddQuantile(const std::string& name, const Samples& s, double q,
                         const std::string& unit) {
  if (s.Reportable(q)) Add(name, s.Quantile(q), unit, s.size());
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

bool Report::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

double Report::Get(const std::string& name) const {
  const Metric* m = Find(name);
  return m == nullptr ? 0.0 : m->value;
}

void Report::Fact(const std::string& key, const std::string& json_value) {
  facts_.emplace_back(key, json_value);
}

std::string Report::FactsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < facts_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(facts_[i].first) + ": " + facts_[i].second;
  }
  return out + "}";
}

std::string Report::MetricsJson(int indent) const {
  const std::string pad(static_cast<size_t>(indent), ' ');
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += i > 0 ? ",\n" : "\n";
    out += pad + JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (m.samples > 0) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace e2e
