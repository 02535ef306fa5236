// In-memory spans for the traced run. Each span is one call into a layer's
// public function, timed from the benchmark's own code; spans of one
// request share its id and name the request span as their parent. Spans
// stay in per-thread buffers until the run ends and are then written out
// as JSON lines.
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "util/mutex.h"

namespace e2e {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = a root span
  uint64_t request = 0;  ///< shared by every span of one request
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  double ms() const { return ToMs(end - start); }
  double us() const { return ToUs(end - start); }
};

class SpanLog {
 public:
  /// One writer thread per buffer; buffers are created up front.
  class Buffer {
   public:
    /// Records [start, now) as a span and returns its id.
    uint64_t Record(const char* name, uint64_t request, uint64_t parent,
                    Clock::time_point start);
    /// An id for a span recorded later with RecordAs (a request span whose
    /// children are recorded first).
    uint64_t ReserveId() { return log_->NextId(); }
    void RecordAs(uint64_t id, const char* name, uint64_t request,
                  uint64_t parent, Clock::time_point start,
                  Clock::time_point end);
    const std::vector<Span>& spans() const { return spans_; }

   private:
    friend class SpanLog;
    Buffer(SpanLog* log, size_t reserve);
    SpanLog* log_;
    std::vector<Span> spans_;
  };

  Buffer* NewBuffer(size_t reserve = 1 << 14) EXCLUDES(mu_);

  /// Durations (ms) of every span called `name`.
  Samples Durations(const std::string& name) const EXCLUDES(mu_);
  /// Writes every span as one JSON object per line, times in microseconds
  /// from the earliest span.
  bool WriteJsonLines(const std::string& path) const EXCLUDES(mu_);

 private:
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  std::atomic<uint64_t> next_id_{0};
  mutable sttr::Mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_ GUARDED_BY(mu_);
};

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
