#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace e2e {

SpanLog::Buffer::Buffer(SpanLog* log, size_t reserve) : log_(log) {
  spans_.reserve(reserve);
}

uint64_t SpanLog::Buffer::Record(const char* name, uint64_t request,
                                 uint64_t parent, Clock::time_point start) {
  const uint64_t id = log_->NextId();
  spans_.push_back(Span{id, parent, request, name, start, Clock::now()});
  return id;
}

void SpanLog::Buffer::RecordAs(uint64_t id, const char* name,
                               uint64_t request, uint64_t parent,
                               Clock::time_point start,
                               Clock::time_point end) {
  spans_.push_back(Span{id, parent, request, name, start, end});
}

SpanLog::Buffer* SpanLog::NewBuffer(size_t reserve) {
  sttr::MutexLock lock(mu_);
  buffers_.push_back(std::unique_ptr<Buffer>(new Buffer(this, reserve)));
  return buffers_.back().get();
}

Samples SpanLog::Durations(const std::string& name) const {
  sttr::MutexLock lock(mu_);
  Samples out;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans_) {
      if (name == s.name) out.Add(s.ms());
    }
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  sttr::MutexLock lock(mu_);
  Clock::time_point origin = Clock::time_point::max();
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans_) origin = std::min(origin, s.start);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans_) {
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                   "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   ToUs(s.start - origin), ToUs(s.end - origin));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
