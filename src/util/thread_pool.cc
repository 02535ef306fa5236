#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"
#include "util/logging.h"

namespace sttr {

namespace {

thread_local bool t_in_worker = false;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  STTR_CHECK_GE(num_threads, 1u);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::InWorker() { return t_in_worker; }

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    STTR_CHECK(!shutting_down_) << "Submit() after shutdown";
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) all_done_.Wait(mu_);
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  // ~4 chunks per worker balances load without per-index dispatch cost.
  const size_t grain =
      std::max<size_t>(1, n / (4 * std::max<size_t>(1, threads_.size())));
  ParallelForChunked(n, grain, [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::ParallelForChunked(
    size_t n, size_t grain,
    const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<size_t>(1, grain);
  if (n <= grain || InWorker()) {
    // Single chunk, or already on a pool worker: run inline rather than
    // nesting pools (a worker blocking in Wait() could starve the queue).
    fn(0, n);
    return;
  }
  for (size_t begin = 0; begin < n; begin += grain) {
    const size_t end = std::min(n, begin + grain);
    Submit([begin, end, &fn] { fn(begin, end); });
  }
  Wait();
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(mu_);
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

size_t DefaultNumThreads() {
  if (const char* env = std::getenv("STTR_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<size_t>(v);
    STTR_LOG(Warning) << "STTR_NUM_THREADS='" << env
                      << "' is not a positive integer; falling back to "
                         "hardware_concurrency()";
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace sttr
