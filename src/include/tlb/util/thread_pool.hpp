#pragma once
// Minimal fixed-size thread pool. The engines own one each (threads != 1)
// and reuse it every round: util::parallel_shard submits one task per
// worker, and the workers pull shard indices from a shared counter, so a
// round's phases (departure sampling; in the exact engine also the merge
// and the bulk scatter) cost one wake-up each however many shards they
// have. Shards run tens of microseconds to a few milliseconds. Tasks are
// plain std::function<void()>; there is no work stealing.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "tlb/obs/registry.hpp"

namespace tlb::obs {
class TraceWriter;
}  // namespace tlb::obs

namespace tlb::util {

/// Fixed-size thread pool. Threads are joined in the destructor (RAII); any
/// exception thrown by a task is rethrown from wait_idle() on the caller's
/// thread (first one wins, the rest are dropped).
class ThreadPool {
 public:
  /// Spin up `threads` workers (defaults to hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for execution. Thread safe.
  void submit(std::function<void()> task);

  /// Block until the queue is empty and all workers are idle. Rethrows the
  /// first task exception, if any.
  void wait_idle();

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

  /// Attach observability: `<prefix>.tasks` counts executed tasks,
  /// `<prefix>.busy_ns` / `<prefix>.idle_ns` accumulate worker run/wait
  /// time (all timing-class — they depend on the thread count), and the
  /// trace writer (optional) gets one span per task. Call while the pool is
  /// quiescent (no tasks in flight), typically right after construction;
  /// detached pools (the default) take no timestamps at all.
  void attach_probe(obs::Registry* registry, obs::TraceWriter* trace,
                    const std::string& prefix = "pool");

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
  // Observability (guarded by mutex_; workers copy under the lock).
  obs::Registry* registry_ = nullptr;
  obs::TraceWriter* trace_ = nullptr;
  obs::MetricId m_tasks_;
  obs::MetricId m_busy_ns_;
  obs::MetricId m_idle_ns_;
};

}  // namespace tlb::util
