// Fixed-size worker pool for embarrassingly-parallel experiment batches.
//
// Every session simulation is an independent, seed-deterministic EventLoop
// run, so populations parallelize trivially: workers pull item indices
// from a shared counter and write results into pre-sized slots. The pool
// itself knows nothing about sessions — it runs plain closures.
//
// Thread count selection (default_jobs): the XLINK_JOBS environment
// variable when set to a whole number from 1 to 4096, otherwise
// std::thread::hardware_concurrency(). jobs == 1 is the serial fallback:
// parallel_for_each then runs inline on the calling thread with no worker
// threads involved.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

namespace xlink::sim {

class ThreadPool {
 public:
  /// Spawns `jobs` workers; 0 means default_jobs().
  explicit ThreadPool(unsigned jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned jobs() const { return jobs_; }

  /// Enqueues a task; workers execute tasks in FIFO submission order.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Runs body(0) .. body(count-1) across the pool's workers and blocks
  /// until all are done. Indices are claimed dynamically, so uneven item
  /// costs balance out. The first exception thrown by any invocation is
  /// rethrown here (remaining indices are abandoned). Must not be called
  /// from inside one of this pool's own tasks.
  void parallel_for_each(std::size_t count,
                         const std::function<void(std::size_t)>& body);

  /// XLINK_JOBS env var if parse_jobs accepts it, otherwise
  /// hardware_concurrency(); always >= 1.
  static unsigned default_jobs();

  /// A worker count as XLINK_JOBS spells it: a whole number from 1 to
  /// 4096. Anything else is nullopt.
  static std::optional<unsigned> parse_jobs(const char* text);

 private:
  void worker_main();

  unsigned jobs_;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::size_t outstanding_ = 0;  // queued + currently running
  bool shutdown_ = false;
};

/// Convenience wrapper: serial inline loop when `jobs` resolves to 1,
/// otherwise a transient ThreadPool. jobs == 0 means default_jobs().
void parallel_for_each(std::size_t count,
                       const std::function<void(std::size_t)>& body,
                       unsigned jobs = 0);

}  // namespace xlink::sim
