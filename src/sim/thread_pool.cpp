#include "sim/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>

namespace xlink::sim {

ThreadPool::ThreadPool(unsigned jobs) : jobs_(jobs ? jobs : default_jobs()) {
  workers_.reserve(jobs_);
  for (unsigned i = 0; i < jobs_; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lk(mu_);
    tasks_.push(std::move(task));
    ++outstanding_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  idle_.wait(lk, [this] { return outstanding_ == 0; });
}

void ThreadPool::worker_main() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mu_);
      task_ready_.wait(lk, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutdown with a drained queue
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard lk(mu_);
      --outstanding_;
    }
    idle_.notify_all();
  }
}

void ThreadPool::parallel_for_each(
    std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (jobs_ <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;
  const std::size_t lanes = std::min<std::size_t>(jobs_, count);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    submit([&] {
      for (;;) {
        if (failed.load(std::memory_order_relaxed)) return;
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          body(i);
        } catch (...) {
          std::lock_guard lk(error_mu);
          if (!first_error) first_error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

std::optional<unsigned> ThreadPool::parse_jobs(const char* text) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (end != text && *end == '\0' && v >= 1 && v <= 4096)
    return static_cast<unsigned>(v);
  return std::nullopt;
}

unsigned ThreadPool::default_jobs() {
  if (const char* env = std::getenv("XLINK_JOBS")) {
    if (const auto jobs = parse_jobs(env)) return *jobs;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

void parallel_for_each(std::size_t count,
                       const std::function<void(std::size_t)>& body,
                       unsigned jobs) {
  const unsigned resolved = jobs ? jobs : ThreadPool::default_jobs();
  if (resolved <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  ThreadPool pool(resolved);
  pool.parallel_for_each(count, body);
}

}  // namespace xlink::sim
