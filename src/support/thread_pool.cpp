#include "support/thread_pool.hpp"

#include <sched.h>

#include <algorithm>

namespace aal {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {  // the CPUs `taskset` or a cpuset leave this process
    cpu_set_t set;
    threads = sched_getaffinity(0, sizeof(set), &set) == 0
                  ? static_cast<std::size_t>(CPU_COUNT(&set))
                  : std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(std::size_t n, Call call, const void* fn) {
  Job job{.call = call, .fn = fn, .n = n};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    open_.push_back(&job);
    high_water_.store(std::max(high_water_.load(), open_.size()));
  }
  const std::size_t wake = std::min(n - 1, workers_.size());
  for (std::size_t w = 0; w < wake; ++w) work_cv_.notify_one();

  claim(job);

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    open_.erase(std::find(open_.begin(), open_.end(), &job));
    idle_cv_.wait(lock, [&job] { return job.helpers == 0; });
    error = job.error;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::claim(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
    try {
      job.call(job.fn, i);
    } catch (...) {
      job.next.store(job.n, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mutex_);
      if (!job.error) job.error = std::current_exception();
      return;
    }
  }
}

/// The open job with unclaimed indices and the fewest helpers (the newest on
/// a tie), so concurrent callers share the workers.
ThreadPool::Job* ThreadPool::pick_locked() const {
  Job* best = nullptr;
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    Job* job = *it;
    if (job->next.load(std::memory_order_relaxed) >= job->n) continue;
    if (best == nullptr || job->helpers < best->helpers) best = job;
  }
  return best;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Job* job = nullptr;
    work_cv_.wait(lock, [&] {
      return stop_ || (job = pick_locked()) != nullptr;
    });
    if (stop_) return;
    ++job->helpers;
    lock.unlock();
    claim(*job);
    lock.lock();
    if (--job->helpers == 0) idle_cv_.notify_all();
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace aal
