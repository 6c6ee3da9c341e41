// Fork-join worker pool: parallel_for is its only way to run work.
//
// The batch-TED initialization, the bootstrap fits and the batched
// measurement path are fork-join loops, so the pool needs nothing else and
// avoids a dependency on TBB/OpenMP. The caller of parallel_for publishes a
// job that lives on its own stack and claims indices from it like any
// worker; the workers only add hands. Once every index is claimed, the
// caller waits only for the indices still running elsewhere. A call made
// from inside a worker therefore cannot deadlock: its caller can always run
// every index alone. No per-call heap allocation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace aal {

class ThreadPool {
 public:
  /// A pool of `threads` hands, the parallel_for caller included: it starts
  /// threads - 1 workers, so ThreadPool(1) runs everything inline. 0 means
  /// the number of CPUs this process may run on (sched_getaffinity).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Hands that can run indices at once: the workers plus the caller.
  std::size_t size() const { return workers_.size() + 1; }

  /// Largest number of parallel_for calls open on the workers at once
  /// since construction (calls that run inline are not counted); feeds the
  /// `pool.queue_high_water` gauge of the observability layer.
  std::size_t queue_high_water() const { return high_water_.load(); }

  /// Runs fn(i) for every i in [0, n) and returns when all are done; the
  /// calling thread runs indices too. If an index throws, indices not yet
  /// claimed are skipped and the first exception is rethrown here once
  /// every started index has finished. Safe to call from inside fn.
  template <typename F>
  void parallel_for(std::size_t n, const F& fn) {
    if (n <= 1 || workers_.empty()) {  // inline, where fn can be inlined
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    run(n, [](const void* f, std::size_t i) { (*static_cast<const F*>(f))(i); },
        &fn);
  }

  /// Process-wide shared pool for components that don't own one.
  static ThreadPool& shared();

 private:
  using Call = void (*)(const void* fn, std::size_t i);

  /// One open parallel_for call, on its caller's stack.
  struct Job {
    Call call;
    const void* fn;
    std::size_t n;
    std::atomic<std::size_t> next{0};  // next unclaimed index
    std::size_t helpers = 0;           // workers inside claim(); mutex_
    std::exception_ptr error{};        // first failure; mutex_
  };

  void run(std::size_t n, Call call, const void* fn);
  void claim(Job& job);
  Job* pick_locked() const;
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;  // a job was published, or stop_
  std::condition_variable idle_cv_;  // a job's last helper left it
  std::vector<Job*> open_;           // jobs workers may join; mutex_
  bool stop_ = false;                // mutex_
  std::atomic<std::size_t> high_water_{0};  // written under mutex_
  std::vector<std::thread> workers_;  // last: they use everything above
};

}  // namespace aal
