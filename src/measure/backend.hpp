// Measurement execution backends.
//
// A MeasureBackend decides *where* the per-configuration measurement work of
// a batch runs: SerialBackend executes items in order on the caller's
// thread (the historical behavior), ParallelBackend fans them out over a
// ThreadPool. Backends only schedule pure per-item work — all shared-state
// mutation (memo cache, best tracking, history) is committed serially by the
// Measurer afterwards, which is why results are bitwise-identical across
// backends and thread counts.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "support/thread_pool.hpp"

namespace aal {

class MeasureBackend {
 public:
  virtual ~MeasureBackend() = default;

  virtual const char* name() const = 0;

  /// Runs fn(i) for every i in [0, n) and returns when all are done. fn must
  /// be safe to call concurrently; implementations choose the schedule.
  virtual void dispatch(std::size_t n,
                        const std::function<void(std::size_t)>& fn) = 0;

  /// Largest number of dispatches open at once on the underlying pool, if
  /// any (feeds the `pool.queue_high_water` gauge). 0 for backends without
  /// a pool.
  virtual std::size_t queue_high_water() const { return 0; }
};

/// Runs every item in order on the calling thread.
class SerialBackend final : public MeasureBackend {
 public:
  const char* name() const override { return "serial"; }
  void dispatch(std::size_t n,
                const std::function<void(std::size_t)>& fn) override;
};

/// Fans items out over a ThreadPool. With `threads` == 0 the process-wide
/// shared pool is used; otherwise the backend owns a pool of that size
/// (the dispatching thread counts as one of them).
class ParallelBackend final : public MeasureBackend {
 public:
  explicit ParallelBackend(std::size_t threads = 0);

  const char* name() const override { return "parallel"; }
  std::size_t threads() const;
  void dispatch(std::size_t n,
                const std::function<void(std::size_t)>& fn) override;
  std::size_t queue_high_water() const override;

 private:
  std::unique_ptr<ThreadPool> owned_;  // null when borrowing shared()
  ThreadPool* pool_;
};

}  // namespace aal
