#include "support/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace aal {
namespace {

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstError) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 17) {
                                     throw std::runtime_error("worker failed");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SizeMatchesConstruction) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, SharedPoolIsUsable) {
  std::atomic<int> acc{0};
  ThreadPool::shared().parallel_for(64, [&](std::size_t) { ++acc; });
  EXPECT_EQ(acc.load(), 64);
}

TEST(ThreadPool, SharedPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().size(), 1u);
}

TEST(ThreadPool, SharedPoolSizeIsTheAffinityCpuCount) {
  // The caller counts as a hand, so a process pinned to one CPU
  // (`taskset -c 0`) gets a pool with no workers that runs inline.
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(ThreadPool::shared().size(),
            static_cast<std::size_t>(CPU_COUNT(&set)));
}

TEST(ThreadPool, SharedPoolSurvivesRepeatedUse) {
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> acc{0};
    ThreadPool::shared().parallel_for(32, [&](std::size_t) { ++acc; });
    EXPECT_EQ(acc.load(), 32);
  }
}

TEST(ThreadPool, PoolUsableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(
          16, [&](std::size_t i) {
            if (i == 3) throw std::runtime_error("first round fails");
          }),
      std::runtime_error);
  // The pool must drain the failed round completely and accept new work.
  std::atomic<int> acc{0};
  pool.parallel_for(64, [&](std::size_t) { ++acc; });
  EXPECT_EQ(acc.load(), 64);
}

TEST(ThreadPool, CallerIndexExceptionIsRethrownAndPoolStillWorks) {
  // The worker holds its first index until the caller has thrown from one
  // of its own, so an index is sure to run (and throw) on the caller.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> thrown{false};
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t) {
                                   if (std::this_thread::get_id() == caller) {
                                     thrown = true;
                                     throw std::runtime_error("caller index");
                                   }
                                   while (!thrown) std::this_thread::yield();
                                 }),
               std::runtime_error);
  EXPECT_TRUE(thrown.load());
  std::atomic<int> acc{0};
  pool.parallel_for(64, [&](std::size_t) { ++acc; });
  EXPECT_EQ(acc.load(), 64);
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, SingleThreadPoolRunsEverything) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, SingleThreadPoolRunsOnTheCallingThread) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller) << i;
    order.push_back(i);
  });
  std::vector<std::size_t> want(16);
  std::iota(want.begin(), want.end(), std::size_t{0});
  EXPECT_EQ(order, want);
}

TEST(ThreadPool, NestedParallelForFromWorkersThreeLevelsDeep) {
  // Every outer index blocks until the pool's one worker has entered the
  // outer call, so at least one nested call is made from a worker. A pool
  // whose workers waited on their own pool would hang here (the ctest
  // TIMEOUT in tests/pool_timeouts.cmake turns that into a failure).
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_entered{false};
  std::atomic<int> leaves{0};
  pool.parallel_for(4, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) worker_entered = true;
    while (!worker_entered) std::this_thread::yield();
    pool.parallel_for(3, [&](std::size_t) {
      pool.parallel_for(2, [&](std::size_t) { ++leaves; });
    });
  });
  EXPECT_TRUE(worker_entered.load());
  EXPECT_EQ(leaves.load(), 4 * 3 * 2);
}

}  // namespace
}  // namespace aal
