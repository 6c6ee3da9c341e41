#include "core/bted.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "reference/reference_impls.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

class BtedTest : public ::testing::Test {
 protected:
  TargetSpec spec_ = make_target("gpu-pascal");
  TuningTask task_{testing::small_conv_workload(), spec_};
};

BtedParams quick_params() {
  BtedParams p;
  p.batch_sample_size = 100;
  p.num_select = 16;
  p.num_batches = 4;
  return p;
}

TEST_F(BtedTest, ReturnsRequestedDistinctConfigs) {
  Rng rng(1);
  const auto configs = bted_sample(task_, quick_params(), rng);
  EXPECT_EQ(configs.size(), 16u);
  std::set<std::int64_t> flats;
  for (const auto& c : configs) {
    EXPECT_GE(c.flat, 0);
    EXPECT_LT(c.flat, task_.space().size());
    flats.insert(c.flat);
  }
  EXPECT_EQ(flats.size(), configs.size());
}

TEST_F(BtedTest, DeterministicGivenRng) {
  Rng a(2), b(2);
  const auto x = bted_sample(task_, quick_params(), a);
  const auto y = bted_sample(task_, quick_params(), b);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i].flat, y[i].flat);
}

TEST_F(BtedTest, SerialMatchesParallel) {
  Rng a(3), b(3);
  const auto x = reference::bted_sample(task_, quick_params(), a);
  const auto y = bted_sample(task_, quick_params(), b);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i].flat, y[i].flat);
}

TEST_F(BtedTest, CoversSpaceBetterThanRandomSampling) {
  // TED optimizes *representativeness*: probe points should on average sit
  // closer to their nearest selected configuration than with a uniform
  // random pick of the same size (lower coverage radius).
  Rng rng(4);
  const auto probes = task_.space().sample_distinct(300, rng);
  std::vector<std::vector<double>> probe_feats;
  for (const auto& p : probes) probe_feats.push_back(task_.space().features(p));

  auto coverage = [&](const std::vector<Config>& selected) {
    std::vector<std::vector<double>> feats;
    for (const auto& c : selected) feats.push_back(task_.space().features(c));
    double total = 0.0;
    for (const auto& probe : probe_feats) {
      double best = 1e300;
      for (const auto& f : feats) {
        double acc = 0.0;
        for (std::size_t c = 0; c < f.size(); ++c) {
          const double d = f[c] - probe[c];
          acc += d * d;
        }
        best = std::min(best, acc);
      }
      total += std::sqrt(best);
    }
    return total / static_cast<double>(probe_feats.size());
  };

  const auto bted = bted_sample(task_, quick_params(), rng);
  double random_cov = 0.0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    random_cov += coverage(task_.space().sample_distinct(16, rng));
  }
  EXPECT_LT(coverage(bted), random_cov / trials);
}

TEST_F(BtedTest, InitSamplerAdapterOverridesCount) {
  const InitSampler sampler = bted_init_sampler(quick_params());
  Rng rng(5);
  const auto configs = sampler(task_, 24, rng);
  EXPECT_EQ(configs.size(), 24u);
}

TEST_F(BtedTest, SingleBatchDegeneratesToTed) {
  BtedParams p = quick_params();
  p.num_batches = 1;
  Rng rng(6);
  const auto configs = bted_sample(task_, p, rng);
  EXPECT_EQ(configs.size(), 16u);
}

TEST_F(BtedTest, ValidatesParams) {
  Rng rng(7);
  BtedParams p = quick_params();
  p.num_batches = 0;
  EXPECT_THROW(bted_sample(task_, p, rng), InvalidArgument);
  p = quick_params();
  p.batch_sample_size = 0;
  EXPECT_THROW(bted_sample(task_, p, rng), InvalidArgument);
  p = quick_params();
  p.num_select = 0;
  EXPECT_THROW(bted_sample(task_, p, rng), InvalidArgument);
}

TEST_F(BtedTest, LiteralDistanceKernelWithLargeBatches) {
  // Batches above 1024 points once sent the non-PSD literal distance
  // kernel down the lazy path, which threw.
  BtedParams p = quick_params();
  p.kernel = TedKernel::kEuclideanDistance;
  p.batch_sample_size = 1100;
  p.num_batches = 2;
  Rng rng(8);
  const auto configs = bted_sample(task_, p, rng);
  EXPECT_EQ(configs.size(), 16u);
}

TEST_F(BtedTest, PaperDefaultsAreEncoded) {
  const BtedParams defaults;
  EXPECT_DOUBLE_EQ(defaults.mu, 0.1);
  EXPECT_EQ(defaults.batch_sample_size, 500);
  EXPECT_EQ(defaults.num_select, 64);
  EXPECT_EQ(defaults.num_batches, 10);
}

// Concurrency: serve workers call bted_sample from several threads at
// once, `tune_model --jobs` lanes call it from a lane pool's workers, and
// a caller may itself be a shared-pool worker. Each call fans its batch
// TEDs and their row blocks out over the shared pool; each must finish and
// return the serial-TED result.

BtedParams concurrency_params() {
  BtedParams p;
  p.batch_sample_size = 300;
  p.num_select = 32;
  p.num_batches = 6;
  return p;
}

std::vector<std::int64_t> flats(const std::vector<Config>& configs) {
  std::vector<std::int64_t> out;
  for (const Config& c : configs) out.push_back(c.flat);
  return out;
}

std::vector<std::int64_t> serial_flats(const TuningTask& task,
                                       std::uint64_t seed) {
  Rng rng(seed);
  return flats(reference::bted_sample(task, concurrency_params(), rng));
}

TEST(BtedConcurrency, TwoThreadsAtOnceMatchSerial) {
  const TuningTask task(testing::small_conv_workload(),
                        make_target("gpu-pascal"));
  std::vector<std::int64_t> got[2];
  std::thread threads[2];
  for (int t = 0; t < 2; ++t) {
    threads[t] = std::thread([&task, &got, t] {
      Rng rng(40 + t);
      got[t] = flats(bted_sample(task, concurrency_params(), rng));
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 2; ++t) {
    EXPECT_EQ(got[t], serial_flats(task, 40 + t)) << "thread " << t;
    EXPECT_EQ(got[t].size(), 32u);
  }
}

TEST(BtedConcurrency, InsideADedicatedPoolWorkerMatchesSerial) {
  // Called from inside parallel_for, once on a pool of its own and once on
  // the shared pool that bted_sample itself fans out over.
  const TuningTask task(testing::small_conv_workload(),
                        make_target("gpu-pascal"));
  ThreadPool lanes(2);
  for (ThreadPool* pool : {&lanes, &ThreadPool::shared()}) {
    std::vector<std::int64_t> got[2];
    pool->parallel_for(2, [&task, &got](std::size_t i) {
      Rng rng(50 + i);
      got[i] = flats(bted_sample(task, concurrency_params(), rng));
    });
    EXPECT_EQ(got[0], serial_flats(task, 50));
    EXPECT_EQ(got[1], serial_flats(task, 51));
  }
}

}  // namespace
}  // namespace aal
