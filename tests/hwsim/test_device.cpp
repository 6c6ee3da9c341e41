#include "hwsim/device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/stats.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

KernelProfile find_valid_profile(const KernelModel& model,
                                 const ConfigSpace& space) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const KernelProfile p = model.profile(space, space.sample(rng));
    if (p.valid) return p;
  }
  ADD_FAILURE() << "no valid profile found";
  return KernelProfile::invalid_config("none");
}

class DeviceTest : public ::testing::Test {
 protected:
  Workload workload_ = testing::small_conv_workload();
  TargetSpec spec_ = make_target("gpu-pascal");
  KernelModel model_{workload_, spec_.gpu};
  ConfigSpace space_ = testing::cuda_space(workload_);
  KernelProfile profile_ = find_valid_profile(model_, space_);
};

TEST_F(DeviceTest, SamplesAreReproducibleBySeed) {
  SimulatedDevice a(spec_, 42), b(spec_, 42);
  for (int flat = 0; flat < 5; ++flat) {
    for (int rep = 0; rep < 4; ++rep) {
      EXPECT_DOUBLE_EQ(a.sample_time_us(profile_, flat, rep),
                       b.sample_time_us(profile_, flat, rep));
    }
  }
}

TEST_F(DeviceTest, SamplesAreOrderIndependent) {
  // Counter-based noise: the draw for (flat, repeat) is the same whether it
  // is the first call on a device or the millionth — this is the property
  // that makes parallel measurement and resume deterministic.
  SimulatedDevice fresh(spec_, 42), warm(spec_, 42);
  for (int i = 0; i < 100; ++i) warm.sample_time_us(profile_, 9999 + i, 0);
  EXPECT_DOUBLE_EQ(fresh.sample_time_us(profile_, 5, 2),
                   warm.sample_time_us(profile_, 5, 2));

  // Permuting the evaluation order leaves every sample unchanged.
  SimulatedDevice c(spec_, 7), d(spec_, 7);
  std::vector<double> forward, backward;
  for (int flat = 0; flat < 16; ++flat) {
    forward.push_back(c.sample_time_us(profile_, flat, 0));
  }
  for (int flat = 15; flat >= 0; --flat) {
    backward.push_back(d.sample_time_us(profile_, flat, 0));
  }
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
}

TEST_F(DeviceTest, DistinctFlatsAndRepeatsDrawDistinctNoise) {
  SimulatedDevice dev(spec_, 1);
  EXPECT_NE(dev.sample_time_us(profile_, 1, 0),
            dev.sample_time_us(profile_, 2, 0));
  EXPECT_NE(dev.sample_time_us(profile_, 1, 0),
            dev.sample_time_us(profile_, 1, 1));
}

TEST_F(DeviceTest, DifferentSeedsDiffer) {
  SimulatedDevice a(spec_, 1), b(spec_, 2);
  int equal = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.sample_time_us(profile_, i, 0) == b.sample_time_us(profile_, i, 0)) {
      ++equal;
    }
  }
  EXPECT_EQ(equal, 0);
}

TEST_F(DeviceTest, MeanNearBaseTime) {
  SimulatedDevice dev(spec_, 7);
  RunningStats stats;
  for (int i = 0; i < 3000; ++i) stats.add(dev.sample_time_us(profile_, i, 0));
  // Log-normal noise is mean-compensated; the absolute jitter adds a small
  // positive bias (~0.12us) on top of base time.
  EXPECT_NEAR(stats.mean(), profile_.base_time_us,
              0.05 * profile_.base_time_us + 0.3);
  EXPECT_GT(stats.variance(), 0.0);
}

TEST_F(DeviceTest, SamplesAlwaysPositive) {
  SimulatedDevice dev(spec_, 11);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GT(dev.sample_time_us(profile_, i, 0), 0.0);
  }
}

TEST_F(DeviceTest, RunAveragesRepeats) {
  SimulatedDevice dev(spec_, 13);
  const MeasureOutcome out = dev.run(profile_, workload_.flops(), 5, 0);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.times_us.size(), 5u);
  double sum = 0.0;
  for (double t : out.times_us) sum += t;
  EXPECT_NEAR(out.mean_time_us, sum / 5.0, 1e-9);
  EXPECT_NEAR(out.gflops,
              static_cast<double>(workload_.flops()) / (out.mean_time_us * 1e3),
              1e-9);
}

TEST_F(DeviceTest, RunIsDeterministicPerConfig) {
  SimulatedDevice dev(spec_, 13);
  const MeasureOutcome a = dev.run(profile_, workload_.flops(), 3, 77);
  const MeasureOutcome b = dev.run(profile_, workload_.flops(), 3, 77);
  EXPECT_EQ(a.times_us, b.times_us);
  EXPECT_DOUBLE_EQ(a.mean_time_us, b.mean_time_us);
  // The first repeats of a longer run are the same draws (a prefix).
  const MeasureOutcome c = dev.run(profile_, workload_.flops(), 5, 77);
  ASSERT_EQ(c.times_us.size(), 5u);
  EXPECT_DOUBLE_EQ(c.times_us[0], a.times_us[0]);
  EXPECT_DOUBLE_EQ(c.times_us[2], a.times_us[2]);
}

TEST_F(DeviceTest, InvalidProfileFailsGracefully) {
  SimulatedDevice dev(spec_, 17);
  const MeasureOutcome out =
      dev.run(KernelProfile::invalid_config("smem overflow"),
              workload_.flops(), 3, 0);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, "smem overflow");
  EXPECT_DOUBLE_EQ(out.gflops, 0.0);
  EXPECT_THROW(dev.sample_time_us(KernelProfile::invalid_config("x"), 0, 0),
               InvalidArgument);
}

TEST_F(DeviceTest, RunCountsTotalRuns) {
  SimulatedDevice dev(spec_, 19);
  EXPECT_EQ(dev.total_runs(), 0);
  dev.run(profile_, workload_.flops(), 3, 0);
  EXPECT_EQ(dev.total_runs(), 3);
  dev.run(profile_, workload_.flops(), 2, 1);
  EXPECT_EQ(dev.total_runs(), 5);
}

TEST_F(DeviceTest, RejectsZeroRepeats) {
  SimulatedDevice dev(spec_, 23);
  EXPECT_THROW(dev.run(profile_, workload_.flops(), 0, 0), InvalidArgument);
}

TEST_F(DeviceTest, NoisierProfileHasWiderSpread) {
  KernelProfile calm = profile_;
  calm.noise_sigma = 0.01;
  KernelProfile wild = profile_;
  wild.noise_sigma = 0.15;
  SimulatedDevice dev(spec_, 29);
  RunningStats calm_stats, wild_stats;
  for (int i = 0; i < 2000; ++i) {
    calm_stats.add(dev.sample_time_us(calm, i, 0));
  }
  for (int i = 0; i < 2000; ++i) {
    wild_stats.add(dev.sample_time_us(wild, i, 0));
  }
  EXPECT_GT(wild_stats.variance(), calm_stats.variance());
}

}  // namespace
}  // namespace aal
