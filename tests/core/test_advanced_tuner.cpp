#include "core/advanced_tuner.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"
#include "tuner/random_tuner.hpp"

namespace aal {
namespace {

class AdvancedTunerTest : public ::testing::Test {
 protected:
  TargetSpec spec_ = make_target("gpu-pascal");
  Workload workload_ = testing::small_conv_workload();

  BtedParams quick_bted() {
    BtedParams p;
    p.batch_sample_size = 100;
    p.num_batches = 4;
    return p;
  }

  TuneOptions quick_options(std::uint64_t seed) {
    TuneOptions o;
    o.budget = 150;
    o.early_stopping = 80;
    o.num_initial = 32;
    o.seed = seed;
    return o;
  }
};

TEST_F(AdvancedTunerTest, ProducesValidResult) {
  TuningTask task(workload_, spec_);
  SimulatedDevice device(spec_, 7);
  Measurer measurer(task, device);
  AdvancedActiveLearningTuner tuner(quick_bted());
  const TuneResult result = tuner.tune(measurer, quick_options(1));

  EXPECT_EQ(result.tuner_name, "bted+bao");
  EXPECT_GT(result.num_measured, 32);
  EXPECT_LE(result.num_measured, 150);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_GT(result.best->gflops, 0.0);
  EXPECT_EQ(result.history.size(),
            static_cast<std::size_t>(result.num_measured));
}

TEST_F(AdvancedTunerTest, BestCurveIsMonotone) {
  TuningTask task(workload_, spec_);
  SimulatedDevice device(spec_, 9);
  Measurer measurer(task, device);
  AdvancedActiveLearningTuner tuner(quick_bted());
  const TuneResult result = tuner.tune(measurer, quick_options(2));
  const auto curve = result.best_curve();
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1]);
  }
  EXPECT_NEAR(curve.back(), result.best->gflops, 1e-9);
}

TEST_F(AdvancedTunerTest, DeterministicGivenSeeds) {
  auto run_once = [&]() {
    TuningTask task(workload_, spec_);
    SimulatedDevice device(spec_, 11);
    Measurer measurer(task, device);
    AdvancedActiveLearningTuner tuner(quick_bted());
    return tuner.tune(measurer, quick_options(3));
  };
  const TuneResult a = run_once();
  const TuneResult b = run_once();
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].flat, b.history[i].flat);
    EXPECT_DOUBLE_EQ(a.history[i].gflops, b.history[i].gflops);
  }
}

TEST_F(AdvancedTunerTest, BeatsRandomSearchOnAverage) {
  // Compare the *true* (noise-free) quality of each tuner's chosen config —
  // measured bests are inflated by max-statistics over noisy readings,
  // which favors whoever sampled more distinct configs.
  double advanced_total = 0.0, random_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    {
      TuningTask task(workload_, spec_);
      SimulatedDevice device(spec_, seed * 101);
      Measurer measurer(task, device);
      AdvancedActiveLearningTuner tuner(quick_bted());
      const TuneResult r = tuner.tune(measurer, quick_options(seed));
      advanced_total +=
          task.profile(r.best->config).gflops(workload_.flops());
    }
    {
      TuningTask task(workload_, spec_);
      SimulatedDevice device(spec_, seed * 101);
      Measurer measurer(task, device);
      RandomTuner tuner;
      const TuneResult r = tuner.tune(measurer, quick_options(seed));
      random_total += task.profile(r.best->config).gflops(workload_.flops());
    }
  }
  EXPECT_GT(advanced_total, random_total);
}

TEST_F(AdvancedTunerTest, ParamsAccessible) {
  AdvancedActiveLearningTuner tuner;
  EXPECT_EQ(tuner.bted_params().num_batches, 10);
  EXPECT_DOUBLE_EQ(tuner.bao_params().tau, 1.5);
}

}  // namespace
}  // namespace aal
