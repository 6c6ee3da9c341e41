#include "tuner/chameleon_tuner.hpp"

#include <gtest/gtest.h>

#include <set>

#include "test_util.hpp"
#include "tuner/random_tuner.hpp"

namespace aal {
namespace {

class ChameleonTest : public ::testing::Test {
 protected:
  TargetSpec spec_ = make_target("gpu-pascal");
  TuningTask task_{testing::small_conv_workload(), spec_};

  TuneOptions quick_options() {
    TuneOptions o;
    o.budget = 120;
    o.early_stopping = 0;
    o.num_initial = 32;
    o.batch_size = 16;
    return o;
  }
};

TEST_F(ChameleonTest, RunsToBudget) {
  SimulatedDevice device(spec_, 1);
  Measurer measurer(task_, device);
  ChameleonTuner tuner;
  const TuneResult r = tuner.tune(measurer, quick_options());
  EXPECT_EQ(r.tuner_name, "chameleon");
  EXPECT_EQ(r.num_measured, 120);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_GT(r.best->gflops, 0.0);
}

TEST_F(ChameleonTest, HistoryIsDistinct) {
  SimulatedDevice device(spec_, 2);
  Measurer measurer(task_, device);
  ChameleonTuner tuner;
  const TuneResult r = tuner.tune(measurer, quick_options());
  std::set<std::int64_t> flats;
  for (const auto& p : r.history) flats.insert(p.flat);
  EXPECT_EQ(flats.size(), r.history.size());
}

TEST_F(ChameleonTest, BeatsRandomInAggregate) {
  double chameleon_total = 0.0, random_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    TuneOptions options = quick_options();
    options.budget = 200;
    options.seed = seed;
    {
      TuningTask task(testing::small_conv_workload(), spec_);
      SimulatedDevice device(spec_, seed * 31);
      Measurer measurer(task, device);
      ChameleonTuner tuner;
      const TuneResult r = tuner.tune(measurer, options);
      chameleon_total += task.profile(r.best->config)
                             .gflops(task.workload().flops());
    }
    {
      TuningTask task(testing::small_conv_workload(), spec_);
      SimulatedDevice device(spec_, seed * 31);
      Measurer measurer(task, device);
      RandomTuner tuner;
      const TuneResult r = tuner.tune(measurer, options);
      random_total += task.profile(r.best->config)
                          .gflops(task.workload().flops());
    }
  }
  EXPECT_GT(chameleon_total, random_total);
}

TEST_F(ChameleonTest, TerminatesOnTinySpace) {
  DenseWorkload d;
  d.in_features = 4;
  d.out_features = 4;
  TuningTask task(Workload::dense(d), spec_);
  SimulatedDevice device(spec_, 3);
  Measurer measurer(task, device);
  ChameleonTuner tuner;
  TuneOptions options;
  options.budget = 100000;
  options.early_stopping = 0;
  options.num_initial = 8;
  options.batch_size = 4;
  const TuneResult r = tuner.tune(measurer, options);
  EXPECT_LE(r.num_measured, task.space().size());
}

TEST_F(ChameleonTest, ValidatesOptions) {
  ChameleonTunerOptions bad;
  bad.oversample_factor = 0;
  EXPECT_THROW(
      ChameleonTuner(std::make_shared<GbdtSurrogateFactory>(), bad),
      InvalidArgument);
}

}  // namespace
}  // namespace aal
