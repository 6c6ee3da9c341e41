#include "core/bao.hpp"

#include <gtest/gtest.h>

#include "core/advanced_tuner.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

class BaoTest : public ::testing::Test {
 protected:
  TargetSpec spec_ = make_target("gpu-pascal");
  TuningTask task_{testing::small_conv_workload(), spec_};

  // Drives BaoSearch the way a session does: propose one config, measure
  // it, tell the search. Stops at `budget` distinct measured configs or
  // when the search is exhausted.
  static void drive_to_budget(BaoSearch& bao, Measurer& measurer,
                              const SurrogateFactory& factory, Rng& rng,
                              std::int64_t budget) {
    while (measurer.num_measured() < budget) {
      const std::optional<Config> pick = bao.next(measurer, factory, rng);
      if (!pick) break;
      bao.observe(measurer.measure(*pick), measurer);
    }
  }
};

TEST_F(BaoTest, RequiresInitializedState) {
  SimulatedDevice device(spec_, 1);
  Measurer measurer(task_, device);
  Rng rng(1);
  const GbdtSurrogateFactory factory;
  BaoSearch bao{BaoParams{}};
  EXPECT_THROW(bao.next(measurer, factory, rng), InvalidArgument);
}

TEST_F(BaoTest, MeasuresOneFreshConfigPerIteration) {
  SimulatedDevice device(spec_, 2);
  Measurer measurer(task_, device);
  Rng rng(2);
  for (const Config& c : task_.space().sample_distinct(16, rng)) {
    measurer.measure(c);
  }

  const GbdtSurrogateFactory factory(
      AdvancedActiveLearningTuner::default_bootstrap_gbdt_params());
  BaoSearch bao{BaoParams{}};
  drive_to_budget(bao, measurer, factory, rng, 40);
  EXPECT_EQ(measurer.num_measured(), 40);
  EXPECT_EQ(bao.iterations(), 24);  // one fresh measurement per iteration
}

TEST_F(BaoTest, ImprovesOverInitialization) {
  // Averaged over seeds, BAO must end at least as high as the best initial
  // point, and strictly higher in aggregate.
  double init_total = 0.0, final_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SimulatedDevice device(spec_, seed * 11);
    Measurer measurer(task_, device);
    Rng rng(seed);
    for (const Config& c : task_.space().sample_distinct(32, rng)) {
      measurer.measure(c);
    }
    const auto init_best = measurer.best();
    const double init_gflops = init_best ? init_best->gflops : 0.0;

    const GbdtSurrogateFactory factory(
        AdvancedActiveLearningTuner::default_bootstrap_gbdt_params());
    BaoSearch bao{BaoParams{}};
    drive_to_budget(bao, measurer, factory, rng, 150);
    const auto final_best = measurer.best();
    const double final_gflops = final_best ? final_best->gflops : 0.0;
    EXPECT_GE(final_gflops, init_gflops);
    init_total += init_gflops;
    final_total += final_gflops;
  }
  EXPECT_GT(final_total, init_total);
}

TEST_F(BaoTest, ValidatesParams) {
  BaoParams bad;
  bad.tau = 1.0;
  EXPECT_THROW(BaoSearch{bad}, InvalidArgument);
  bad = BaoParams{};
  bad.radius = 0.0;
  EXPECT_THROW(BaoSearch{bad}, InvalidArgument);
}

TEST_F(BaoTest, TinySpaceTerminates) {
  // A dense workload with tiny dimensions has a space small enough to
  // exhaust; next() must return nullopt instead of spinning.
  DenseWorkload d;
  d.in_features = 4;
  d.out_features = 4;
  const TuningTask task(Workload::dense(d), spec_);
  ASSERT_LT(task.space().size(), 200);

  SimulatedDevice device(spec_, 4);
  Measurer measurer(task, device);
  Rng rng(4);
  for (const Config& c : task.space().sample_distinct(8, rng)) {
    measurer.measure(c);
  }
  const GbdtSurrogateFactory factory(
      AdvancedActiveLearningTuner::default_bootstrap_gbdt_params());
  BaoSearch bao{BaoParams{}};
  drive_to_budget(bao, measurer, factory, rng, 10000);
  EXPECT_LE(measurer.num_measured(), task.space().size());
}

TEST_F(BaoTest, RecentreOnBestVariantRuns) {
  SimulatedDevice device(spec_, 5);
  Measurer measurer(task_, device);
  Rng rng(5);
  for (const Config& c : task_.space().sample_distinct(16, rng)) {
    measurer.measure(c);
  }
  BaoParams params;
  params.recentre_on_best = true;
  const GbdtSurrogateFactory factory(
      AdvancedActiveLearningTuner::default_bootstrap_gbdt_params());
  BaoSearch bao(params);
  drive_to_budget(bao, measurer, factory, rng, 60);
  EXPECT_GT(bao.iterations(), 0);
  EXPECT_EQ(measurer.num_measured(), 60);
}

TEST_F(BaoTest, PaperDefaultsEncoded) {
  const BaoParams p;
  EXPECT_DOUBLE_EQ(p.eta, 0.05);
  EXPECT_DOUBLE_EQ(p.tau, 1.5);
  EXPECT_DOUBLE_EQ(p.radius, 3.0);
  EXPECT_EQ(p.gamma, 2);
  EXPECT_TRUE(p.literal_ceil);
}

}  // namespace
}  // namespace aal
