#include "tuner/tuner.hpp"

#include <gtest/gtest.h>

#include <set>

#include "test_util.hpp"
#include "tuner/ga_tuner.hpp"
#include "tuner/random_tuner.hpp"
#include "tuner/tuning_session.hpp"
#include "tuner/xgb_tuner.hpp"

namespace aal {
namespace {

/// Test policy that proposes the same fixed plan every round, including
/// duplicates — the session must dedupe and stay within budget.
class FixedProposalTuner final : public Tuner {
 public:
  explicit FixedProposalTuner(std::vector<Config> plan)
      : plan_(std::move(plan)) {}
  std::string name() const override { return "fixed"; }
  std::vector<Config> propose(std::int64_t) override { return plan_; }

 private:
  std::vector<Config> plan_;
};

class TunerTest : public ::testing::Test {
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

TEST_F(TunerTest, SessionEnforcesBudget) {
  SimulatedDevice device(spec_, 1);
  Measurer measurer(task_, device);
  TuneOptions options;
  options.budget = 5;
  options.early_stopping = 0;
  RandomTuner tuner;
  TuningSession session(tuner, measurer, options);
  const TuneResult r = session.run();
  // Even though the policy proposes batch_size configs per round, the
  // session trims the plan so exactly `budget` fresh configs are measured.
  EXPECT_EQ(r.history.size(), 5u);
  EXPECT_EQ(r.num_measured, 5);
  EXPECT_TRUE(session.done());
}

TEST_F(TunerTest, SessionEarlyStopping) {
  SimulatedDevice device(spec_, 2);
  Measurer measurer(task_, device);
  TuneOptions options;
  options.budget = 100000;
  options.early_stopping = 30;
  RandomTuner tuner;
  TuningSession session(tuner, measurer, options);
  const TuneResult r = session.run();
  // The loop must have stopped well before the budget.
  EXPECT_LT(r.history.size(), 10000u);
}

TEST_F(TunerTest, SessionMemoizedRevisitIsFree) {
  SimulatedDevice device(spec_, 3);
  Measurer measurer(task_, device);
  TuneOptions options;
  options.budget = 10;
  Rng rng(3);
  const Config c = task_.space().sample(rng);
  FixedProposalTuner tuner({c, c, c});
  TuningSession session(tuner, measurer, options);
  const TuneResult r = session.run();
  // The duplicate proposals collapse to one measurement; re-proposing an
  // already-measured config never consumes budget, so the session ends by
  // exhausting its barren-round allowance with exactly one history entry.
  EXPECT_EQ(r.history.size(), 1u);
  EXPECT_EQ(measurer.num_measured(), 1);
}

TEST_F(TunerTest, SessionValidatesOptions) {
  SimulatedDevice device(spec_, 4);
  Measurer measurer(task_, device);
  RandomTuner tuner;
  TuneOptions bad;
  bad.budget = 0;
  EXPECT_THROW(TuningSession(tuner, measurer, bad), InvalidArgument);
  bad = TuneOptions{};
  bad.batch_size = 0;
  EXPECT_THROW(TuningSession(tuner, measurer, bad), InvalidArgument);
}

TEST_F(TunerTest, SessionStepwiseMatchesRun) {
  TuneOptions options = quick_options();
  options.budget = 48;

  SimulatedDevice device_a(spec_, 6);
  Measurer measurer_a(task_, device_a);
  RandomTuner tuner_a;
  TuningSession run_session(tuner_a, measurer_a, options);
  const TuneResult via_run = run_session.run();

  SimulatedDevice device_b(spec_, 6);
  Measurer measurer_b(task_, device_b);
  RandomTuner tuner_b;
  TuningSession step_session(tuner_b, measurer_b, options);
  while (step_session.step()) {
  }
  const TuneResult via_step = step_session.finish();

  ASSERT_EQ(via_run.history.size(), via_step.history.size());
  for (std::size_t i = 0; i < via_run.history.size(); ++i) {
    EXPECT_EQ(via_run.history[i].flat, via_step.history[i].flat);
    EXPECT_DOUBLE_EQ(via_run.history[i].gflops, via_step.history[i].gflops);
  }
}

TEST_F(TunerTest, RandomTunerRunsToBudget) {
  SimulatedDevice device(spec_, 5);
  Measurer measurer(task_, device);
  RandomTuner tuner;
  const TuneResult r = tuner.tune(measurer, quick_options());
  EXPECT_EQ(r.tuner_name, "random");
  EXPECT_EQ(r.num_measured, 120);
  ASSERT_TRUE(r.best.has_value());
}

TEST_F(TunerTest, GaTunerImprovesPopulation) {
  SimulatedDevice device(spec_, 8);
  Measurer measurer(task_, device);
  GaTuner tuner;
  const TuneResult r = tuner.tune(measurer, quick_options());
  EXPECT_EQ(r.tuner_name, "ga");
  EXPECT_GT(r.num_measured, 60);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_GT(r.best->gflops, 0.0);
}

TEST_F(TunerTest, XgbTunerRunsAndImproves) {
  SimulatedDevice device(spec_, 9);
  Measurer measurer(task_, device);
  XgbTuner tuner;
  const TuneResult r = tuner.tune(measurer, quick_options());
  EXPECT_EQ(r.tuner_name, "autotvm");
  EXPECT_EQ(r.num_measured, 120);
  ASSERT_TRUE(r.best.has_value());
  // The model-guided phase should beat the best of the 32 random seeds.
  const auto curve = r.best_curve();
  EXPECT_GE(curve.back(), curve[31]);
}

TEST_F(TunerTest, XgbTunerHistoryDistinctConfigs) {
  SimulatedDevice device(spec_, 10);
  Measurer measurer(task_, device);
  XgbTuner tuner;
  const TuneResult r = tuner.tune(measurer, quick_options());
  std::set<std::int64_t> flats;
  for (const auto& p : r.history) flats.insert(p.flat);
  EXPECT_EQ(flats.size(), r.history.size());
}

TEST_F(TunerTest, XgbTunerSetNamePropagates) {
  SimulatedDevice device(spec_, 11);
  Measurer measurer(task_, device);
  XgbTuner tuner;
  tuner.set_name("bted");
  const TuneResult r = tuner.tune(measurer, quick_options());
  EXPECT_EQ(r.tuner_name, "bted");
}

TEST_F(TunerTest, BestCurveMonotoneForAllTuners) {
  for (int arm = 0; arm < 3; ++arm) {
    SimulatedDevice device(spec_, 20 + static_cast<std::uint64_t>(arm));
    Measurer measurer(task_, device);
    std::unique_ptr<Tuner> tuner;
    if (arm == 0) tuner = std::make_unique<RandomTuner>();
    if (arm == 1) tuner = std::make_unique<GaTuner>();
    if (arm == 2) tuner = std::make_unique<XgbTuner>();
    const auto curve = tuner->tune(measurer, quick_options()).best_curve();
    for (std::size_t i = 1; i < curve.size(); ++i) {
      EXPECT_GE(curve[i], curve[i - 1]) << tuner->name();
    }
  }
}

TEST(TunerExhaustion, AllTunersTerminateOnTinySpace) {
  // A space smaller than the budget: every tuner must stop once the space
  // is exhausted instead of spinning on memoized re-measurements.
  const TargetSpec spec = make_target("gpu-pascal");
  DenseWorkload d;
  d.in_features = 4;
  d.out_features = 4;
  const Workload w = Workload::dense(d);
  for (int arm = 0; arm < 3; ++arm) {
    TuningTask task(w, spec);
    ASSERT_LT(task.space().size(), 500);
    SimulatedDevice device(spec, 40 + static_cast<std::uint64_t>(arm));
    Measurer measurer(task, device);
    std::unique_ptr<Tuner> tuner;
    if (arm == 0) tuner = std::make_unique<RandomTuner>();
    if (arm == 1) tuner = std::make_unique<GaTuner>();
    if (arm == 2) tuner = std::make_unique<XgbTuner>();
    TuneOptions options;
    options.budget = 100000;
    options.early_stopping = 0;
    options.num_initial = 16;
    options.batch_size = 8;
    const TuneResult r = tuner->tune(measurer, options);
    EXPECT_LE(r.num_measured, task.space().size()) << tuner->name();
    EXPECT_TRUE(r.best.has_value()) << tuner->name();
  }
}

TEST(TuneResultTest, EmptyResultBasics) {
  TuneResult r;
  EXPECT_DOUBLE_EQ(r.best_gflops(), 0.0);
  EXPECT_TRUE(r.best_curve().empty());
}

}  // namespace
}  // namespace aal
