// Graceful-degradation integration tests: end-to-end model tuning under a
// misbehaving device.
//
// A 10% transient fault plan is the chaos baseline: with a couple of
// retries the pipeline must stay on budget, keep its determinism guarantees
// across --jobs values, and land within a pinned tolerance of the clean
// run's GFLOPS. With a cap-bounded plan and enough retries the run must be
// *exactly* the clean run (the tentpole acceptance criterion, exercised
// here through tune_model rather than a single session).
#include <gtest/gtest.h>

#include <string>

#include "hwsim/fault.hpp"
#include "obs/metrics.hpp"
#include "pipeline/model_tuner.hpp"
#include "support/logging.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

class DegradationTest : public ::testing::Test {
 protected:
  void SetUp() override { set_log_threshold(LogLevel::kWarn); }
  void TearDown() override { set_log_threshold(LogLevel::kInfo); }

  TargetSpec spec_ = make_target("gpu-pascal");

  ModelTuneOptions base_options() const {
    ModelTuneOptions options;
    options.tune.budget = 24;
    options.tune.early_stopping = 0;
    options.tune.num_initial = 8;
    options.tune.batch_size = 8;
    options.tune.seed = 3;
    options.device_seed = 99;
    options.use_transfer = false;
    return options;
  }

  /// 10% total transient rate, spread over all four fault kinds.
  FaultPlan ten_percent_plan(int cap) const {
    FaultPlan plan;
    plan.seed = 7;
    plan.timeout_rate = 0.05;
    plan.launch_error_rate = 0.02;
    plan.wrong_result_rate = 0.02;
    plan.worker_death_rate = 0.01;
    plan.max_faults_per_config = cap;
    return plan;
  }
};

TEST_F(DegradationTest, TenPercentFaultsStayOnBudgetAndNearCleanGflops) {
  const Graph model = testing::tiny_cnn();
  ModelTuneOptions options = base_options();
  const ModelTuneReport clean =
      tune_model(model, spec_, random_tuner_factory(), options);

  options.faults = ten_percent_plan(/*cap=*/0);  // unbounded chaos
  options.measure.retry.max_attempts = 3;
  MetricsRegistry metrics;
  options.metrics = &metrics;
  const ModelTuneReport faulty =
      tune_model(model, spec_, random_tuner_factory(), options);

  ASSERT_EQ(faulty.tasks.size(), clean.tasks.size());
  for (std::size_t i = 0; i < clean.tasks.size(); ++i) {
    const TuneResult& c = clean.tasks[i].result;
    const TuneResult& f = faulty.tasks[i].result;
    // Budget semantics are untouched by retries: each task still measures
    // exactly as many distinct configs as the clean run.
    EXPECT_EQ(f.num_measured, c.num_measured);
    EXPECT_LE(f.num_measured, options.tune.budget);
    // Two retries against 10% faults lose at most the odd config to
    // quarantine (p ~ 1e-3 per config); the best GFLOPS must stay within
    // 20% of the clean run for every task.
    ASSERT_TRUE(c.best.has_value());
    ASSERT_TRUE(f.best.has_value()) << "task " << i << " lost its best";
    EXPECT_GT(f.best_gflops(), 0.8 * c.best_gflops()) << "task " << i;
  }
  // The chaos actually happened: the run observed (and survived) faults.
  EXPECT_GT(metrics.counter_value("measure.transient_faults"), 0);
}

TEST_F(DegradationTest, CapBoundedFaultsWithEnoughRetriesMatchCleanExactly) {
  const Graph model = testing::tiny_cnn();
  ModelTuneOptions options = base_options();
  const ModelTuneReport clean =
      tune_model(model, spec_, random_tuner_factory(), options);

  options.faults = ten_percent_plan(/*cap=*/2);
  options.measure.retry.max_attempts = 3;  // cap+1: recovery is guaranteed
  const ModelTuneReport faulty =
      tune_model(model, spec_, random_tuner_factory(), options);

  ASSERT_EQ(faulty.tasks.size(), clean.tasks.size());
  for (std::size_t i = 0; i < clean.tasks.size(); ++i) {
    const TuneResult& c = clean.tasks[i].result;
    const TuneResult& f = faulty.tasks[i].result;
    ASSERT_EQ(f.history.size(), c.history.size());
    for (std::size_t j = 0; j < c.history.size(); ++j) {
      EXPECT_EQ(f.history[j].flat, c.history[j].flat);
      EXPECT_EQ(f.history[j].ok, c.history[j].ok);
      EXPECT_EQ(f.history[j].gflops, c.history[j].gflops);
    }
    EXPECT_EQ(f.best_gflops(), c.best_gflops());
  }
}

TEST_F(DegradationTest, FaultRunsAreInvariantAcrossJobs) {
  const Graph model = testing::tiny_cnn();
  const auto run = [&](int jobs) {
    MemoryTraceSink sink;
    ModelTuneOptions options = base_options();
    options.faults = ten_percent_plan(/*cap=*/0);
    options.measure.retry.max_attempts = 2;
    options.jobs = jobs;
    options.trace = &sink;
    const ModelTuneReport report =
        tune_model(model, spec_, random_tuner_factory(), options);
    return std::make_pair(report, sink.to_jsonl());
  };

  const auto [serial_report, serial_trace] = run(1);
  const auto [parallel_report, parallel_trace] = run(4);

  // Fault injection, retries and quarantines are all part of the trace, so
  // byte-identity here pins the whole chaos schedule across lane layouts.
  ASSERT_FALSE(serial_trace.empty());
  EXPECT_EQ(parallel_trace, serial_trace);
  ASSERT_EQ(parallel_report.tasks.size(), serial_report.tasks.size());
  for (std::size_t i = 0; i < serial_report.tasks.size(); ++i) {
    const TuneResult& s = serial_report.tasks[i].result;
    const TuneResult& p = parallel_report.tasks[i].result;
    ASSERT_EQ(p.history.size(), s.history.size());
    for (std::size_t j = 0; j < s.history.size(); ++j) {
      EXPECT_EQ(p.history[j].flat, s.history[j].flat);
      EXPECT_EQ(p.history[j].gflops, s.history[j].gflops);
    }
  }
}

TEST_F(DegradationTest, PerTaskFaultSeedsDecorrelateTasks) {
  // Each task derives its own fault stream from the plan seed and the
  // task's model-order position; two different plan seeds must produce
  // different chaos schedules (pinned via the transient-fault counter).
  const Graph model = testing::tiny_cnn();
  const auto faults_observed = [&](std::uint64_t plan_seed) {
    ModelTuneOptions options = base_options();
    options.faults = ten_percent_plan(/*cap=*/0);
    options.faults.seed = plan_seed;
    options.measure.retry.max_attempts = 2;
    MetricsRegistry metrics;
    options.metrics = &metrics;
    tune_model(model, spec_, random_tuner_factory(), options);
    return metrics.counter_value("measure.transient_faults");
  };
  const std::int64_t a = faults_observed(7);
  const std::int64_t b = faults_observed(7);
  EXPECT_EQ(a, b);  // same seed, same chaos
  EXPECT_GT(a, 0);
}

}  // namespace
}  // namespace aal
