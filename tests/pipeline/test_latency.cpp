#include "pipeline/latency.hpp"

#include <gtest/gtest.h>

#include "pipeline/model_tuner.hpp"
#include "support/logging.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

class LatencyTest : public ::testing::Test {
 protected:
  void SetUp() override { set_log_threshold(LogLevel::kWarn); }
  void TearDown() override { set_log_threshold(LogLevel::kInfo); }

  TargetSpec spec_ = make_target("gpu-pascal");
  Graph graph_ = testing::tiny_cnn();
};

TEST_F(LatencyTest, FallbackDeploymentIsPositive) {
  const LatencyEvaluator eval(graph_, spec_);
  const double ms = eval.deterministic_latency_ms({});
  EXPECT_GT(ms, 0.0);
  EXPECT_LT(ms, 1000.0);
}

TEST_F(LatencyTest, TunedBeatsFallback) {
  ModelTuneOptions options;
  options.tune.budget = 100;
  options.tune.early_stopping = 0;
  options.tune.num_initial = 32;
  const ModelTuneReport report =
      tune_model(graph_, spec_, random_tuner_factory(), options);

  const LatencyEvaluator eval(graph_, spec_);
  const double fallback = eval.deterministic_latency_ms({});
  const double tuned = eval.deterministic_latency_ms(report.best_flat_by_task());
  EXPECT_LT(tuned, fallback);
}

TEST_F(LatencyTest, RunProducesRequestedSamples) {
  const LatencyEvaluator eval(graph_, spec_);
  const LatencyReport report = eval.run({}, 100, 42);
  EXPECT_EQ(report.runs, 100u);
  EXPECT_EQ(report.samples_ms.size(), 100u);
  EXPECT_GT(report.mean_ms, 0.0);
  EXPECT_GT(report.variance, 0.0);
  EXPECT_LE(report.min_ms, report.mean_ms);
  EXPECT_GE(report.max_ms, report.mean_ms);
}

TEST_F(LatencyTest, RunsAreReproducibleBySeed) {
  const LatencyEvaluator eval(graph_, spec_);
  const LatencyReport a = eval.run({}, 50, 7);
  const LatencyReport b = eval.run({}, 50, 7);
  ASSERT_EQ(a.samples_ms.size(), b.samples_ms.size());
  for (std::size_t i = 0; i < a.samples_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples_ms[i], b.samples_ms[i]);
  }
  const LatencyReport c = eval.run({}, 50, 8);
  EXPECT_NE(a.samples_ms[0], c.samples_ms[0]);
}

TEST_F(LatencyTest, MeanNearDeterministicLatency) {
  const LatencyEvaluator eval(graph_, spec_);
  const double det = eval.deterministic_latency_ms({});
  const LatencyReport report = eval.run({}, 600, 11);
  // Spikes skew upward; the mean must stay within ~20% of the base.
  EXPECT_NEAR(report.mean_ms, det, 0.2 * det);
}

TEST_F(LatencyTest, KernelBreakdownStructure) {
  const LatencyEvaluator eval(graph_, spec_);
  const auto kernels = eval.kernel_breakdown({});
  // tiny_cnn: conv group, dw group, dense group (tunable) + pool + softmax.
  int tunable = 0, fixed = 0;
  for (const auto& k : kernels) {
    EXPECT_GT(k.base_time_us, 0.0);
    EXPECT_GT(k.noise_sigma, 0.0);
    (k.tunable ? tunable : fixed)++;
  }
  EXPECT_EQ(tunable, 3);
  EXPECT_GE(fixed, 2);
}

TEST_F(LatencyTest, InvalidConfigRejected) {
  const LatencyEvaluator eval(graph_, spec_);
  // Find a non-deployable configuration for the conv task (e.g. a block of
  // >1024 threads) and ask the evaluator to deploy it.
  const auto tasks = extract_tasks(fuse(graph_));
  std::unordered_map<std::string, std::int64_t> chosen;
  for (const auto& t : tasks) {
    if (t.workload.kind() != WorkloadKind::kConv2d) continue;
    TuningTask task(t.workload, spec_);
    Rng rng(31);
    for (int i = 0; i < 20000; ++i) {
      const Config c = task.space().sample(rng);
      if (!task.profile(c).valid) {
        chosen[t.workload.key()] = c.flat;
        break;
      }
    }
  }
  ASSERT_FALSE(chosen.empty());
  EXPECT_THROW(eval.deterministic_latency_ms(chosen), InvalidArgument);
}

TEST_F(LatencyTest, BetterConfigsReduceVarianceInAggregate) {
  // Deploy the tiny model with (a) fallback configs, (b) tuned configs.
  // Tuned configs are faster *and* steadier on average, which is the
  // mechanism behind Table I's variance column.
  ModelTuneOptions options;
  options.tune.budget = 150;
  options.tune.early_stopping = 0;
  options.tune.num_initial = 32;
  const ModelTuneReport report =
      tune_model(graph_, spec_, random_tuner_factory(), options);

  const LatencyEvaluator eval(graph_, spec_);
  const LatencyReport fallback = eval.run({}, 600, 21);
  const LatencyReport tuned = eval.run(report.best_flat_by_task(), 600, 21);
  EXPECT_LT(tuned.mean_ms, fallback.mean_ms);
  // Compare relative variance (CV^2) so the faster mean doesn't trivially win.
  const double cv_fallback =
      fallback.variance / (fallback.mean_ms * fallback.mean_ms);
  const double cv_tuned = tuned.variance / (tuned.mean_ms * tuned.mean_ms);
  EXPECT_LT(cv_tuned, cv_fallback * 1.5);
}

}  // namespace
}  // namespace aal
