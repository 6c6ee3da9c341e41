#include "pipeline/model_tuner.hpp"

#include <gtest/gtest.h>

#include "support/logging.hpp"
#include "test_util.hpp"
#include "tuner/random_tuner.hpp"

namespace aal {
namespace {

class ModelTunerTest : public ::testing::Test {
 protected:
  void SetUp() override { set_log_threshold(LogLevel::kWarn); }
  void TearDown() override { set_log_threshold(LogLevel::kInfo); }

  TargetSpec spec_ = make_target("gpu-pascal");

  ModelTuneOptions quick_options() {
    ModelTuneOptions o;
    o.tune.budget = 60;
    o.tune.early_stopping = 0;
    o.tune.num_initial = 24;
    o.tune.batch_size = 12;
    return o;
  }
};

TEST_F(ModelTunerTest, TunesEveryTaskOfTinyModel) {
  const Graph g = testing::tiny_cnn();
  const ModelTuneReport report =
      tune_model(g, spec_, random_tuner_factory(), quick_options());

  EXPECT_EQ(report.model_name, "tiny_cnn");
  EXPECT_EQ(report.tuner_name, "random");
  EXPECT_EQ(report.tasks.size(), 3u);  // conv, depthwise, dense
  for (const auto& t : report.tasks) {
    EXPECT_GT(t.result.num_measured, 0);
    EXPECT_TRUE(t.result.best.has_value()) << t.task_key;
    EXPECT_EQ(t.group_count, 1);
  }
  EXPECT_EQ(report.total_measured(), 60 * 3);
}

TEST_F(ModelTunerTest, BestFlatByTaskCoversTasks) {
  const Graph g = testing::tiny_cnn();
  const ModelTuneReport report =
      tune_model(g, spec_, random_tuner_factory(), quick_options());
  const auto best = report.best_flat_by_task();
  EXPECT_EQ(best.size(), 3u);
  for (const auto& t : report.tasks) {
    EXPECT_TRUE(best.contains(t.task_key));
  }
}

TEST_F(ModelTunerTest, FactoriesProduceDistinctNames) {
  EXPECT_EQ(autotvm_tuner_factory()(nullptr)->name(), "autotvm");
  EXPECT_EQ(bted_tuner_factory()(nullptr)->name(), "bted");
  EXPECT_EQ(bted_bao_tuner_factory()(nullptr)->name(), "bted+bao");
  EXPECT_EQ(random_tuner_factory()(nullptr)->name(), "random");
  EXPECT_EQ(ga_tuner_factory()(nullptr)->name(), "ga");
}

TEST_F(ModelTunerTest, AutotvmArmRunsWithTransfer) {
  const Graph g = testing::tiny_cnn();
  ModelTuneOptions options = quick_options();
  options.use_transfer = true;
  const ModelTuneReport report =
      tune_model(g, spec_, autotvm_tuner_factory(), options);
  EXPECT_EQ(report.tasks.size(), 3u);
  for (const auto& t : report.tasks) {
    EXPECT_TRUE(t.result.best.has_value());
  }
}

TEST_F(ModelTunerTest, TuneWorkloadSingleTask) {
  RandomTuner tuner;
  TuneOptions options;
  options.budget = 50;
  options.early_stopping = 0;
  const TuneResult r = tune_workload(testing::small_conv_workload(), spec_,
                                     tuner, options, 777);
  EXPECT_EQ(r.num_measured, 50);
}

TEST_F(ModelTunerTest, ResumeFromRecordsMakesHistoryFree) {
  const Graph g = testing::tiny_cnn();
  const ModelTuneReport first =
      tune_model(g, spec_, random_tuner_factory(), quick_options());

  RecordDatabase db;
  for (const auto& t : first.tasks) {
    for (const auto& p : t.result.history) {
      db.add(TuningRecord{t.task_key, p.flat, p.ok, p.gflops, 0.0, ""});
    }
  }

  // Resume with the same seeds: every draw repeats and hits the preloaded
  // cache, so the tuners explore *new* configs with their whole budget —
  // the combined best can only improve on session one.
  ModelTuneOptions options = quick_options();
  options.resume_from = &db;
  const ModelTuneReport second =
      tune_model(g, spec_, random_tuner_factory(), options);
  ASSERT_EQ(second.tasks.size(), first.tasks.size());
  for (std::size_t i = 0; i < first.tasks.size(); ++i) {
    EXPECT_GE(second.tasks[i].result.best_gflops() + 1e-9,
              first.tasks[i].result.best_gflops())
        << first.tasks[i].task_key;
  }
}

TEST_F(ModelTunerTest, DeterministicGivenSeeds) {
  const Graph g = testing::tiny_cnn();
  const ModelTuneReport a =
      tune_model(g, spec_, random_tuner_factory(), quick_options());
  const ModelTuneReport b =
      tune_model(g, spec_, random_tuner_factory(), quick_options());
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.tasks[i].result.best_gflops(),
                     b.tasks[i].result.best_gflops());
  }
}

}  // namespace
}  // namespace aal
