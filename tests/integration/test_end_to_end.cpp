// End-to-end integration: model zoo -> fusion -> tuning (all three paper
// arms) -> deployment latency, on a downscaled budget. This is the whole
// Fig. 1 pipeline in miniature.
#include <gtest/gtest.h>

#include "core/advanced_tuner.hpp"
#include "graph/models.hpp"
#include "measure/record.hpp"
#include "pipeline/latency.hpp"
#include "pipeline/model_tuner.hpp"
#include "support/logging.hpp"
#include "test_util.hpp"

namespace aal {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override { set_log_threshold(LogLevel::kWarn); }
  void TearDown() override { set_log_threshold(LogLevel::kInfo); }

  TargetSpec spec_ = make_target("gpu-pascal");

  ModelTuneOptions quick_options() {
    ModelTuneOptions o;
    o.tune.budget = 90;
    o.tune.early_stopping = 0;
    o.tune.num_initial = 32;
    o.tune.batch_size = 16;
    return o;
  }
};

TEST_F(EndToEndTest, ThreeArmsOnTinyCnn) {
  const Graph g = testing::tiny_cnn();
  const LatencyEvaluator eval(g, spec_);

  struct Arm {
    const char* name;
    TunerFactory factory;
  };
  const Arm arms[] = {
      {"autotvm", autotvm_tuner_factory()},
      {"bted", bted_tuner_factory()},
      {"bted+bao", bted_bao_tuner_factory()},
  };

  const double fallback = eval.deterministic_latency_ms({});
  for (const Arm& arm : arms) {
    const ModelTuneReport report =
        tune_model(g, spec_, arm.factory, quick_options());
    EXPECT_EQ(report.tuner_name, arm.name);
    EXPECT_EQ(report.tasks.size(), 3u);
    const double tuned =
        eval.deterministic_latency_ms(report.best_flat_by_task());
    EXPECT_LT(tuned, fallback) << arm.name;

    const LatencyReport latency = eval.run(report.best_flat_by_task(), 200, 5);
    EXPECT_GT(latency.mean_ms, 0.0);
  }
}

TEST_F(EndToEndTest, RecordsRoundTripThroughDatabase) {
  const Graph g = testing::tiny_cnn();
  const ModelTuneReport report =
      tune_model(g, spec_, random_tuner_factory(), quick_options());

  RecordDatabase db;
  for (const auto& task : report.tasks) {
    for (const auto& point : task.result.history) {
      TuningRecord r;
      r.task_key = task.task_key;
      r.config_flat = point.flat;
      r.ok = point.ok;
      r.gflops = point.gflops;
      db.add(r);
    }
  }
  EXPECT_EQ(db.size(), static_cast<std::size_t>(report.total_measured()));

  // The database's best must match the tuner's best.
  for (const auto& task : report.tasks) {
    const auto best = db.best_for(task.task_key);
    ASSERT_TRUE(best.has_value());
    EXPECT_NEAR(best->gflops, task.result.best_gflops(), 1e-9);
  }
}

TEST_F(EndToEndTest, MobileNetFirstTaskAllArmsProduceResults) {
  // One real paper task (MobileNet-v1 T1) through all three arms with a
  // small budget; checks the full task path on a 5x10^7-point space.
  const auto tasks = extract_tasks(fuse(make_mobilenet_v1()));
  ASSERT_FALSE(tasks.empty());
  const Workload t1 = tasks[0].workload;

  TuneOptions options;
  options.budget = 100;
  options.early_stopping = 0;
  options.num_initial = 32;
  options.batch_size = 16;

  double autotvm_best = 0.0, bao_best = 0.0;
  {
    auto tuner = autotvm_tuner_factory()(nullptr);
    autotvm_best =
        tune_workload(t1, spec_, *tuner, options, 999).best_gflops();
  }
  {
    auto tuner = bted_bao_tuner_factory()(nullptr);
    bao_best = tune_workload(t1, spec_, *tuner, options, 999).best_gflops();
  }
  EXPECT_GT(autotvm_best, 100.0);
  EXPECT_GT(bao_best, 100.0);
}

}  // namespace
}  // namespace aal
