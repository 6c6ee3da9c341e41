// Determinism suite: the refactor's core guarantee is that tuning results
// are a function of the seeds alone — never of the execution schedule.
// These tests pin that down: for every arm, a serial session and parallel
// sessions at several thread counts must produce bitwise-identical results,
// and tune_model must produce an identical report for any jobs value.
#include <gtest/gtest.h>

#include "core/advanced_tuner.hpp"
#include "pipeline/model_tuner.hpp"
#include "support/logging.hpp"
#include "test_util.hpp"
#include "tuner/tuning_session.hpp"

namespace aal {
namespace {

void expect_same_result(const TuneResult& a, const TuneResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.tuner_name, b.tuner_name) << label;
  EXPECT_EQ(a.num_measured, b.num_measured) << label;
  ASSERT_EQ(a.history.size(), b.history.size()) << label;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].flat, b.history[i].flat) << label << " @" << i;
    EXPECT_EQ(a.history[i].ok, b.history[i].ok) << label << " @" << i;
    // Bitwise: the parallel path must reproduce the serial doubles exactly.
    EXPECT_DOUBLE_EQ(a.history[i].gflops, b.history[i].gflops)
        << label << " @" << i;
  }
  EXPECT_EQ(a.best.has_value(), b.best.has_value()) << label;
  if (a.best && b.best) {
    EXPECT_EQ(a.best->config.flat, b.best->config.flat) << label;
    EXPECT_DOUBLE_EQ(a.best->gflops, b.best->gflops) << label;
  }
}

void expect_same_report(const ModelTuneReport& a, const ModelTuneReport& b,
                        const std::string& label) {
  EXPECT_EQ(a.model_name, b.model_name) << label;
  EXPECT_EQ(a.tuner_name, b.tuner_name) << label;
  ASSERT_EQ(a.tasks.size(), b.tasks.size()) << label;
  for (std::size_t t = 0; t < a.tasks.size(); ++t) {
    EXPECT_EQ(a.tasks[t].task_key, b.tasks[t].task_key) << label;
    expect_same_result(a.tasks[t].result, b.tasks[t].result,
                       label + " task " + a.tasks[t].task_key);
  }
  EXPECT_EQ(a.total_measured(), b.total_measured()) << label;
}

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { set_log_threshold(LogLevel::kWarn); }
  void TearDown() override { set_log_threshold(LogLevel::kInfo); }

  TargetSpec spec_ = make_target("gpu-pascal");
  Workload workload_ = testing::small_conv_workload();

  TuneOptions quick_options() {
    TuneOptions o;
    o.budget = 60;
    o.early_stopping = 0;
    o.num_initial = 24;
    o.batch_size = 16;
    o.seed = 5;
    return o;
  }

  TuneResult run_arm(const TunerFactory& factory, MeasureBackend* backend) {
    TuningTask task(workload_, spec_);
    SimulatedDevice device(spec_, 77);
    Measurer measurer(task, device);
    auto tuner = factory(nullptr);
    if (backend == nullptr) {
      TuningSession session(*tuner, measurer, quick_options());
      return session.run();
    }
    TuningSession session(*tuner, measurer, quick_options(), *backend);
    return session.run();
  }
};

TEST_F(DeterminismTest, AllArmsInvariantAcrossBackendsAndThreadCounts) {
  struct Arm {
    const char* label;
    TunerFactory factory;
  };
  const Arm arms[] = {{"autotvm", autotvm_tuner_factory()},
                      {"bted", bted_tuner_factory()},
                      {"bted+bao", bted_bao_tuner_factory()}};
  for (const Arm& arm : arms) {
    const TuneResult serial = run_arm(arm.factory, nullptr);
    SerialBackend explicit_serial;
    expect_same_result(serial, run_arm(arm.factory, &explicit_serial),
                       std::string(arm.label) + " serial-backend");
    for (const std::size_t threads : {1u, 4u, 8u}) {
      ParallelBackend parallel(threads);
      expect_same_result(
          serial, run_arm(arm.factory, &parallel),
          std::string(arm.label) + " threads=" + std::to_string(threads));
    }
  }
}

TEST_F(DeterminismTest, ModelReportInvariantAcrossJobs) {
  const Graph model = testing::tiny_cnn();
  const TunerFactory factory = bted_tuner_factory();

  ModelTuneOptions options;
  options.tune = quick_options();
  options.tune.budget = 40;
  options.device_seed = 17;

  options.jobs = 1;
  const ModelTuneReport serial = tune_model(model, spec_, factory, options);
  EXPECT_GT(serial.tasks.size(), 1u);

  for (const int jobs : {2, 4, 8}) {
    options.jobs = jobs;
    expect_same_report(serial, tune_model(model, spec_, factory, options),
                       "jobs=" + std::to_string(jobs));
  }
}

TEST_F(DeterminismTest, PerTargetTracesAreByteIdenticalSerialVsJobs4) {
  // The determinism contract holds per deployment target: for each backend,
  // a serial run and a --jobs 4 run must produce the same report AND the
  // same trace bytes (constraint-filtered sampling, device models and the
  // constraint_prune event are all pure in the seeds).
  const Graph model = testing::tiny_cnn();
  const TunerFactory factory = bted_tuner_factory();

  for (const char* tname : {"gpu-pascal", "cpu-simd", "fpga-systolic"}) {
    const TargetSpec target = make_target(tname);
    ModelTuneOptions options;
    options.tune = quick_options();
    options.tune.budget = 40;
    options.device_seed = 17;

    const auto run = [&](int jobs, std::string* jsonl) {
      MemoryTraceSink sink;
      options.trace = &sink;
      options.jobs = jobs;
      const ModelTuneReport report = tune_model(model, target, factory, options);
      *jsonl = sink.to_jsonl();
      return report;
    };

    std::string serial_trace, jobs4_trace;
    const ModelTuneReport serial = run(1, &serial_trace);
    const ModelTuneReport jobs4 = run(4, &jobs4_trace);
    expect_same_report(serial, jobs4, std::string(tname) + " jobs=4");
    EXPECT_EQ(serial_trace, jobs4_trace) << tname;

    const bool default_target = std::string(tname) == "gpu-pascal";
    // Non-default targets qualify task keys and emit constraint_prune.
    for (const auto& task : serial.tasks) {
      EXPECT_EQ(task.task_key.find('@') != std::string::npos, !default_target)
          << tname << " key " << task.task_key;
    }
    EXPECT_EQ(serial_trace.find("constraint_prune") != std::string::npos,
              !default_target)
        << tname;
  }
}

TEST_F(DeterminismTest, ModelReportInvariantAcrossJobsWithoutTransfer) {
  // Without transfer every task is its own lane — the most parallel case.
  const Graph model = testing::tiny_cnn();
  const TunerFactory factory = bted_bao_tuner_factory();

  ModelTuneOptions options;
  options.tune = quick_options();
  options.tune.budget = 32;
  options.use_transfer = false;
  options.device_seed = 23;

  options.jobs = 1;
  const ModelTuneReport serial = tune_model(model, spec_, factory, options);

  options.jobs = 4;
  expect_same_report(serial, tune_model(model, spec_, factory, options),
                     "no-transfer jobs=4");
}

}  // namespace
}  // namespace aal
