// Golden-trace regression suite.
//
// A small BTED+BAO session over the dense test workload is traced and the
// JSONL output is pinned three ways:
//   1. a serial run and a --jobs 4 style ParallelBackend run must be
//      byte-identical (trace determinism across schedules);
//   2. the trace must contain every one of the nine event types (the
//      session is sized so budget, init, fits, scope changes and the
//      early-stop all occur);
//   3. the bytes must equal the checked-in golden file — any change to
//      event schemas, emission points or serialization shows up as a diff.
//
// To regenerate the golden file after an *intentional* schema change:
//
//   AAL_REGEN_GOLDEN=1 ./build/tests/aaltune_tests
//       --gtest_filter='ObsGoldenTrace.*'         (one command line)
//
// then review the diff of tests/obs/golden/dense_bao_trace.jsonl like any
// other source change.
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "core/advanced_tuner.hpp"
#include "hwsim/fault.hpp"
#include "obs/trace.hpp"
#include "pipeline/model_tuner.hpp"
#include "support/logging.hpp"
#include "test_util.hpp"
#include "tuner/tuning_session.hpp"

namespace aal {
namespace {

constexpr const char* kGoldenRelPath = "tests/obs/golden/dense_bao_trace.jsonl";
constexpr const char* kFaultGoldenRelPath =
    "tests/obs/golden/dense_bao_fault_trace.jsonl";

TuneOptions golden_options() {
  TuneOptions options;
  // Sized so the run exercises every event type: a BTED init batch, ~20 BAO
  // iterations with bootstrap fits and stagnation-driven scope changes, and
  // an early stop well before the budget.
  options.budget = 48;
  options.early_stopping = 6;
  options.batch_size = 16;
  options.num_initial = 8;
  options.seed = 11;
  return options;
}

/// The fault-enabled golden run's chaos schedule: cap-bounded transient
/// faults, retried with one attempt of headroom, so the tuning decisions
/// (and every non-retry event) replicate the fault-free golden run exactly.
FaultPlan golden_fault_plan() {
  FaultPlan plan;
  plan.seed = 7;
  plan.timeout_rate = 0.08;
  plan.launch_error_rate = 0.04;
  plan.wrong_result_rate = 0.02;
  plan.worker_death_rate = 0.02;
  plan.max_faults_per_config = 2;
  return plan;
}

std::string run_traced_session(MeasureBackend* backend,
                               const FaultPlan* faults = nullptr,
                               std::vector<TunePoint>* history_out = nullptr) {
  TuningTask task(testing::small_dense_workload(), make_target("gpu-pascal"));
  SimulatedDevice device(make_target("gpu-pascal"), 2024);
  std::optional<FaultyDevice> faulty;
  if (faults != nullptr) faulty.emplace(device, *faults);
  MeasureOptions measure_options;
  if (faults != nullptr) {
    measure_options.retry.max_attempts = faults->max_faults_per_config + 2;
  }
  Measurer measurer(
      task,
      faulty.has_value() ? static_cast<const Device&>(*faulty) : device,
      measure_options);
  AdvancedActiveLearningTuner tuner;
  MemoryTraceSink sink;
  TuneOptions options = golden_options();
  options.obs.trace = &sink;
  TuneResult result;
  if (backend == nullptr) {
    TuningSession session(tuner, measurer, options);
    result = session.run();
  } else {
    TuningSession session(tuner, measurer, options, *backend);
    result = session.run();
  }
  if (history_out != nullptr) *history_out = result.history;
  return sink.to_jsonl();
}

class ObsGoldenTrace : public ::testing::Test {
 protected:
  void SetUp() override { set_log_threshold(LogLevel::kWarn); }
  void TearDown() override { set_log_threshold(LogLevel::kInfo); }
};

TEST_F(ObsGoldenTrace, SerialAndParallelTracesAreByteIdentical) {
  const std::string serial = run_traced_session(nullptr);
  ParallelBackend parallel(4);
  const std::string jobs4 = run_traced_session(&parallel);
  EXPECT_EQ(serial, jobs4);
  ASSERT_FALSE(serial.empty());
}

TEST_F(ObsGoldenTrace, TraceContainsAllNineEventTypes) {
  const std::string trace = run_traced_session(nullptr);
  std::set<TraceEventType> seen;
  std::istringstream is(trace);
  std::string line;
  std::int64_t expected_step = 0;
  while (std::getline(is, line)) {
    const TraceEvent event = trace_event_from_jsonl_line(line);
    EXPECT_EQ(event.step, expected_step) << line;
    ++expected_step;
    seen.insert(event.type);
  }
  for (int t = 0; t <= static_cast<int>(TraceEventType::kEarlyStop); ++t) {
    const auto type = static_cast<TraceEventType>(t);
    EXPECT_TRUE(seen.contains(type))
        << "missing event type: " << trace_event_type_name(type);
  }
}

TEST_F(ObsGoldenTrace, MatchesGoldenFile) {
  const std::string trace = run_traced_session(nullptr);
  const std::string path = std::string(AALTUNE_SOURCE_DIR) + "/" +
                           kGoldenRelPath;
  if (std::getenv("AAL_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write golden file " << path;
    os << trace;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream is(path);
  ASSERT_TRUE(is.good())
      << "missing golden file " << path
      << " — regenerate with AAL_REGEN_GOLDEN=1 (see file header)";
  std::ostringstream golden;
  golden << is.rdbuf();
  EXPECT_EQ(trace, golden.str())
      << "trace diverged from the golden file; if the change is intentional, "
         "regenerate with AAL_REGEN_GOLDEN=1 (see file header)";
}

TEST_F(ObsGoldenTrace, FaultTraceSerialAndParallelAreByteIdentical) {
  const FaultPlan plan = golden_fault_plan();
  const std::string serial = run_traced_session(nullptr, &plan);
  ParallelBackend parallel(4);
  const std::string jobs4 = run_traced_session(&parallel, &plan);
  EXPECT_EQ(serial, jobs4);
  ASSERT_FALSE(serial.empty());
}

TEST_F(ObsGoldenTrace, FaultRunReplaysCleanHistoryAndAddsRetryEvents) {
  // The chaos plan is cap-bounded and the retry budget exceeds the cap, so
  // every injected fault is survived: the tuning history is bitwise the
  // fault-free run's, and the trace gains only retry-machinery events.
  std::vector<TunePoint> clean_history;
  run_traced_session(nullptr, nullptr, &clean_history);
  const FaultPlan plan = golden_fault_plan();
  std::vector<TunePoint> fault_history;
  const std::string trace = run_traced_session(nullptr, &plan, &fault_history);

  ASSERT_EQ(fault_history.size(), clean_history.size());
  for (std::size_t i = 0; i < clean_history.size(); ++i) {
    EXPECT_EQ(fault_history[i].flat, clean_history[i].flat);
    EXPECT_EQ(fault_history[i].ok, clean_history[i].ok);
    EXPECT_EQ(fault_history[i].gflops, clean_history[i].gflops);
  }

  std::set<TraceEventType> seen;
  std::istringstream is(trace);
  std::string line;
  while (std::getline(is, line)) {
    seen.insert(trace_event_from_jsonl_line(line).type);
  }
  EXPECT_TRUE(seen.contains(TraceEventType::kFaultInjected));
  EXPECT_TRUE(seen.contains(TraceEventType::kMeasureRetry));
  // Recovery is guaranteed by the cap, so nothing may be quarantined.
  EXPECT_FALSE(seen.contains(TraceEventType::kQuarantine));
}

TEST_F(ObsGoldenTrace, MatchesFaultGoldenFile) {
  const FaultPlan plan = golden_fault_plan();
  const std::string trace = run_traced_session(nullptr, &plan);
  const std::string path =
      std::string(AALTUNE_SOURCE_DIR) + "/" + kFaultGoldenRelPath;
  if (std::getenv("AAL_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write golden file " << path;
    os << trace;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream is(path);
  ASSERT_TRUE(is.good())
      << "missing golden file " << path
      << " — regenerate with AAL_REGEN_GOLDEN=1 (see file header)";
  std::ostringstream golden;
  golden << is.rdbuf();
  EXPECT_EQ(trace, golden.str())
      << "fault trace diverged from the golden file; if the change is "
         "intentional, regenerate with AAL_REGEN_GOLDEN=1 (see file header)";
}

TEST_F(ObsGoldenTrace, ModelTraceIsInvariantAcrossJobs) {
  // tune_model buffers each task's events and replays them in model order,
  // so the whole-model trace must not depend on the lane schedule.
  const auto run = [](int jobs) {
    MemoryTraceSink sink;
    ModelTuneOptions options;
    options.tune.budget = 24;
    options.tune.early_stopping = 0;
    options.tune.num_initial = 8;
    options.tune.batch_size = 8;
    options.tune.seed = 3;
    options.device_seed = 99;
    options.use_transfer = false;  // every task its own lane
    options.jobs = jobs;
    options.trace = &sink;
    tune_model(testing::tiny_cnn(), make_target("gpu-pascal"),
               random_tuner_factory(), options);
    return sink.to_jsonl();
  };
  const std::string serial = run(1);
  const std::string parallel = run(4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // Every event must carry its lane label so interleaved-lane traces stay
  // attributable.
  std::istringstream is(serial);
  std::string line;
  while (std::getline(is, line)) {
    const TraceEvent event = trace_event_from_jsonl_line(line);
    ASSERT_FALSE(event.fields.empty());
    EXPECT_EQ(event.fields[0].key, "lane") << line;
  }
}

TEST_F(ObsGoldenTrace, BtedBaoModelTraceIsInvariantAcrossJobs) {
  // The bted+bao tuner with BAO rounds to run: the serial path stages each
  // next task's BTED sweep while the current task tunes, the parallel path
  // does not, and both must give the same bytes.
  const auto run = [](int jobs) {
    MemoryTraceSink sink;
    ModelTuneOptions options;
    options.tune.budget = 14;
    options.tune.early_stopping = 0;
    options.tune.num_initial = 8;
    options.tune.seed = 3;
    options.device_seed = 99;
    options.use_transfer = false;  // every task its own lane
    options.jobs = jobs;
    options.trace = &sink;
    tune_model(testing::tiny_cnn(), make_target("gpu-pascal"),
               bted_bao_tuner_factory(), options);
    return sink.to_jsonl();
  };
  const std::string serial = run(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, run(4));
}

}  // namespace
}  // namespace aal
