#include "pipeline/model_tuner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/advanced_tuner.hpp"
#include "obs/trace.hpp"

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

/// A bted+bao tuner behind test hooks: prepare() may be withheld from it
/// (the unstaged path), and callbacks see every prepare() and observe()
/// with the task's derived seed, and every begin() and finalize().
class ProbeTuner final : public Tuner {
 public:
  struct Hooks {
    bool forward_prepare = true;
    std::function<void(std::uint64_t seed)> on_prepare;
    std::function<void(std::uint64_t seed)> on_observe;
    std::function<void(const char* call)> on_call;
  };

  explicit ProbeTuner(Hooks hooks) : hooks_(std::move(hooks)) {}

  std::string name() const override { return inner_.name(); }
  std::shared_ptr<const PreparedState> prepare(
      const TuningTask& task, const TuneOptions& options) const override {
    if (hooks_.on_prepare) hooks_.on_prepare(options.seed);
    return hooks_.forward_prepare ? inner_.prepare(task, options) : nullptr;
  }
  void begin(const Measurer& measurer, const TuneOptions& options) override {
    if (hooks_.on_call) hooks_.on_call("begin");
    seed_ = options.seed;
    inner_.begin(measurer, options);
  }
  std::vector<Config> propose(std::int64_t k) override {
    return inner_.propose(k);
  }
  void observe(std::span<const MeasureResult> results) override {
    inner_.observe(results);
    if (hooks_.on_observe) hooks_.on_observe(seed_);
  }
  void finalize(const Measurer& measurer) override {
    inner_.finalize(measurer);
    if (hooks_.on_call) hooks_.on_call("finalize");
  }

 private:
  Hooks hooks_;
  AdvancedActiveLearningTuner inner_;
  std::uint64_t seed_ = 0;
};

TunerFactory probe_factory(const ProbeTuner::Hooks& hooks) {
  return [hooks](TransferContext*) -> std::unique_ptr<Tuner> {
    if (hooks.on_call) hooks.on_call("factory");
    return std::make_unique<ProbeTuner>(hooks);
  };
}

/// The serial path stages task i+1 while task i tunes; these tests pin
/// what that must not change.
class ModelPipeline : public ModelTunerTest {
 protected:
  ModelTuneOptions pipeline_options(MemoryTraceSink& sink) {
    ModelTuneOptions o;
    o.tune.budget = 14;  // > num_initial: BAO rounds to stage behind
    o.tune.early_stopping = 0;
    o.tune.num_initial = 8;
    o.tune.seed = 5;
    o.device_seed = 11;
    o.trace = &sink;
    return o;
  }
  /// The tuner seed tune_model derives for the task at model position i.
  static std::uint64_t task_seed(const ModelTuneOptions& o, std::size_t i) {
    return o.tune.seed * 7907 + i + 1;
  }
};

TEST_F(ModelPipeline, StagedRunEqualsUnstagedRun) {
  const Graph g = testing::tiny_cnn();
  MemoryTraceSink staged_sink, unstaged_sink;
  const ModelTuneReport staged = tune_model(g, spec_, bted_bao_tuner_factory(),
                                            pipeline_options(staged_sink));
  std::atomic<int> prepares{0};
  ProbeTuner::Hooks hooks;
  hooks.forward_prepare = false;
  hooks.on_prepare = [&](std::uint64_t) { ++prepares; };
  const ModelTuneReport unstaged = tune_model(
      g, spec_, probe_factory(hooks), pipeline_options(unstaged_sink));

  EXPECT_EQ(prepares.load(), 3);  // every task was prepared ahead
  ASSERT_FALSE(staged_sink.to_jsonl().empty());
  EXPECT_EQ(staged_sink.to_jsonl(), unstaged_sink.to_jsonl());
  ASSERT_EQ(staged.tasks.size(), unstaged.tasks.size());
  for (std::size_t i = 0; i < staged.tasks.size(); ++i) {
    const TuneResult& a = staged.tasks[i].result;
    const TuneResult& b = unstaged.tasks[i].result;
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t j = 0; j < a.history.size(); ++j) {
      EXPECT_EQ(a.history[j].flat, b.history[j].flat);
      EXPECT_EQ(a.history[j].gflops, b.history[j].gflops);
    }
  }
}

TEST_F(ModelPipeline, EachTasksFactoryCallAndSessionRunInOrderOnTheCaller) {
  // A factory may keep per-thread state for the tuner it makes (perfbench's
  // span wrappers do): the next task's tuner must not be made before the
  // current session has finished, nor its session run on another thread.
  const Graph g = testing::tiny_cnn();
  MemoryTraceSink sink;
  std::mutex mutex;
  std::vector<std::string> calls;
  std::vector<std::thread::id> threads;
  ProbeTuner::Hooks hooks;
  hooks.on_call = [&](const char* call) {
    std::lock_guard<std::mutex> lock(mutex);
    calls.emplace_back(call);
    threads.push_back(std::this_thread::get_id());
  };
  std::atomic<int> prepares{0};
  hooks.on_prepare = [&](std::uint64_t) { ++prepares; };
  (void)tune_model(g, spec_, probe_factory(hooks), pipeline_options(sink));

  EXPECT_EQ(prepares.load(), 3);
  const std::vector<std::string> expected = {
      "factory", "begin", "finalize", "factory", "begin",
      "finalize", "factory", "begin", "finalize"};
  EXPECT_EQ(calls, expected);
  for (const std::thread::id id : threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST_F(ModelPipeline, CancelDuringATaskLeavesTheStagedNextTaskUnrun) {
  const Graph g = testing::tiny_cnn();
  MemoryTraceSink sink;
  ModelTuneOptions options = pipeline_options(sink);
  std::atomic<bool> cancel{false};
  options.tune.cancel = &cancel;
  std::mutex mutex;
  std::vector<std::uint64_t> prepared;
  ProbeTuner::Hooks hooks;
  hooks.on_prepare = [&](std::uint64_t seed) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      prepared.push_back(seed);
    }
    // A failed staging surfaces only when its task's turn comes, which a
    // cancelled run never reaches.
    if (seed == task_seed(options, 2)) throw std::runtime_error("unreached");
  };
  hooks.on_observe = [&](std::uint64_t seed) {
    if (seed == task_seed(options, 1)) cancel.store(true);
  };
  const ModelTuneReport report =
      tune_model(g, spec_, probe_factory(hooks), options);

  ASSERT_EQ(report.tasks.size(), 3u);
  EXPECT_EQ(report.tasks[0].result.num_measured, options.tune.budget);
  EXPECT_GT(report.tasks[1].result.num_measured, 0);
  EXPECT_LT(report.tasks[1].result.num_measured, options.tune.budget);
  // Task 2 was staged while task 1 ran, then never started.
  EXPECT_NE(std::find(prepared.begin(), prepared.end(), task_seed(options, 2)),
            prepared.end());
  EXPECT_TRUE(report.tasks[2].result.tuner_name.empty());
  EXPECT_TRUE(report.tasks[2].result.history.empty());
  EXPECT_FALSE(report.tasks[2].result.best.has_value());
  EXPECT_EQ(sink.to_jsonl().find(report.tasks[2].task_key), std::string::npos);
}

/// Runs every item in order on the calling thread and counts them.
class CountingBackend final : public MeasureBackend {
 public:
  const char* name() const override { return "counting"; }
  void dispatch(std::size_t n,
                const std::function<void(std::size_t)>& fn) override {
    items_.fetch_add(n);
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
  std::int64_t items() const { return static_cast<std::int64_t>(items_); }

 private:
  std::atomic<std::size_t> items_{0};
};

TEST_F(ModelPipeline, MeasureBackendCarriesEveryTasksBatches) {
  const Graph g = testing::tiny_cnn();
  for (const int jobs : {1, 3}) {
    SCOPED_TRACE(jobs);
    MemoryTraceSink plain_sink, counted_sink;
    ModelTuneOptions plain_options = pipeline_options(plain_sink);
    plain_options.jobs = jobs;
    // jobs=1 takes the pipelined serial path; without transfer each task is
    // a lane of its own, so jobs=3 runs the tasks in parallel lanes.
    plain_options.use_transfer = jobs == 1;
    ModelTuneOptions counted_options = plain_options;
    counted_options.trace = &counted_sink;
    CountingBackend backend;
    counted_options.measure_backend = &backend;

    const ModelTuneReport plain =
        tune_model(g, spec_, bted_bao_tuner_factory(), plain_options);
    const ModelTuneReport counted =
        tune_model(g, spec_, bted_bao_tuner_factory(), counted_options);

    EXPECT_GT(counted.total_measured(), 0);
    EXPECT_EQ(backend.items(), counted.total_measured());
    ASSERT_FALSE(plain_sink.to_jsonl().empty());
    EXPECT_EQ(counted_sink.to_jsonl(), plain_sink.to_jsonl());
    ASSERT_EQ(counted.tasks.size(), plain.tasks.size());
    for (std::size_t i = 0; i < plain.tasks.size(); ++i) {
      const TuneResult& a = counted.tasks[i].result;
      const TuneResult& b = plain.tasks[i].result;
      ASSERT_EQ(a.history.size(), b.history.size());
      for (std::size_t j = 0; j < a.history.size(); ++j) {
        EXPECT_EQ(a.history[j].flat, b.history[j].flat);
        EXPECT_EQ(a.history[j].gflops, b.history[j].gflops);
      }
    }
  }
}

TEST_F(ModelPipeline, StagingFailureSurfacesAtItsTasksTurn) {
  const Graph g = testing::tiny_cnn();
  MemoryTraceSink sink;
  ModelTuneOptions options = pipeline_options(sink);
  ProbeTuner::Hooks hooks;
  hooks.on_prepare = [&](std::uint64_t seed) {
    if (seed == task_seed(options, 1)) throw std::runtime_error("bad stage");
  };
  try {
    (void)tune_model(g, spec_, probe_factory(hooks), options);
    FAIL() << "the staging failure was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "bad stage");
  }
  // Task 0 ran to the end before task 1's failure surfaced, and task 1
  // emitted nothing.
  const std::string trace = sink.to_jsonl();
  std::size_t ends = 0;
  for (std::size_t at = trace.find("session_end"); at != std::string::npos;
       at = trace.find("session_end", at + 1)) {
    ++ends;
  }
  EXPECT_EQ(ends, 1u);
  EXPECT_EQ(trace.find("session_begin", trace.find("session_end")),
            std::string::npos);
}

}  // namespace
}  // namespace aal
