// Chaos suite for the deterministic fault-injection + retry layer.
//
// The contract under test (DESIGN.md §5): fault draws are pure in
// (plan seed, flat, attempt), injected faults are transient, retries replay
// the fault-free timing stream bitwise, and a config whose retry budget runs
// dry is quarantined and never dispatched to the device again. The
// property-style sweeps pin the headline guarantee — with transient-only
// faults and enough retries, a tuning run is indistinguishable from the
// fault-free run at any thread count.
#include "hwsim/fault.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/advanced_tuner.hpp"
#include "measure/measure.hpp"
#include "obs/metrics.hpp"
#include "support/logging.hpp"
#include "test_util.hpp"
#include "tuner/tuning_session.hpp"

namespace aal {
namespace {

FaultPlan mixed_plan(double scale, int cap, std::uint64_t seed = 7) {
  FaultPlan plan;
  plan.seed = seed;
  plan.timeout_rate = 0.5 * scale;
  plan.launch_error_rate = 0.25 * scale;
  plan.wrong_result_rate = 0.15 * scale;
  plan.worker_death_rate = 0.1 * scale;
  plan.max_faults_per_config = cap;
  return plan;
}

TEST(FaultPlan, DrawIsPureInSeedFlatAttempt) {
  const FaultPlan plan = mixed_plan(0.4, 0);
  for (std::int64_t flat = 0; flat < 200; ++flat) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const FaultKind first = plan.draw(flat, attempt);
      for (int repeat = 0; repeat < 3; ++repeat) {
        EXPECT_EQ(plan.draw(flat, attempt), first);
      }
    }
  }
  // A different seed reshuffles the schedule.
  FaultPlan other = plan;
  other.seed = 8;
  bool any_difference = false;
  for (std::int64_t flat = 0; flat < 200 && !any_difference; ++flat) {
    any_difference = other.draw(flat, 0) != plan.draw(flat, 0);
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultyDevice, SpecReferenceIsStableThroughDecoratorChains) {
  // The lifetime audit for Device::spec() returning a reference in the
  // TargetSpec world: the spec lives by value in the innermost
  // SimulatedDevice (the TargetSpec temporary passed to the constructor is
  // moved into the device), and every FaultyDevice layer forwards the SAME
  // address — no layer copies the spec into a temporary that could dangle.
  SimulatedDevice inner(make_target("cpu-simd"), 3);
  FaultyDevice one(inner, mixed_plan(0.2, 1));
  FaultyDevice two(one, mixed_plan(0.1, 1, 9));
  EXPECT_EQ(&one.spec(), &inner.spec());
  EXPECT_EQ(&two.spec(), &inner.spec());
  // The forwarded spec is still fully readable through the chain.
  EXPECT_EQ(two.spec().name, "cpu-simd");
  EXPECT_EQ(two.spec().kind, TargetKind::kCpu);
  EXPECT_DOUBLE_EQ(two.spec().peak_gflops(), inner.spec().peak_gflops());
}

TEST(FaultPlan, InactivePlanNeverFaults) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.active());
  for (std::int64_t flat = 0; flat < 100; ++flat) {
    EXPECT_EQ(plan.draw(flat, 0), FaultKind::kNone);
  }
}

TEST(FaultPlan, CapBoundsFaultsPerConfig) {
  // Even at total rate 1.0, attempts past the cap are clean — the hard
  // guarantee that cap+1 attempts always reach a successful measurement.
  FaultPlan plan = mixed_plan(1.0, 2);
  for (std::int64_t flat = 0; flat < 300; ++flat) {
    EXPECT_NE(plan.draw(flat, 0), FaultKind::kNone);
    EXPECT_NE(plan.draw(flat, 1), FaultKind::kNone);
    EXPECT_EQ(plan.draw(flat, 2), FaultKind::kNone);
    EXPECT_EQ(plan.draw(flat, 3), FaultKind::kNone);
  }
}

TEST(FaultPlan, EmpiricalRateTracksSpec) {
  const FaultPlan plan = mixed_plan(0.5, 0);  // total rate 0.5
  int faults = 0;
  const int n = 20000;
  std::set<FaultKind> kinds;
  for (std::int64_t flat = 0; flat < n; ++flat) {
    const FaultKind kind = plan.draw(flat, 0);
    if (kind != FaultKind::kNone) {
      ++faults;
      kinds.insert(kind);
    }
  }
  const double rate = static_cast<double>(faults) / n;
  EXPECT_NEAR(rate, plan.total_rate(), 0.02);
  EXPECT_EQ(kinds.size(), 4u);  // all four kinds occur
}

TEST(FaultPlan, SpecParseRoundTrip) {
  const FaultPlan plan =
      FaultPlan::parse("timeout=0.05,launch=0.02,wrong=0.01,death=0.01,"
                       "seed=7,cap=2");
  EXPECT_DOUBLE_EQ(plan.timeout_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan.launch_error_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.wrong_result_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan.worker_death_rate, 0.01);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.max_faults_per_config, 2);

  const FaultPlan back = FaultPlan::parse(plan.to_spec());
  EXPECT_DOUBLE_EQ(back.timeout_rate, plan.timeout_rate);
  EXPECT_DOUBLE_EQ(back.launch_error_rate, plan.launch_error_rate);
  EXPECT_DOUBLE_EQ(back.wrong_result_rate, plan.wrong_result_rate);
  EXPECT_DOUBLE_EQ(back.worker_death_rate, plan.worker_death_rate);
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_EQ(back.max_faults_per_config, plan.max_faults_per_config);
}

TEST(FaultPlan, SpecRejectsMalformedInput) {
  EXPECT_THROW(FaultPlan::parse("bogus=1"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("timeout"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("timeout=abc"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("timeout=1.5"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("timeout=0.6,launch=0.6"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("timeout=0.1,cap=-1"), InvalidArgument);
}

class FaultyDeviceTest : public ::testing::Test {
 protected:
  TargetSpec spec_ = make_target("gpu-pascal");
  TuningTask task_{testing::small_conv_workload(), spec_};

  /// First space flat with a valid (buildable) profile.
  std::int64_t valid_flat() const {
    for (std::int64_t flat = 0; flat < task_.space().size(); ++flat) {
      if (task_.profile(task_.space().at(flat)).valid) return flat;
    }
    ADD_FAILURE() << "space has no valid config";
    return 0;
  }

  /// First space flat whose profile fails to build.
  std::int64_t invalid_flat() const {
    for (std::int64_t flat = 0; flat < task_.space().size(); ++flat) {
      if (!task_.profile(task_.space().at(flat)).valid) return flat;
    }
    ADD_FAILURE() << "space has no invalid config";
    return 0;
  }
};

TEST_F(FaultyDeviceTest, InjectedFaultIsTransientAndDeterministic) {
  SimulatedDevice inner(spec_, 42);
  const FaultyDevice device(inner, mixed_plan(1.0, 0));
  const std::int64_t flat = valid_flat();
  const KernelProfile profile = task_.profile(task_.space().at(flat));

  const MeasureOutcome a = device.run(profile, 1000, 3, flat, 0);
  const MeasureOutcome b = device.run(profile, 1000, 3, flat, 0);
  EXPECT_FALSE(a.ok);
  EXPECT_TRUE(a.transient);
  EXPECT_FALSE(a.fault.empty());
  EXPECT_NE(a.error.find(a.fault), std::string::npos);
  EXPECT_EQ(b.ok, a.ok);
  EXPECT_EQ(b.fault, a.fault);
  EXPECT_EQ(b.error, a.error);
  EXPECT_EQ(device.attempts(), 2);
  EXPECT_EQ(device.injected(), 2);
}

TEST_F(FaultyDeviceTest, CleanAttemptMatchesInnerDeviceBitwise) {
  SimulatedDevice inner(spec_, 42);
  SimulatedDevice reference(spec_, 42);
  const FaultyDevice device(inner, mixed_plan(1.0, 1));  // attempt 1+ clean
  const std::int64_t flat = valid_flat();
  const KernelProfile profile = task_.profile(task_.space().at(flat));
  const std::int64_t flops = task_.workload().flops();

  const MeasureOutcome faulty = device.run(profile, flops, 3, flat, 1);
  const MeasureOutcome clean = reference.run(profile, flops, 3, flat, 1);
  ASSERT_TRUE(faulty.ok);
  EXPECT_FALSE(faulty.transient);
  EXPECT_EQ(faulty.gflops, clean.gflops);
  EXPECT_EQ(faulty.mean_time_us, clean.mean_time_us);
  EXPECT_EQ(faulty.times_us, clean.times_us);
  EXPECT_EQ(device.injected(), 0);
}

TEST_F(FaultyDeviceTest, PermanentBuildErrorsPassThroughUninjected) {
  SimulatedDevice inner(spec_, 42);
  const FaultyDevice device(inner, mixed_plan(1.0, 0));
  const std::int64_t flat = invalid_flat();
  const KernelProfile profile = task_.profile(task_.space().at(flat));
  ASSERT_FALSE(profile.valid);

  const MeasureOutcome out = device.run(profile, 1000, 3, flat, 0);
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.transient);  // build errors stay permanent
  EXPECT_EQ(out.error, profile.error);
  EXPECT_EQ(device.injected(), 0);
}

class MeasureFaultsTest : public ::testing::Test {
 protected:
  TargetSpec spec_ = make_target("gpu-pascal");
  TuningTask task_{testing::small_conv_workload(), spec_};

  MeasureOptions retry_options(int max_attempts) const {
    MeasureOptions options;
    options.retry.max_attempts = max_attempts;
    return options;
  }
};

TEST_F(MeasureFaultsTest, RetryRecoversTransientFaultsBitwise) {
  Rng rng(21);
  const auto configs = task_.space().sample_distinct(48, rng);

  SimulatedDevice clean_device(spec_, 99);
  Measurer clean(task_, clean_device);
  const auto clean_results = clean.measure_batch(configs);

  SimulatedDevice inner(spec_, 99);
  const FaultyDevice faulty_device(inner, mixed_plan(0.5, 2));
  Measurer faulty(task_, faulty_device, retry_options(3));  // cap+1 attempts
  const auto faulty_results = faulty.measure_batch(configs);

  ASSERT_EQ(faulty_results.size(), clean_results.size());
  std::int64_t recovered = 0;
  for (std::size_t i = 0; i < clean_results.size(); ++i) {
    EXPECT_EQ(faulty_results[i].ok, clean_results[i].ok);
    EXPECT_EQ(faulty_results[i].gflops, clean_results[i].gflops);
    EXPECT_EQ(faulty_results[i].mean_time_us, clean_results[i].mean_time_us);
    EXPECT_EQ(faulty_results[i].error, clean_results[i].error);
    EXPECT_FALSE(faulty_results[i].quarantined);
    if (faulty_results[i].attempts > 1) {
      ++recovered;
      EXPECT_EQ(static_cast<int>(faulty_results[i].faults.size()),
                faulty_results[i].attempts - 1);
      EXPECT_GT(faulty_results[i].backoff_us, 0.0);
    }
  }
  EXPECT_GT(recovered, 0) << "rate 0.5 over 48 configs should fault somewhere";
  EXPECT_EQ(faulty.num_quarantined(), 0);
}

TEST_F(MeasureFaultsTest, ExhaustedRetriesQuarantineAndNeverRedispatch) {
  FaultPlan plan = mixed_plan(1.0, 0);  // every attempt faults, forever
  SimulatedDevice inner(spec_, 99);
  const FaultyDevice device(inner, plan);
  Measurer measurer(task_, device, retry_options(3));

  Rng rng(22);
  Config config = task_.space().sample(rng);
  while (!task_.profile(config).valid) config = task_.space().sample(rng);

  const MeasureResult& r = measurer.measure(config);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.quarantined);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(r.faults.size(), 3u);
  EXPECT_TRUE(measurer.is_quarantined(config.flat));
  EXPECT_EQ(measurer.num_quarantined(), 1);
  EXPECT_EQ(measurer.num_measured(), 1);  // charged once

  // Quarantined configs are cache-served: no further device dispatch from
  // either the single-config or the batch path.
  const std::int64_t dispatched = device.attempts();
  EXPECT_EQ(dispatched, 3);
  measurer.measure(config);
  measurer.measure_batch(std::vector<Config>{config, config});
  EXPECT_EQ(device.attempts(), dispatched);
  EXPECT_EQ(measurer.num_measured(), 1);
}

TEST_F(MeasureFaultsTest, FirstAttemptBuildErrorIsNotQuarantined) {
  // A plain permanent failure with no retry engagement is the historical
  // "failed config", not a quarantine — default runs must see zero
  // quarantine events.
  SimulatedDevice device(spec_, 99);
  Measurer measurer(task_, device, retry_options(3));
  std::optional<Config> invalid;
  for (std::int64_t flat = 0; flat < task_.space().size(); ++flat) {
    const Config c = task_.space().at(flat);
    if (!task_.profile(c).valid) {
      invalid = c;
      break;
    }
  }
  ASSERT_TRUE(invalid.has_value());
  const MeasureResult& r = measurer.measure(*invalid);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_FALSE(r.quarantined);
  EXPECT_EQ(measurer.num_quarantined(), 0);
}

TEST_F(MeasureFaultsTest, PermanentToleranceQuarantinesRepeatedPermanents) {
  SimulatedDevice device(spec_, 99);
  MeasureOptions options;
  options.retry.max_attempts = 4;
  options.retry.permanent_tolerance = 3;
  Measurer measurer(task_, device, options);
  std::optional<Config> invalid;
  for (std::int64_t flat = 0; flat < task_.space().size(); ++flat) {
    const Config c = task_.space().at(flat);
    if (!task_.profile(c).valid) {
      invalid = c;
      break;
    }
  }
  ASSERT_TRUE(invalid.has_value());
  const MeasureResult& r = measurer.measure(*invalid);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 3);  // re-checked up to the tolerance
  EXPECT_TRUE(r.quarantined);
  EXPECT_TRUE(r.faults.empty());  // permanent, not transient
}

TEST_F(MeasureFaultsTest, RetryMetricsCountFaultsAndQuarantines) {
  MetricsRegistry metrics;
  Obs obs;
  obs.metrics = &metrics;

  SimulatedDevice inner(spec_, 99);
  const FaultyDevice device(inner, mixed_plan(0.6, 2));
  Measurer measurer(task_, device, retry_options(3));
  measurer.set_obs(obs);

  Rng rng(23);
  measurer.measure_batch(task_.space().sample_distinct(64, rng));
  EXPECT_GT(metrics.counter_value("measure.retries"), 0);
  EXPECT_GT(metrics.counter_value("measure.transient_faults"), 0);
  EXPECT_EQ(metrics.counter_value("measure.retries"),
            metrics.counter_value("measure.transient_faults"));
  EXPECT_EQ(metrics.counter_value("measure.quarantined"), 0);  // cap 2 < 3
}

// ---------------------------------------------------------------------------
// Property sweep: fault rate × retry budget. With cap-bounded transient-only
// faults and a retry budget of cap+1, every run must be indistinguishable
// from the fault-free golden run — history, best, results and (per backend
// pair) the emitted trace bytes.
// ---------------------------------------------------------------------------

/// `cap` is 64-bit so the struct has no padding: gtest names each case after
/// a byte dump of it, and padding bytes would differ from run to run.
struct SweepCase {
  double scale;       // fraction of the mixed plan's full rate
  std::int64_t cap;   // FaultPlan::max_faults_per_config
};

/// Drops metric lines whose names match `drop` (substring match). Used to
/// exclude the execution-schedule gauge (pool.queue_high_water varies with
/// the backend by design) and, when comparing against a fault-free run, the
/// additive retry counters.
std::string strip_metric_lines(const std::string& text,
                               const std::vector<std::string>& drop) {
  std::istringstream is(text);
  std::string line;
  std::string out;
  while (std::getline(is, line)) {
    bool dropped = false;
    for (const std::string& needle : drop) {
      if (line.find(needle) != std::string::npos) {
        dropped = true;
        break;
      }
    }
    if (!dropped) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

class FaultSweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override { set_log_threshold(LogLevel::kWarn); }
  void TearDown() override { set_log_threshold(LogLevel::kInfo); }

  TargetSpec spec_ = make_target("gpu-pascal");

  TuneOptions session_options() const {
    TuneOptions options;
    options.budget = 48;
    options.early_stopping = 6;
    options.batch_size = 16;
    options.num_initial = 8;
    options.seed = 11;
    return options;
  }

  struct RunOutput {
    TuneResult result;
    std::string trace;
    std::string metrics;
  };

  /// One BTED+BAO session over the dense workload; plan == nullptr runs
  /// fault-free, backend == nullptr runs serially.
  RunOutput run_session(const FaultPlan* plan, MeasureBackend* backend,
                        int max_attempts) {
    TuningTask task(testing::small_dense_workload(), spec_);
    SimulatedDevice inner(spec_, 2024);
    std::optional<FaultyDevice> faulty;
    if (plan != nullptr) faulty.emplace(inner, *plan);
    const Device& device =
        faulty.has_value() ? static_cast<const Device&>(*faulty) : inner;
    MeasureOptions measure_options;
    measure_options.retry.max_attempts = max_attempts;
    Measurer measurer(task, device, measure_options);

    MemoryTraceSink sink;
    MetricsRegistry metrics;
    TuneOptions options = session_options();
    options.obs.trace = &sink;
    options.obs.metrics = &metrics;

    AdvancedActiveLearningTuner tuner;
    RunOutput out;
    if (backend == nullptr) {
      TuningSession session(tuner, measurer, options);
      out.result = session.run();
    } else {
      TuningSession session(tuner, measurer, options, *backend);
      out.result = session.run();
    }
    out.trace = sink.to_jsonl();
    out.metrics = metrics.to_text();
    return out;
  }
};

TEST_P(FaultSweepTest, EnoughRetriesReproduceFaultFreeRun) {
  const SweepCase param = GetParam();
  const FaultPlan plan = mixed_plan(param.scale, param.cap);
  const RunOutput clean = run_session(nullptr, nullptr, 1);
  const RunOutput faulty = run_session(&plan, nullptr, param.cap + 1);

  // History and best are bitwise-identical to the fault-free run.
  ASSERT_EQ(faulty.result.history.size(), clean.result.history.size());
  for (std::size_t i = 0; i < clean.result.history.size(); ++i) {
    EXPECT_EQ(faulty.result.history[i].flat, clean.result.history[i].flat);
    EXPECT_EQ(faulty.result.history[i].ok, clean.result.history[i].ok);
    EXPECT_EQ(faulty.result.history[i].gflops,
              clean.result.history[i].gflops);
  }
  ASSERT_EQ(faulty.result.best.has_value(), clean.result.best.has_value());
  if (clean.result.best.has_value()) {
    EXPECT_EQ(faulty.result.best->config.flat,
              clean.result.best->config.flat);
    EXPECT_EQ(faulty.result.best->gflops, clean.result.best->gflops);
  }
  EXPECT_EQ(faulty.result.num_measured, clean.result.num_measured);

  // Metrics match too, modulo the additive retry counters (absent from the
  // fault-free run by definition).
  const std::vector<std::string> retry_keys = {
      "measure.retries", "measure.transient_faults", "measure.quarantined",
      "pool.queue_high_water"};
  EXPECT_EQ(strip_metric_lines(faulty.metrics, retry_keys),
            strip_metric_lines(clean.metrics, retry_keys));
  if (param.scale > 0.0) {
    EXPECT_NE(faulty.metrics.find("measure.retries"), std::string::npos);
  }
}

TEST_P(FaultSweepTest, SerialAndJobs4FaultRunsAreBitwiseIdentical) {
  const SweepCase param = GetParam();
  const FaultPlan plan = mixed_plan(param.scale, param.cap);
  const RunOutput serial = run_session(&plan, nullptr, param.cap + 1);
  ParallelBackend jobs4(4);
  const RunOutput parallel = run_session(&plan, &jobs4, param.cap + 1);

  // The whole observable surface matches byte for byte: trace (including
  // every fault_injected / measure_retry event), metrics and history.
  EXPECT_EQ(parallel.trace, serial.trace);
  // Metrics match except the execution-schedule gauge, which reflects the
  // real queue depth by design.
  const std::vector<std::string> exec_keys = {"pool.queue_high_water"};
  EXPECT_EQ(strip_metric_lines(parallel.metrics, exec_keys),
            strip_metric_lines(serial.metrics, exec_keys));
  ASSERT_EQ(parallel.result.history.size(), serial.result.history.size());
  for (std::size_t i = 0; i < serial.result.history.size(); ++i) {
    EXPECT_EQ(parallel.result.history[i].flat, serial.result.history[i].flat);
    EXPECT_EQ(parallel.result.history[i].gflops,
              serial.result.history[i].gflops);
  }
  ASSERT_FALSE(serial.trace.empty());
}

INSTANTIATE_TEST_SUITE_P(
    RateTimesBudget, FaultSweepTest,
    ::testing::Values(SweepCase{0.1, 1}, SweepCase{0.3, 1}, SweepCase{0.3, 2},
                      SweepCase{0.6, 2}, SweepCase{0.9, 3}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "rate" + std::to_string(static_cast<int>(info.param.scale * 100)) +
             "_cap" + std::to_string(info.param.cap);
    });

}  // namespace
}  // namespace aal
