// Shared helpers for the experiment harnesses in bench/.
//
// Every harness reproduces one table or figure of the paper. Runtime knobs
// come from the environment so `for b in build/bench/*; do $b; done` stays
// within a sane wall-clock budget on one core while a full paper-scale run
// remains one variable away:
//   AAL_TRIALS  trials averaged per (task, tuner) pair   (default 3;  paper 10)
//   AAL_BUDGET  measurement budget per task              (default 1024; paper ~1024)
//   AAL_RUNS    inference runs per deployed model        (default 600; paper 600)
//   AAL_JOBS    concurrent tuning lanes / grid cells     (default 1)
//   AAL_METRICS set non-zero to print a metrics summary  (default off)
//
// Results are bitwise-identical for every AAL_JOBS value: seeds derive from
// (task, arm, trial) positions and measurement noise is counter-based.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "measure/backend.hpp"
#include "measure/measure.hpp"
#include "obs/metrics.hpp"
#include "pipeline/model_tuner.hpp"
#include "support/logging.hpp"
#include "support/stats.hpp"
#include "tuner/tuning_session.hpp"

namespace aal::bench {

inline std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoll(value);
}

inline int trials() { return static_cast<int>(env_int("AAL_TRIALS", 3)); }
inline std::int64_t budget() { return env_int("AAL_BUDGET", 1024); }
inline int latency_runs() { return static_cast<int>(env_int("AAL_RUNS", 600)); }
inline int jobs() {
  const auto j = env_int("AAL_JOBS", 1);
  return j < 1 ? 1 : static_cast<int>(j);
}
inline bool metrics_enabled() { return env_int("AAL_METRICS", 0) != 0; }

/// Process-wide registry the harnesses report into when AAL_METRICS is set
/// (null otherwise, which keeps the hot paths metric-free).
inline MetricsRegistry* shared_metrics() {
  static MetricsRegistry registry;
  return metrics_enabled() ? &registry : nullptr;
}

/// Prints the shared registry (no-op when AAL_METRICS is off).
inline void print_metrics_summary() {
  if (MetricsRegistry* m = shared_metrics()) {
    std::printf("\nmetrics (AAL_METRICS=1):\n%s", m->to_text().c_str());
  }
}

/// The paper's three experiment arms, in Table I column order.
struct ExperimentArm {
  std::string label;
  TunerFactory factory;
};

inline std::vector<ExperimentArm> paper_arms() {
  return {
      {"AutoTVM", autotvm_tuner_factory()},
      {"BTED", bted_tuner_factory()},
      {"BTED+BAO", bted_bao_tuner_factory()},
  };
}

/// Averaged single-task tuning outcome across trials.
struct TaskOutcome {
  double mean_best_gflops = 0.0;       // as measured (noisy)
  double mean_true_gflops = 0.0;       // noise-free quality of the pick
  double mean_configs = 0.0;           // measured configurations spent
  std::vector<std::int64_t> best_flats;  // per trial, for deployment
};

/// Runs one tuner arm on one workload `trials` times with distinct seeds.
/// Each trial drives a TuningSession over `backend` (serial when null);
/// since measurement noise is counter-based the backend never changes the
/// numbers, only the wall-clock.
inline TaskOutcome run_task(const Workload& workload, const TargetSpec& spec,
                            const TunerFactory& factory,
                            const TuneOptions& base_options, int num_trials,
                            std::uint64_t salt,
                            MeasureBackend* backend = nullptr) {
  TaskOutcome outcome;
  for (int trial = 0; trial < num_trials; ++trial) {
    TuningTask task(workload, spec);
    SimulatedDevice device(spec,
                           salt * 0x9E3779B9ULL + static_cast<std::uint64_t>(trial));
    Measurer measurer(task, device);
    auto tuner = factory(nullptr);
    TuneOptions options = base_options;
    options.seed = salt * 131 + static_cast<std::uint64_t>(trial) + 1;
    options.obs.metrics = shared_metrics();
    SerialBackend serial;
    TuningSession session(*tuner, measurer, options,
                          backend != nullptr ? *backend : static_cast<MeasureBackend&>(serial));
    const TuneResult result = session.run();
    outcome.mean_best_gflops += result.best_gflops();
    outcome.mean_configs += static_cast<double>(result.num_measured);
    if (result.best) {
      outcome.mean_true_gflops +=
          task.profile(result.best->config).gflops(workload.flops());
      outcome.best_flats.push_back(result.best->config.flat);
    } else {
      outcome.best_flats.push_back(-1);
    }
  }
  outcome.mean_best_gflops /= num_trials;
  outcome.mean_true_gflops /= num_trials;
  outcome.mean_configs /= num_trials;
  return outcome;
}

/// Prints the standard harness banner.
inline void banner(const char* experiment, const char* what) {
  std::printf("=======================================================\n");
  std::printf("%s — %s\n", experiment, what);
  std::printf("trials=%d budget=%lld runs=%d jobs=%d (override via AAL_TRIALS "
              "/ AAL_BUDGET / AAL_RUNS / AAL_JOBS)\n",
              trials(), static_cast<long long>(budget()), latency_runs(),
              jobs());
  std::printf("=======================================================\n");
}

}  // namespace aal::bench
