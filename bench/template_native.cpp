// Native-template harness: CUDA-shaped vs target-native config spaces on
// the non-GPU backends ("aaltune-bench/v1" JSON, suite "template_native" —
// see docs/PERF.md).
//
// For each backend target (cpu-simd, fpga-systolic) the harness tunes one
// small CNN twice — once from the default CUDA-shaped space and once from
// the target's native template ("cpu-native" / "systolic") — and reports
// the tuning wall time (native entries carry the CUDA median as baseline)
// plus, as integer params, the sampled feasible rate of each space
// (per-mille) and the best configuration quality found (GFLOPS x100).
//
// Every emit is also a correctness audit; the harness fails hard unless:
//   * the native fpga-systolic space samples >= 90% feasible (the pin
//     tests/space/test_native_templates.cpp enforces: infeasible <= 10%,
//     down from ~66% in the CUDA-shaped space),
//   * every native space samples at least as feasible as its CUDA
//     counterpart on the same target,
//   * every tune (either template) finds a best config for every task.
//
// Entries (x2 targets):
//   template_cuda_tune:<target>    tune from the CUDA-shaped space
//   template_native_tune:<target>  tune from the native space (baseline =
//                                  the CUDA median on the same target)
//
// Usage: template_native [--repeats N] [--scale full|smoke] [--out FILE].
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_harness.hpp"
#include "graph/fusion.hpp"
#include "graph/graph.hpp"
#include "hwsim/target.hpp"
#include "measure/tuning_task.hpp"
#include "obs/metrics.hpp"
#include "pipeline/model_tuner.hpp"
#include "support/logging.hpp"
#include "support/stats.hpp"

namespace {

using namespace aal;
using bench::BenchEntry;

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "template_native: FAILED: %s\n", what.c_str());
  std::exit(1);
}

/// The bench CNN: conv + depthwise + dense, one task per kind.
Graph bench_model() {
  Graph g("bench_cnn_templates");
  NodeId x = g.add_input("data", {Shape{1, 8, 16, 16}, DType::kFloat32});
  x = g.conv2d("conv1", x, 16, 3, 1, 1);
  x = g.relu("conv1_relu", x);
  x = g.depthwise_conv2d("dw1", x, 3, 1, 1);
  x = g.relu("dw1_relu", x);
  x = g.max_pool2d("pool", x, 2, 2);
  x = g.flatten("flatten", x);
  x = g.dense("fc", x, 10);
  g.softmax("prob", x);
  g.validate();
  return g;
}

/// Sampled feasible rate of the model's task spaces under one template,
/// in per-mille (deterministic: fixed seed, fixed sample count). Sampling
/// retries until feasible, so pruned/checked is the infeasible fraction —
/// the same statistic the tuner's space.constraint_* metrics expose.
long long feasible_per_mille(const Graph& g, const TargetSpec& target,
                             const std::string& request, int samples) {
  std::int64_t checked = 0, pruned = 0;
  for (const Task& t : extract_tasks(fuse(g))) {
    const TuningTask task(t.workload, target, request);
    Rng rng(41);
    for (int i = 0; i < samples; ++i) (void)task.space().sample(rng);
    checked += task.space().feasibility_checks();
    pruned += task.space().pruned_count();
  }
  if (checked <= 0) fail("feasibility probe made no checks");
  return 1000 - (1000 * pruned) / checked;
}

struct TimedTune {
  double ms = 0.0;
  double best_gflops = 0.0;
};

TimedTune timed_tune(const Graph& g, const TargetSpec& target,
                     const std::string& request, std::int64_t budget) {
  ModelTuneOptions options;
  options.tune.budget = budget;
  options.tune.early_stopping = 12;
  options.tune.num_initial = 24;
  options.tune.batch_size = 8;
  options.schedule_template = request;
  const auto t0 = std::chrono::steady_clock::now();
  const ModelTuneReport report =
      tune_model(g, target, bted_bao_tuner_factory(), options);
  const auto t1 = std::chrono::steady_clock::now();
  TimedTune timed;
  timed.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (const TaskTuneReport& t : report.tasks) {
    if (!t.result.best.has_value()) {
      fail("no best config for " + t.task_key + " (template '" + request +
           "')");
    }
    timed.best_gflops = std::max(timed.best_gflops, t.result.best_gflops());
  }
  return timed;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_threshold(LogLevel::kWarn);
  int repeats = 5;
  std::string scale = "full";
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "template_native: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--repeats") {
      repeats = std::atoi(next().c_str());
    } else if (arg == "--scale") {
      scale = next();
    } else if (arg == "--out") {
      out_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: template_native [--repeats N] "
                   "[--scale full|smoke] [--out FILE]\n");
      return 2;
    }
  }
  if ((scale != "full" && scale != "smoke") || repeats < 1) {
    std::fprintf(stderr, "template_native: bad --scale or --repeats\n");
    return 2;
  }
  const bool smoke = scale == "smoke";
  const std::int64_t budget = smoke ? 60 : 120;
  const int probe_samples = smoke ? 500 : 2000;

  const Graph g = bench_model();
  const long long tasks =
      static_cast<long long>(extract_tasks(fuse(g)).size());

  std::vector<BenchEntry> entries;
  for (const char* target_name : {"cpu-simd", "fpga-systolic"}) {
    const TargetSpec target = make_target(target_name);
    const long long cuda_feasible =
        feasible_per_mille(g, target, "", probe_samples);
    const long long native_feasible =
        feasible_per_mille(g, target, "native", probe_samples);

    // The audits: the native space must be mostly feasible by construction
    // (the fpga pin is the headline acceptance number) and never sample
    // worse than the CUDA-shaped space it replaces.
    if (std::string(target_name) == "fpga-systolic" &&
        native_feasible < 900) {
      fail("fpga-systolic native feasible rate " +
           std::to_string(native_feasible) + " per mille, need >= 900");
    }
    if (native_feasible < cuda_feasible) {
      fail(std::string(target_name) + ": native feasible rate " +
           std::to_string(native_feasible) + " below CUDA-shaped rate " +
           std::to_string(cuda_feasible));
    }
    std::fprintf(stderr,
                 "template_native: %s feasible per-mille cuda=%lld "
                 "native=%lld\n",
                 target_name, cuda_feasible, native_feasible);

    std::vector<double> cuda_ms, native_ms;
    double cuda_best = 0.0, native_best = 0.0;
    for (int r = 0; r < repeats; ++r) {
      const TimedTune t = timed_tune(g, target, "", budget);
      cuda_ms.push_back(t.ms);
      cuda_best = t.best_gflops;  // deterministic: identical every repeat
    }
    for (int r = 0; r < repeats; ++r) {
      const TimedTune t = timed_tune(g, target, "native", budget);
      native_ms.push_back(t.ms);
      native_best = t.best_gflops;
    }

    const auto params = [&](long long feasible, double best) {
      return std::vector<std::pair<std::string, long long>>{
          {"tasks", tasks},
          {"budget", budget},
          {"feasible_per_mille", feasible},
          {"best_gflops_x100", static_cast<long long>(best * 100.0)}};
    };
    const double cuda_median = median(std::move(cuda_ms));
    entries.push_back({std::string("template_cuda_tune:") + target_name,
                       params(cuda_feasible, cuda_best), cuda_median});
    entries.push_back({std::string("template_native_tune:") + target_name,
                       params(native_feasible, native_best),
                       median(std::move(native_ms)), cuda_median});
  }

  return bench::write_json(out_path, "template_native", scale, repeats,
                           entries);
}
