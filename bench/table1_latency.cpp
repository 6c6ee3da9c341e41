// Reproduces Table I: end-to-end inference latency and run-to-run variance
// for the five models under AutoTVM, BTED and BTED+BAO, with improvement
// percentages relative to AutoTVM.
//
// Protocol per the paper: every task of every model is tuned node-wise
// (early stopping 400), the deployed model runs AAL_RUNS (600) times per
// trial, and results average over AAL_TRIALS trials.
#include <cstdio>

#include "exp_common.hpp"
#include "graph/models.hpp"
#include "pipeline/latency.hpp"
#include "support/string_util.hpp"

namespace {

using namespace aal;
using namespace aal::bench;

struct ArmResult {
  double latency_ms = 0.0;
  double variance = 0.0;
};

ArmResult evaluate_arm(const Graph& model, const TargetSpec& spec,
                       const TunerFactory& factory, std::uint64_t salt) {
  ArmResult total;
  const LatencyEvaluator evaluator(model, spec);
  for (int trial = 0; trial < trials(); ++trial) {
    ModelTuneOptions options;
    options.tune.budget = budget();
    options.tune.early_stopping = 400;
    options.tune.seed = salt * 100 + static_cast<std::uint64_t>(trial) + 1;
    options.device_seed = salt * 991 + static_cast<std::uint64_t>(trial);
    options.jobs = jobs();  // lane-parallel tuning; results jobs-invariant
    options.metrics = shared_metrics();
    const ModelTuneReport report =
        tune_model(model, spec, factory, options);
    const LatencyReport latency =
        evaluator.run(report.best_flat_by_task(), latency_runs(),
                      salt * 7 + static_cast<std::uint64_t>(trial));
    total.latency_ms += latency.mean_ms;
    total.variance += latency.variance;
  }
  total.latency_ms /= trials();
  total.variance /= trials();
  return total;
}

}  // namespace

int main() {
  set_log_threshold(LogLevel::kWarn);
  banner("Table I", "end-to-end model latency and variance, 3 algorithms");

  const TargetSpec spec = make_target("gpu-pascal");
  const auto arms = paper_arms();

  TextTable table;
  table.set_header({"Model", "AutoTVM lat(ms)", "AutoTVM var", "BTED lat(ms)",
                    "d%", "BTED var", "d%", "B+B lat(ms)", "d%", "B+B var",
                    "d%"});

  double avg[3][2] = {};
  int model_count = 0;
  for (const auto& name : model_zoo_names()) {
    const Graph model = make_model(name);
    ArmResult results[3];
    for (std::size_t a = 0; a < arms.size(); ++a) {
      results[a] = evaluate_arm(model, spec, arms[a].factory,
                                static_cast<std::uint64_t>(model_count) * 10 + a + 1);
      std::fprintf(stderr, "[table1] %s / %s done\n", name.c_str(),
                   arms[a].label.c_str());
    }
    auto delta = [](double ours, double base) {
      return format_percent((ours - base) / base);
    };
    table.add_row({model_display_name(name),
                   format_double(results[0].latency_ms, 4),
                   format_double(results[0].variance, 4),
                   format_double(results[1].latency_ms, 4),
                   delta(results[1].latency_ms, results[0].latency_ms),
                   format_double(results[1].variance, 4),
                   delta(results[1].variance, results[0].variance),
                   format_double(results[2].latency_ms, 4),
                   delta(results[2].latency_ms, results[0].latency_ms),
                   format_double(results[2].variance, 4),
                   delta(results[2].variance, results[0].variance)});
    for (int a = 0; a < 3; ++a) {
      avg[a][0] += results[a].latency_ms;
      avg[a][1] += results[a].variance;
    }
    ++model_count;
  }
  table.add_separator();
  auto davg = [&](int a, int i) {
    return format_percent((avg[a][i] - avg[0][i]) / avg[0][i]);
  };
  table.add_row({"Average",
                 format_double(avg[0][0] / model_count, 4),
                 format_double(avg[0][1] / model_count, 4),
                 format_double(avg[1][0] / model_count, 4), davg(1, 0),
                 format_double(avg[1][1] / model_count, 4), davg(1, 1),
                 format_double(avg[2][0] / model_count, 4), davg(2, 0),
                 format_double(avg[2][1] / model_count, 4), davg(2, 1)});
  std::printf("%s", table.to_string().c_str());

  std::printf("\nExpected shape (paper): BTED+BAO reduces latency on every "
              "model (paper: up to\n-28.1%% on MobileNet-v1, -13.8%% average) "
              "and reduces variance strongly (paper:\nup to -92.7%%, -67.7%% "
              "average); BTED alone sits between AutoTVM and BTED+BAO.\n");
  print_metrics_summary();
  return 0;
}
