// Ablation: BAO's adaptive neighborhood. Sweeps the base radius R, the
// growth factor tau, disabling adaptivity (tau -> 1+eps), the literal
// ceil in Equation (1) vs the raw ratio, and re-centering on the best-so-far
// instead of the last selection.
#include <cstdio>

#include "core/advanced_tuner.hpp"
#include "exp_common.hpp"
#include "graph/fusion.hpp"
#include "graph/models.hpp"
#include "support/string_util.hpp"

namespace {

using namespace aal;
using namespace aal::bench;

double run_variant(const Workload& w, const TargetSpec& spec,
                   const BaoParams& bao, std::uint64_t salt) {
  TuneOptions options;
  options.budget = std::min<std::int64_t>(budget(), 512);
  options.early_stopping = 0;
  const TunerFactory factory = [&](TransferContext*) {
    return std::make_unique<AdvancedActiveLearningTuner>(BtedParams{}, bao);
  };
  return run_task(w, spec, factory, options, trials(), salt).mean_true_gflops;
}

}  // namespace

int main() {
  set_log_threshold(LogLevel::kWarn);
  banner("Ablation: adaptive neighborhood", "R / tau / Eq.(1) variants");

  const TargetSpec spec = make_target("gpu-pascal");
  const auto tasks = extract_tasks(fuse(make_mobilenet_v1()));
  const Workload w = tasks[2].workload;  // pointwise conv, 5.9x10^7 points
  std::printf("task: %s\n\n", w.brief().c_str());

  TextTable table;
  table.set_header({"variant", "true best GFLOPS"});
  std::uint64_t salt = 1;

  for (double radius : {1.5, 3.0, 6.0}) {
    BaoParams bao;
    bao.radius = radius;
    table.add_row({"R = " + format_double(radius, 1),
                   format_double(run_variant(w, spec, bao, salt++), 1)});
  }
  table.add_separator();
  {
    BaoParams bao;
    bao.metric = BaoMetric::kChoice;
    table.add_row({"R in choice-index space (ablation)",
                   format_double(run_variant(w, spec, bao, salt++), 1)});
  }
  {
    BaoParams bao;
    bao.compound_radius = true;
    table.add_row({"compounding radius growth",
                   format_double(run_variant(w, spec, bao, salt++), 1)});
  }
  table.add_separator();
  for (double tau : {1.001, 1.5, 3.0}) {
    BaoParams bao;
    bao.tau = tau;
    const std::string label =
        tau < 1.01 ? "tau ~= 1 (adaptivity off)" : "tau = " + format_double(tau, 1);
    table.add_row({label, format_double(run_variant(w, spec, bao, salt++), 1)});
  }
  table.add_separator();
  {
    BaoParams bao;
    bao.literal_ceil = false;
    table.add_row({"Eq.(1) raw ratio (no ceil)",
                   format_double(run_variant(w, spec, bao, salt++), 1)});
  }
  {
    BaoParams bao;
    bao.recentre_on_best = true;
    table.add_row({"re-centre on best-so-far",
                   format_double(run_variant(w, spec, bao, salt++), 1)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nPaper setting: R=3, tau=1.5, eta=0.05 with the printed ceil "
              "(which makes the\ntrigger fire exactly when the last step "
              "regressed).\n");
  return 0;
}
