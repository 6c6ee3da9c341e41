// Ablation: measurement-noise robustness. Each candidate measurement is the
// mean of `repeats` timed runs; fewer repeats mean noisier feedback to the
// tuner. This sweep compares AutoTVM and BTED+BAO at 1, 3 and 10 repeats —
// the bootstrap ensemble is the paper's answer to noisy evaluations, so its
// advantage should widen as repeats shrink.
#include <cstdio>

#include "core/advanced_tuner.hpp"
#include "exp_common.hpp"
#include "graph/fusion.hpp"
#include "graph/models.hpp"
#include "support/string_util.hpp"
#include "tuner/xgb_tuner.hpp"

namespace {

using namespace aal;
using namespace aal::bench;

double run_with_repeats(const Workload& w, const TargetSpec& spec,
                        const TunerFactory& factory, int repeats,
                        std::uint64_t salt) {
  TuneOptions options;
  options.budget = std::min<std::int64_t>(budget(), 512);
  options.early_stopping = 0;
  MeasureOptions measure;
  measure.repeats = repeats;
  double total = 0.0;
  for (int trial = 0; trial < trials(); ++trial) {
    TuningTask task(w, spec);
    SimulatedDevice device(spec, salt * 37 + static_cast<std::uint64_t>(trial));
    Measurer measurer(task, device, measure);
    auto tuner = factory(nullptr);
    options.seed = salt * 53 + static_cast<std::uint64_t>(trial) + 1;
    const TuneResult result = tuner->tune(measurer, options);
    if (result.best) {
      total += task.profile(result.best->config).gflops(w.flops());
    }
  }
  return total / trials();
}

}  // namespace

int main() {
  set_log_threshold(LogLevel::kWarn);
  banner("Ablation: measurement noise", "timing repeats 1 / 3 / 10");

  const TargetSpec spec = make_target("gpu-pascal");
  const auto tasks = extract_tasks(fuse(make_mobilenet_v1()));
  const Workload w = tasks[0].workload;
  std::printf("task: %s\n\n", w.brief().c_str());

  TextTable table;
  table.set_header({"repeats", "AutoTVM true GFLOPS", "BTED+BAO true GFLOPS",
                    "BAO advantage"});
  std::uint64_t salt = 1;
  for (int repeats : {1, 3, 10}) {
    const double autotvm = run_with_repeats(
        w, spec, autotvm_tuner_factory(), repeats, salt++);
    const double bao = run_with_repeats(
        w, spec, bted_bao_tuner_factory(), repeats, salt++);
    table.add_row({std::to_string(repeats), format_double(autotvm, 1),
                   format_double(bao, 1),
                   format_percent((bao - autotvm) / autotvm)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}
