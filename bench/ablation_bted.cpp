// Ablation: initialization strategies. Compares random initialization
// (AutoTVM), plain TED (B = 1), BTED at several (B, M) settings, and the
// literal Euclidean-distance kernel vs the default RBF kernel — all feeding
// the same XGB tuner, so only the initial set differs.
#include <cstdio>

#include "core/bted.hpp"
#include "exp_common.hpp"
#include "graph/fusion.hpp"
#include "graph/models.hpp"
#include "support/string_util.hpp"
#include "tuner/xgb_tuner.hpp"

namespace {

using namespace aal;
using namespace aal::bench;

TunerFactory xgb_with_init(InitSampler init, const char* name) {
  return [init = std::move(init), name](TransferContext*) {
    auto tuner = std::make_unique<XgbTuner>(
        std::make_shared<GbdtSurrogateFactory>(), init);
    tuner->set_name(name);
    return tuner;
  };
}

}  // namespace

int main() {
  set_log_threshold(LogLevel::kWarn);
  banner("Ablation: BTED initialization", "random vs TED vs BTED variants");

  const TargetSpec spec = make_target("gpu-pascal");
  const auto tasks = extract_tasks(fuse(make_mobilenet_v1()));
  const Workload w = tasks[0].workload;
  std::printf("task: %s\n\n", w.brief().c_str());

  TuneOptions options;
  options.budget = std::min<std::int64_t>(budget(), 512);
  options.early_stopping = 0;

  struct Variant {
    std::string label;
    TunerFactory factory;
  };
  std::vector<Variant> variants;
  variants.push_back({"random init (AutoTVM)",
                      xgb_with_init(random_init_sampler(), "random-init")});
  {
    BtedParams p;  // plain TED over one M-sized draw
    p.num_batches = 1;
    variants.push_back({"plain TED (B=1, M=500)",
                        xgb_with_init(bted_init_sampler(p), "ted")});
  }
  for (int batches : {5, 10, 20}) {
    BtedParams p;
    p.num_batches = batches;
    variants.push_back({"BTED B=" + std::to_string(batches) + ", M=500",
                        xgb_with_init(bted_init_sampler(p), "bted")});
  }
  {
    BtedParams p;
    p.batch_sample_size = 200;
    variants.push_back({"BTED B=10, M=200",
                        xgb_with_init(bted_init_sampler(p), "bted")});
  }
  {
    BtedParams p;
    p.kernel = TedKernel::kEuclideanDistance;
    variants.push_back({"BTED, literal distance kernel",
                        xgb_with_init(bted_init_sampler(p), "bted-lit")});
  }

  TextTable table;
  table.set_header({"initialization", "true best GFLOPS", "configs"});
  std::uint64_t salt = 1;
  for (const auto& v : variants) {
    const TaskOutcome outcome =
        run_task(w, spec, v.factory, options, trials(), salt++);
    table.add_row({v.label, format_double(outcome.mean_true_gflops, 1),
                   format_double(outcome.mean_configs, 0)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nPaper setting: B=10, M=500, m=64, mu=0.1. The literal "
              "distance matrix is not\nPSD, so its deflation degenerates — "
              "see DESIGN.md for why the default is RBF.\n");
  return 0;
}
