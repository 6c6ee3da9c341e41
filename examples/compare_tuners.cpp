// Tuner shoot-out on one layer: random, GA, AutoTVM (XGB+SA), BTED
// and BTED+BAO share the same budget and measurement-noise stream, then
// report measured best, true (noise-free) best and budget spent.
//
//   $ ./examples/compare_tuners [budget]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/advanced_tuner.hpp"
#include "core/bted.hpp"
#include "graph/fusion.hpp"
#include "graph/models.hpp"
#include "hwsim/target.hpp"
#include "pipeline/model_tuner.hpp"
#include "support/logging.hpp"
#include "support/string_util.hpp"
#include "tuner/ga_tuner.hpp"
#include "tuner/random_tuner.hpp"
#include "tuner/xgb_tuner.hpp"

int main(int argc, char** argv) {
  using namespace aal;
  set_log_threshold(LogLevel::kWarn);

  const std::int64_t budget = argc > 1 ? std::atoll(argv[1]) : 400;

  // The layer: VGG-16's conv3-256 (a mid-size, compute-bound kernel).
  const auto tasks = extract_tasks(fuse(make_vgg16()));
  Workload workload = tasks[4].workload;
  const TargetSpec target = make_target("gpu-pascal");
  std::printf("layer: %s\n", workload.brief().c_str());
  std::printf("budget: %lld configurations, early stopping disabled\n\n",
              static_cast<long long>(budget));

  struct Arm {
    const char* label;
    std::unique_ptr<Tuner> tuner;
  };
  Arm arms[5];
  arms[0] = {"random", std::make_unique<RandomTuner>()};
  arms[1] = {"ga", std::make_unique<GaTuner>()};
  arms[2] = {"autotvm (xgb+sa)", std::make_unique<XgbTuner>()};
  {
    auto bted = std::make_unique<XgbTuner>(
        std::make_shared<GbdtSurrogateFactory>(), bted_init_sampler());
    bted->set_name("bted");
    arms[3] = {"bted init + xgb", std::move(bted)};
  }
  arms[4] = {"bted + bao", std::make_unique<AdvancedActiveLearningTuner>()};

  TextTable table;
  table.set_header(
      {"tuner", "configs", "measured best", "true best", "% of peak"});
  for (Arm& arm : arms) {
    TuningTask task(workload, target);
    // Same noise stream per arm.
    SimulatedDevice device(target, /*seed=*/31337);
    Measurer measurer(task, device);
    TuneOptions options;
    options.budget = budget;
    options.early_stopping = 0;
    options.seed = 5;
    const TuneResult result = arm.tuner->tune(measurer, options);
    const double true_gflops =
        result.best
            ? task.profile(result.best->config).gflops(workload.flops())
            : 0.0;
    table.add_row({arm.label, std::to_string(result.num_measured),
                   format_double(result.best_gflops(), 1),
                   format_double(true_gflops, 1),
                   format_double(
                       100.0 * true_gflops / target.peak_gflops(), 1)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}
