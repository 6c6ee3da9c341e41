// End-to-end model deployment: tune every MobileNet-v1 task node-wise with
// the advanced framework, then simulate the deployed model's inference
// latency — the complete Fig. 1 pipeline of the paper.
//
//   $ ./examples/tune_mobilenet [budget-per-task]
//
// Default budget is 200 configurations per task so the example finishes in
// well under a minute; raise it toward the paper's 1024 for better results.
#include <cstdio>
#include <cstdlib>

#include "graph/models.hpp"
#include "pipeline/latency.hpp"
#include "pipeline/model_tuner.hpp"
#include "support/logging.hpp"
#include "support/string_util.hpp"

int main(int argc, char** argv) {
  using namespace aal;
  set_log_threshold(LogLevel::kWarn);

  const std::int64_t budget = argc > 1 ? std::atoll(argv[1]) : 200;
  const TargetSpec gpu = make_target("gpu-pascal");
  const Graph model = make_mobilenet_v1();
  std::printf("model: %s, %zu nodes, %.2f GFLOPs per inference\n",
              model.name().c_str(), model.size(),
              static_cast<double>(model.total_flops()) / 1e9);

  ModelTuneOptions options;
  options.tune.budget = budget;
  options.tune.early_stopping = std::min<std::int64_t>(400, budget);
  std::printf("tuning every task with BTED+BAO, budget %lld configs/task\n\n",
              static_cast<long long>(budget));

  const ModelTuneReport report =
      tune_model(model, gpu, bted_bao_tuner_factory(), options);

  TextTable table;
  table.set_header({"task", "workload", "layers", "configs", "best GFLOPS"});
  for (std::size_t i = 0; i < report.tasks.size(); ++i) {
    const auto& t = report.tasks[i];
    table.add_row({std::string("T").append(std::to_string(i + 1)), t.workload.brief(),
                   std::to_string(t.group_count),
                   std::to_string(t.result.num_measured),
                   format_double(t.result.best_gflops(), 1)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("total measured configurations: %lld\n\n",
              static_cast<long long>(report.total_measured()));

  // Deploy: 600 simulated inference runs, as in the paper's protocol.
  const LatencyEvaluator evaluator(model, gpu);
  const LatencyReport untuned = evaluator.run({}, 600, 99);
  const LatencyReport tuned =
      evaluator.run(report.best_flat_by_task(), 600, 99);
  std::printf("untuned (fallback schedules): %.4f ms (variance %.4f)\n",
              untuned.mean_ms, untuned.variance);
  std::printf("tuned   (best per task):      %.4f ms (variance %.4f)\n",
              tuned.mean_ms, tuned.variance);
  std::printf("speedup: %.2fx\n", untuned.mean_ms / tuned.mean_ms);
  return 0;
}
