// Tuning logs and transfer learning: tune a few ResNet-18 tasks with
// AutoTVM-style transfer across tasks, persist the tuning records to a log
// file (AutoTVM's workflow), reload them, and redeploy the model from the
// log alone — no retuning.
//
//   $ ./examples/records_and_transfer [budget-per-task]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "graph/models.hpp"
#include "measure/record.hpp"
#include "pipeline/latency.hpp"
#include "pipeline/model_tuner.hpp"
#include "support/logging.hpp"

int main(int argc, char** argv) {
  using namespace aal;
  set_log_threshold(LogLevel::kWarn);

  const std::int64_t budget = argc > 1 ? std::atoll(argv[1]) : 150;
  const TargetSpec gpu = make_target("gpu-pascal");
  const Graph model = make_resnet18();

  // 1. Tune with the AutoTVM arm; the transfer context warm-starts each
  //    task's cost model with the previous tasks' measurements.
  ModelTuneOptions options;
  options.tune.budget = budget;
  options.tune.early_stopping = 0;
  options.use_transfer = true;
  std::printf("tuning %s (%lld configs/task, transfer learning on)...\n",
              model.name().c_str(), static_cast<long long>(budget));
  const ModelTuneReport report =
      tune_model(model, gpu, autotvm_tuner_factory(), options);

  // 2. Persist every measurement to a log file.
  RecordDatabase db;
  for (const auto& task : report.tasks) {
    for (const auto& point : task.result.history) {
      TuningRecord r;
      r.task_key = task.task_key;
      r.config_flat = point.flat;
      r.ok = point.ok;
      r.gflops = point.gflops;
      db.add(r);
    }
  }
  const std::string log_path =
      (std::filesystem::temp_directory_path() / "resnet18_tuning.log").string();
  db.save_file(log_path);
  std::printf("wrote %zu records (%zu tasks) to %s\n", db.size(),
              db.task_keys().size(), log_path.c_str());

  // 3. A fresh process would reload the log and deploy the best configs.
  RecordDatabase reloaded;
  reloaded.load_file(log_path);
  std::unordered_map<std::string, std::int64_t> best_by_task;
  for (const auto& key : reloaded.task_keys()) {
    if (const auto best = reloaded.best_for(key)) {
      best_by_task.emplace(key, best->config_flat);
    }
  }

  const LatencyEvaluator evaluator(model, gpu);
  const LatencyReport untuned = evaluator.run({}, 600, 1);
  const LatencyReport tuned = evaluator.run(best_by_task, 600, 1);
  std::printf("\ninference over 600 runs:\n");
  std::printf("  fallback schedules: %.4f ms (variance %.4f)\n",
              untuned.mean_ms, untuned.variance);
  std::printf("  from tuning log:    %.4f ms (variance %.4f)\n",
              tuned.mean_ms, tuned.variance);
  std::printf("  speedup: %.2fx\n", untuned.mean_ms / tuned.mean_ms);
  return 0;
}
