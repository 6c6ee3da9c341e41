// Ablation: reduced-precision deployment. Tunes the same layer in fp32,
// fp16 and int8 on two GPUs. Lower precision shrinks memory traffic on
// every part and adds arithmetic rate where the hardware has it (Pascal:
// 4x dp4a int8, no fp16 speedup; Volta: 2x fp16) — the tuners adapt
// schedules without any precision-specific logic.
#include <cstdio>

#include "exp_common.hpp"
#include "graph/fusion.hpp"
#include "graph/models.hpp"
#include "support/string_util.hpp"

int main() {
  using namespace aal;
  using namespace aal::bench;
  set_log_threshold(LogLevel::kWarn);
  banner("Ablation: precision", "fp32 / fp16 / int8 deployments");

  const auto tasks = extract_tasks(fuse(make_mobilenet_v1()));
  Conv2dWorkload conv = tasks[2].workload.as_conv2d();  // pointwise conv

  TuneOptions options;
  options.budget = std::min<std::int64_t>(budget(), 384);
  options.early_stopping = 0;

  TextTable table;
  table.set_header({"GPU", "dtype", "best GFLOP(eq)/s", "vs fp32"});
  std::uint64_t salt = 1;
  for (const TargetSpec& gpu :
       {make_target("gpu-pascal"), make_target("gpu-volta")}) {
    double fp32_baseline = 0.0;
    for (DType dtype : {DType::kFloat32, DType::kFloat16, DType::kInt8}) {
      conv.dtype = dtype;
      const Workload w = Workload::conv2d(conv);
      const TaskOutcome outcome = run_task(
          w, gpu, bted_bao_tuner_factory(), options, trials(), salt++);
      if (dtype == DType::kFloat32) fp32_baseline = outcome.mean_true_gflops;
      table.add_row(
          {gpu.device_name, dtype_name(dtype),
           format_double(outcome.mean_true_gflops, 1),
           format_double(outcome.mean_true_gflops / fp32_baseline, 2) + "x"});
    }
    table.add_separator();
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nExpected: int8 gains most on Pascal (dp4a), fp16 gains on "
              "Volta; bandwidth-bound\nshapes gain from traffic reduction on "
              "both.\n");
  return 0;
}
