// Cross-run transfer harness: cold-vs-warm tuning over a shared store
// ("aaltune-bench/v1" JSON, suite "transfer" — see docs/PERF.md).
//
// The flow mirrors the fleet workflow the transfer layer exists for: one
// run tunes model A against a store, a later run tunes model B (same
// operator kinds, different shapes, so B's task keys are absent from the
// store) with --transfer. Beyond timing, every warm pass is a correctness
// audit: the harness fails hard unless the warm run activated a prior for
// every task AND measured at most half the configurations of the cold run
// — the same pin tests/integration/test_transfer.cpp enforces — so the
// checked-in BENCH_transfer.json baseline doubles as a transfer-quality
// record.
//
// Entries:
//   transfer_cold_tune   model B, no store, full-width initialization
//   transfer_warm_tune   model B over model A's store with transfer on
//                        (baseline = the cold median, so speedup is the
//                        end-to-end warm-start win)
//   transfer_prior_build prior assembly alone: index + embed + rank +
//                        seed-mapping + meta fit for one task
//
// Usage: transfer_warm [--repeats N] [--scale full|smoke] [--out FILE].
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_harness.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "pipeline/model_tuner.hpp"
#include "store/record_store.hpp"
#include "support/logging.hpp"
#include "support/stats.hpp"
#include "transfer/transfer_prior.hpp"

namespace {

using namespace aal;
using bench::BenchEntry;
namespace fs = std::filesystem;

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "transfer_warm: FAILED: %s\n", what.c_str());
  std::exit(1);
}

/// Model A — the fleet's history donor: conv + depthwise + dense.
Graph model_a() {
  Graph g("bench_cnn_a");
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

/// Model B — same kinds, shifted shapes: its task keys are absent from
/// A's store, so every saving is cross-task transfer, not record replay.
Graph model_b() {
  Graph g("bench_cnn_b");
  NodeId x = g.add_input("data", {Shape{1, 8, 16, 16}, DType::kFloat32});
  x = g.conv2d("conv1", x, 24, 3, 1, 1);
  x = g.relu("conv1_relu", x);
  x = g.depthwise_conv2d("dw1", x, 3, 1, 1);
  x = g.relu("dw1_relu", x);
  x = g.max_pool2d("pool", x, 2, 2);
  x = g.flatten("flatten", x);
  x = g.dense("fc", x, 16);
  g.softmax("prob", x);
  g.validate();
  return g;
}

struct TuneShape {
  std::int64_t budget = 80;
  std::int64_t early_stop = 12;
  int num_initial = 48;  // the breadth the prior replaces with history
  int batch_size = 8;
};

ModelTuneOptions make_options(const TuneShape& shape) {
  ModelTuneOptions o;
  o.tune.budget = shape.budget;
  o.tune.early_stopping = shape.early_stop;
  o.tune.num_initial = shape.num_initial;
  o.tune.batch_size = shape.batch_size;
  return o;
}

struct TimedTune {
  double ms = 0.0;
  std::int64_t measured = 0;
};

TimedTune timed_tune(const Graph& g, const TuneShape& shape,
                     RecordStore* store, bool transfer) {
  MetricsRegistry metrics;
  ModelTuneOptions options = make_options(shape);
  options.store = store;
  options.metrics = &metrics;
  options.transfer.enabled = transfer;
  const auto t0 = std::chrono::steady_clock::now();
  const ModelTuneReport report =
      tune_model(g, make_target("gpu-pascal"), bted_bao_tuner_factory(),
                 options);
  const auto t1 = std::chrono::steady_clock::now();
  if (transfer) {
    const std::int64_t tasks = static_cast<std::int64_t>(report.tasks.size());
    if (metrics.counter("transfer.activations").value() != tasks) {
      fail("warm run activated a prior for " +
           std::to_string(metrics.counter("transfer.activations").value()) +
           " of " + std::to_string(tasks) + " tasks");
    }
    if (metrics.counter("store.hits").value() != 0) {
      fail("model B's tasks were preloaded from the store — the harness "
           "is measuring record replay, not transfer");
    }
  }
  for (const TaskTuneReport& t : report.tasks) {
    if (!t.result.best.has_value()) fail("no best config for " + t.task_key);
  }
  return {std::chrono::duration<double, std::milli>(t1 - t0).count(),
          metrics.counter("measure.configs_measured").value()};
}

double timed_prior_build(const RecordStore& store) {
  Conv2dWorkload w;
  w.batch = 1;
  w.in_channels = 8;
  w.height = 16;
  w.width = 16;
  w.out_channels = 24;
  w.kernel_h = 3;
  w.kernel_w = 3;
  w.pad_h = 1;
  w.pad_w = 1;
  const TuningTask task(Workload::conv2d(w), make_target("gpu-pascal"));
  TransferParams params;
  params.enabled = true;
  const auto t0 = std::chrono::steady_clock::now();
  const TransferPrior prior =
      build_transfer_prior(task, store, params, /*seed=*/1, Obs{});
  const auto t1 = std::chrono::steady_clock::now();
  if (!prior.active()) fail("prior_build produced an inactive prior");
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
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
        std::fprintf(stderr, "transfer_warm: %s needs a value\n", arg.c_str());
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
                   "usage: transfer_warm [--repeats N] [--scale full|smoke] "
                   "[--out FILE]\n");
      return 2;
    }
  }
  if ((scale != "full" && scale != "smoke") || repeats < 1) {
    std::fprintf(stderr, "transfer_warm: bad --scale or --repeats\n");
    return 2;
  }
  const bool smoke = scale == "smoke";

  TuneShape shape;
  shape.budget = smoke ? 80 : 160;
  shape.num_initial = smoke ? 48 : 64;  // full scale = the paper's m = 64

  const fs::path dir =
      fs::temp_directory_path() /
      ("aal_transfer_warm_" + std::to_string(static_cast<long long>(
                                  ::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);

  // One untimed donor run of model A fills the store every warm pass reads.
  const std::string store_dir = (dir / "store").string();
  {
    RecordStore store(store_dir);
    (void)timed_tune(model_a(), shape, &store, /*transfer=*/false);
    if (store.size() == 0) fail("donor run left the store empty");
  }

  const Graph b = model_b();
  const auto tune_params = [&](long long extra_warm) {
    std::vector<std::pair<std::string, long long>> params = {
        {"tasks", 3},
        {"budget", shape.budget},
        {"num_initial", shape.num_initial}};
    if (extra_warm >= 0) params.push_back({"warm_initial", extra_warm});
    return params;
  };

  std::vector<BenchEntry> entries;
  std::vector<double> cold_ms, warm_ms;
  std::int64_t cold_measured = 0, warm_measured = 0;
  for (int r = 0; r < repeats; ++r) {
    const TimedTune cold = timed_tune(b, shape, nullptr, /*transfer=*/false);
    cold_ms.push_back(cold.ms);
    cold_measured = cold.measured;  // deterministic: identical every repeat
  }
  for (int r = 0; r < repeats; ++r) {
    RecordStore store(store_dir, {.read_only = true});
    const TimedTune warm = timed_tune(b, shape, &store, /*transfer=*/true);
    warm_ms.push_back(warm.ms);
    warm_measured = warm.measured;
  }
  // The pin (same as tests/integration/test_transfer.cpp): the warm run
  // measures at most half the configurations of the cold run.
  if (warm_measured <= 0 || warm_measured * 2 > cold_measured) {
    fail("measured-config reduction below 2x: warm=" +
         std::to_string(warm_measured) +
         " cold=" + std::to_string(cold_measured));
  }
  std::fprintf(stderr, "transfer_warm: measured configs cold=%lld warm=%lld\n",
               static_cast<long long>(cold_measured),
               static_cast<long long>(warm_measured));

  const double cold_median = median(std::move(cold_ms));
  entries.push_back({"transfer_cold_tune", tune_params(-1), cold_median});
  entries.push_back({"transfer_warm_tune",
                     tune_params(TransferParams{}.warm_num_initial),
                     median(std::move(warm_ms)), cold_median});
  {
    RecordStore store(store_dir, {.read_only = true});
    std::vector<double> build_ms;
    for (int r = 0; r < repeats; ++r) {
      build_ms.push_back(timed_prior_build(store));
    }
    entries.push_back(
        {"transfer_prior_build",
         {{"store_records", static_cast<long long>(store.size())}},
         median(std::move(build_ms))});
  }

  const int rc =
      bench::write_json(out_path, "transfer", scale, repeats, entries);
  fs::remove_all(dir);
  return rc;
}
