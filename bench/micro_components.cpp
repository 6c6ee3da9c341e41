// Component micro-benchmarks (google-benchmark): cost of the building
// blocks that dominate tuning wall-time — feature extraction, the analytic
// kernel model, TED selection, BTED initialization, GBDT fits, bootstrap
// ensembles, SA rounds and neighborhood materialization.
#include <benchmark/benchmark.h>

#include "core/bootstrap.hpp"
#include "core/bted.hpp"
#include "core/ted.hpp"
#include "graph/fusion.hpp"
#include "graph/models.hpp"
#include "measure/tuning_task.hpp"
#include "ml/sa_optimizer.hpp"
#include "ml/surrogate.hpp"
#include "support/logging.hpp"

namespace {

using namespace aal;

const TuningTask& mobilenet_t1() {
  static const TuningTask task = [] {
    const auto tasks = extract_tasks(fuse(make_mobilenet_v1()));
    return TuningTask(tasks[0].workload, GpuSpec::gtx1080ti());
  }();
  return task;
}

Dataset measured_dataset(std::size_t rows) {
  const TuningTask& task = mobilenet_t1();
  Rng rng(42);
  Dataset data(static_cast<std::size_t>(task.space().feature_dim()));
  for (const Config& c : task.space().sample_distinct(
           static_cast<std::int64_t>(rows), rng)) {
    const KernelProfile p = task.profile(c);
    data.add_row(task.space().features(c),
                 p.valid ? p.gflops(task.workload().flops()) : 0.0);
  }
  return data;
}

void BM_FeatureExtraction(benchmark::State& state) {
  const TuningTask& task = mobilenet_t1();
  Rng rng(1);
  const Config c = task.space().sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(task.space().features(c));
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_KernelModelProfile(benchmark::State& state) {
  const TuningTask& task = mobilenet_t1();
  Rng rng(2);
  const Config c = task.space().sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(task.profile(c));
  }
}
BENCHMARK(BM_KernelModelProfile);

void BM_ConfigDecode(benchmark::State& state) {
  const TuningTask& task = mobilenet_t1();
  std::int64_t flat = 12345;
  for (auto _ : state) {
    benchmark::DoNotOptimize(task.space().at(flat));
    flat = (flat * 2654435761LL + 1) % task.space().size();
  }
}
BENCHMARK(BM_ConfigDecode);

void BM_TedSelect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const TuningTask& task = mobilenet_t1();
  Rng rng(3);
  std::vector<std::vector<double>> features;
  for (const Config& c :
       task.space().sample_distinct(static_cast<std::int64_t>(n), rng)) {
    features.push_back(task.space().features(c));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ted_select(features, 64));
  }
}
BENCHMARK(BM_TedSelect)->Arg(100)->Arg(500);

void BM_BtedSample(benchmark::State& state) {
  const TuningTask& task = mobilenet_t1();
  Rng rng(4);
  BtedParams params;  // paper defaults: B=10, M=500, m=64
  for (auto _ : state) {
    benchmark::DoNotOptimize(bted_sample(task, params, rng));
  }
}
BENCHMARK(BM_BtedSample)->Unit(benchmark::kMillisecond);

void BM_GbdtFit(benchmark::State& state) {
  const Dataset data = measured_dataset(static_cast<std::size_t>(state.range(0)));
  GbdtParams params;
  for (auto _ : state) {
    Gbdt model;
    model.fit(data, params);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_GbdtFit)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_BootstrapEnsemble(benchmark::State& state) {
  const Dataset data = measured_dataset(400);
  const GbdtSurrogateFactory factory;
  Rng rng(5);
  for (auto _ : state) {
    const BootstrapEnsemble ensemble(data, factory, 2, rng);
    benchmark::DoNotOptimize(&ensemble);
  }
}
BENCHMARK(BM_BootstrapEnsemble)->Unit(benchmark::kMillisecond);

void BM_SaMaximize(benchmark::State& state) {
  const TuningTask& task = mobilenet_t1();
  const Dataset data = measured_dataset(256);
  GbdtSurrogate model{GbdtParams{}};
  model.fit(data);
  SaParams params;
  const SaOptimizer sa(task.space(), params);
  Rng rng(6);
  const auto score = [&](const Config& c) {
    return model.predict(task.space().features(c));
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(sa.maximize(score, 64, rng));
  }
}
BENCHMARK(BM_SaMaximize)->Unit(benchmark::kMillisecond);

/// BAO's candidate scope C_t under its default (feature-space) metric.
void BM_Neighborhood(benchmark::State& state) {
  const TuningTask& task = mobilenet_t1();
  Rng rng(7);
  const Config center = task.space().sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        task.space().feature_neighborhood(center, 3.0, 512, rng));
  }
}
BENCHMARK(BM_Neighborhood);

void BM_SimulatedMeasurement(benchmark::State& state) {
  const TuningTask& task = mobilenet_t1();
  SimulatedDevice device(GpuSpec::gtx1080ti(), 8);
  Rng rng(8);
  const Config c = task.space().sample(rng);
  const KernelProfile profile = task.profile(c);
  if (!profile.valid) {
    state.SkipWithError("sampled config not valid");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        device.run(profile, task.workload().flops(), 3, c.flat));
  }
}
BENCHMARK(BM_SimulatedMeasurement);

}  // namespace

int main(int argc, char** argv) {
  aal::set_log_threshold(aal::LogLevel::kWarn);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
