// Kernel-layer benchmark harness: baseline-vs-optimized wall-clock for the
// dense primitives (support/dense.hpp) and the tuner stages rebuilt on top
// of them (TED selection, bootstrap rounds, BTED initialization, BAO's
// feature-space neighbourhood).
//
// Unlike bench/micro_components.cpp (google-benchmark, human-readable),
// this harness emits machine-readable JSON ("aaltune-bench/v1", see
// docs/PERF.md) so CI can validate the schema and the checked-in
// BENCH_kernels.json / BENCH_tuner.json stay diffable. Each entry reports
// the median of --repeats runs; "baseline" entries re-run the pre-kernel-
// layer scalar implementations kept verbatim in
// tests/reference/reference_impls.hpp (the equivalence tests' oracles), so
// the comparison survives future rewrites of the library code.
//
// Usage: micro_kernels --suite kernels|tuner [--repeats N] [--scale
// full|smoke] [--target NAME] [--out FILE]. --scale smoke shrinks every
// problem so the CI bench-smoke job finishes in seconds; checked-in numbers
// use full scale. --target picks the deployment target the tuner suite's
// task binds to (default gpu-pascal); the per-target profile_batch:<name>
// entries always cover every registered target, so each backend's device
// model has a checked-in baseline entry.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_harness.hpp"
#include "core/advanced_tuner.hpp"
#include "core/bootstrap.hpp"
#include "core/bted.hpp"
#include "core/ted.hpp"
#include "graph/fusion.hpp"
#include "graph/models.hpp"
#include "hwsim/target.hpp"
#include "measure/tuning_task.hpp"
#include "ml/gbdt.hpp"
#include "ml/sa_optimizer.hpp"
#include "ml/surrogate.hpp"
#include "pipeline/model_tuner.hpp"
#include "reference/reference_impls.hpp"
#include "support/dense.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace aal;
using bench::BenchEntry;

// ---------------------------------------------------------------------------
// Timing

/// Median over `repeats` timed runs of `iters` back-to-back calls each
/// (iters > 1 amortizes clock granularity for sub-millisecond kernels).
double time_median_ms(int repeats, int iters, const std::function<void()>& fn) {
  fn();  // warm-up: page in code and data before the first sample
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count() /
                      iters);
  }
  return median(std::move(samples));
}

/// Medians of `fn` and `baseline`, timed in alternation, one call per
/// sample. For rows that fan out over the shared pool: the scheduler
/// spreads a new process's threads over the CPUs only after a while, so
/// timing one side entirely before the other can charge that start-up to
/// whichever side runs first.
std::pair<double, double> time_alternating_ms(
    int repeats, const std::function<void()>& fn,
    const std::function<void()>& baseline) {
  fn();
  baseline();
  std::vector<double> a, b;
  for (int r = 0; r < repeats; ++r) {
    for (auto [f, out] : {std::pair{&fn, &a}, std::pair{&baseline, &b}}) {
      const auto t0 = std::chrono::steady_clock::now();
      (*f)();
      const auto t1 = std::chrono::steady_clock::now();
      out->push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  return {median(std::move(a)), median(std::move(b))};
}

/// Defeat dead-code elimination without google-benchmark.
volatile double g_sink = 0.0;
void sink(double v) { g_sink = g_sink + v; }

/// Keeps every hand of the shared pool busy for `seconds`. The VM's
/// scheduler spreads a fresh process's threads over the CPUs only after a
/// few hundred ms of load, so pooled rows timed before that read as if
/// the pool had one hand.
void warm_pool(double seconds) {
  ThreadPool& pool = ThreadPool::shared();
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  pool.parallel_for(pool.size(), [&](std::size_t i) {
    double x = static_cast<double>(i);
    while (std::chrono::steady_clock::now() < until) {
      for (int k = 0; k < 1000; ++k) x = x * 1.0000001 + 1e-9;
    }
    sink(x);
  });
}


// ---------------------------------------------------------------------------
// Inputs

dense::Matrix random_matrix(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  dense::Matrix x(n, d);
  for (double& v : x.data) v = rng.next_double(-1.0, 1.0);
  return x;
}

std::vector<std::vector<double>> to_rows(const dense::Matrix& x) {
  std::vector<std::vector<double>> rows(x.rows, std::vector<double>(x.cols));
  for (std::size_t r = 0; r < x.rows; ++r) {
    std::copy(x.row(r), x.row(r) + x.cols, rows[r].begin());
  }
  return rows;
}

const Workload& mobilenet_t1_workload() {
  static const Workload workload =
      extract_tasks(fuse(make_mobilenet_v1()))[0].workload;
  return workload;
}

TuningTask mobilenet_t1(const std::string& target) {
  return TuningTask(mobilenet_t1_workload(), make_target(target));
}

Dataset measured_dataset(const TuningTask& task, std::size_t rows) {
  Rng rng(42);
  Dataset data(static_cast<std::size_t>(task.space().feature_dim()));
  for (const Config& c :
       task.space().sample_distinct(static_cast<std::int64_t>(rows), rng)) {
    const KernelProfile p = task.profile(c);
    data.add_row(task.space().features(c),
                 p.valid ? p.gflops(task.workload().flops()) : 0.0);
  }
  return data;
}

// ---------------------------------------------------------------------------
// Suites

std::vector<BenchEntry> run_kernels_suite(int repeats, bool smoke) {
  std::vector<BenchEntry> out;

  {  // Pairwise squared distance: Gram-identity build vs per-pair loops.
    const std::size_t n = smoke ? 64 : 1024, d = 16;
    const dense::Matrix x = random_matrix(n, d, 12);
    std::vector<double> sq(n * n);
    BenchEntry e{"pairwise_sq_dist",
                 {{"n", static_cast<long long>(n)},
                  {"d", static_cast<long long>(d)}}};
    e.median_ms = time_median_ms(repeats, smoke ? 8 : 2, [&] {
      dense::pairwise_sq_dist(x, sq.data());
      sink(sq[1]);
    });
    e.baseline_median_ms = time_median_ms(repeats, smoke ? 8 : 2, [&] {
      reference::pairwise_sq_dist_naive(x, sq);
      sink(sq[1]);
    });
    out.push_back(std::move(e));
  }

  {  // Column standardization: one Welford pass vs two-pass. Both branches
     // copy the input first (the op mutates), so the copy cost cancels.
    const std::size_t n = smoke ? 128 : 2000, d = 16;
    const dense::Matrix x = random_matrix(n, d, 13);
    dense::Matrix scratch;
    BenchEntry e{"standardize_columns",
                 {{"n", static_cast<long long>(n)},
                  {"d", static_cast<long long>(d)}}};
    e.median_ms = time_median_ms(repeats, smoke ? 50 : 100, [&] {
      scratch = x;
      dense::standardize_columns(scratch);
      sink(scratch.at(0, 0));
    });
    e.baseline_median_ms = time_median_ms(repeats, smoke ? 50 : 100, [&] {
      scratch = x;
      reference::two_pass_standardize(scratch);
      sink(scratch.at(0, 0));
    });
    out.push_back(std::move(e));
  }

  {  // TED at BTED's shapes (batches of 500, a final union of ~640; d = 20,
     // m = 64), split in two. Kernel build: the register-blocked pairwise
     // loop, radix-select median and tiled transform vs the verbatim
     // pre-change build (bitwise-equal output, checked first). Selection,
     // on the same kernel: the read-only lazy deflation ted_select runs for
     // the RBF kernel vs the materialized deflation (equal picks, checked
     // first). Both sides copy K, since the materialized path writes it.
    struct Shape {
      std::size_t n, d, m;
      int iters;
    };
    const std::vector<Shape> shapes =
        smoke ? std::vector<Shape>{{96, 20, 16, 4}, {128, 20, 16, 4}}
              : std::vector<Shape>{{500, 20, 64, 3}, {640, 20, 64, 2}};
    const TedParams params;
    for (const Shape& s : shapes) {
      dense::Matrix x = random_matrix(s.n, s.d, 15);
      dense::standardize_columns(x);
      const auto build_kernel = [&] {
        std::vector<double> k(s.n * s.n);
        ted_detail::build_kernel(x, params, k.data());
        return k;
      };
      const std::vector<double> k = build_kernel();
      AAL_CHECK(k == reference::build_ted_kernel(x, params),
                "TED kernel build diverged from the reference build");
      {
        std::vector<double> scratch = k;
        AAL_CHECK(ted_detail::select_lazy(k, s.n, s.m, params.mu) ==
                      ted_detail::select_materialized(scratch, s.n, s.m,
                                                      params.mu),
                  "lazy and materialized TED picked differently");
      }
      const std::vector<std::pair<std::string, long long>> shape_params{
          {"n", static_cast<long long>(s.n)},
          {"d", static_cast<long long>(s.d)},
          {"m", static_cast<long long>(s.m)}};
      BenchEntry build{"ted_kernel_build", shape_params};
      build.median_ms = time_median_ms(repeats, s.iters, [&] {
        sink(build_kernel()[1]);
      });
      build.baseline_median_ms = time_median_ms(repeats, s.iters, [&] {
        sink(reference::build_ted_kernel(x, params)[1]);
      });
      out.push_back(std::move(build));
      BenchEntry select{"ted_selection", shape_params};
      std::vector<double> scratch;
      select.median_ms = time_median_ms(repeats, s.iters, [&] {
        scratch = k;
        sink(static_cast<double>(
            ted_detail::select_lazy(scratch, s.n, s.m, params.mu)[0]));
      });
      select.baseline_median_ms = time_median_ms(repeats, s.iters, [&] {
        scratch = k;
        sink(static_cast<double>(
            ted_detail::select_materialized(scratch, s.n, s.m, params.mu)[0]));
      });
      out.push_back(std::move(select));
    }
  }

  {  // TED selection end to end: the library path vs the pre-kernel-layer
     // scalar TED, identical picks.
    struct Shape {
      std::size_t n, d, m;
      int iters;
    };
    const std::vector<Shape> shapes =
        smoke ? std::vector<Shape>{{128, 16, 8, 2}, {160, 16, 16, 2}}
              : std::vector<Shape>{{2000, 16, 16, 1},
                                   {2000, 16, 64, 1},
                                   {500, 16, 64, 3}};
    for (const Shape& s : shapes) {
      const dense::Matrix x = random_matrix(s.n, s.d, 14);
      const auto rows = to_rows(x);
      BenchEntry e{"ted_select",
                   {{"n", static_cast<long long>(s.n)},
                    {"d", static_cast<long long>(s.d)},
                    {"m", static_cast<long long>(s.m)}}};
      e.median_ms = time_median_ms(repeats, s.iters, [&] {
        sink(static_cast<double>(ted_select(x, s.m)[0]));
      });
      e.baseline_median_ms = time_median_ms(repeats, s.iters, [&] {
        sink(static_cast<double>(reference::ted_select(rows, s.m)[0]));
      });
      out.push_back(std::move(e));
    }
  }

  return out;
}

std::vector<BenchEntry> run_tuner_suite(int repeats, bool smoke,
                                        const std::string& target) {
  std::vector<BenchEntry> out;
  const TuningTask task = mobilenet_t1(target);
  const Dataset data = measured_dataset(task, smoke ? 48 : 256);
  const GbdtSurrogateFactory factory;

  // Candidate feature batch for the scoring half of a BS round.
  const std::size_t num_candidates = smoke ? 64 : 512;
  dense::Matrix batch;
  {
    Rng rng(21);
    const auto candidates = task.space().sample_distinct(
        static_cast<std::int64_t>(num_candidates), rng);
    std::vector<std::vector<double>> rows;
    rows.reserve(candidates.size());
    for (const Config& c : candidates) rows.push_back(task.space().features(c));
    batch = dense::from_rows(rows);
  }

  // One BS round = fit the Gamma-model ensemble, then score the candidate
  // scope. Baseline: serial fits + per-candidate score(); optimized:
  // pool-parallel fits + batched score_all() through the flattened engine.
  // The fit half is bitwise-pinned by the golden traces (docs/PERF.md), so
  // on a single-core host only the scoring half can speed up — the entry's
  // headroom floor; gbt_predict_batch below isolates the engine itself.
  // The fits fan out over the shared pool: spin it first and alternate
  // the sides, so neither is charged the pool's start-up.
  warm_pool(smoke ? 0.1 : 1.0);
  for (const int gamma : smoke ? std::vector<int>{2, 3}
                               : std::vector<int>{5, 20}) {
    BenchEntry e{"bs_round",
                 {{"gamma", gamma},
                  {"rows", static_cast<long long>(data.num_rows())},
                  {"candidates", static_cast<long long>(batch.rows)}}};
    std::tie(e.median_ms, e.baseline_median_ms) = time_alternating_ms(
        repeats,
        [&] {
          Rng rng(31);
          const BootstrapEnsemble ensemble(data, factory, gamma, rng);
          const std::vector<double> scores = ensemble.score_all(batch);
          sink(scores[0]);
        },
        [&] {
          Rng rng(31);
          const auto models =
              reference::bootstrap_fit(data, factory, gamma, rng);
          double acc = 0.0;
          for (std::size_t i = 0; i < batch.rows; ++i) {
            acc += reference::bootstrap_score(
                models, std::span<const double>{batch.row(i), batch.cols});
          }
          sink(acc);
        });
    out.push_back(std::move(e));
  }

  // The scoring engine in isolation: one GBDT predicting the whole
  // candidate block. Optimized: the flattened level-order batch walk;
  // baseline: the per-tree per-row walk every call site used before the
  // engine existed. Two ensemble shapes — the surrogate default and a
  // smaller/shallower forest — so both cache regimes are covered.
  {
    struct ForestShape {
      int trees, depth;
    };
    for (const ForestShape shape : {ForestShape{60, 5}, ForestShape{32, 4}}) {
      GbdtParams params;
      params.num_trees = shape.trees;
      params.max_depth = shape.depth;
      Gbdt model;
      model.fit(data, params);
      const std::span<const double> all{batch.data.data(),
                                        batch.rows * batch.cols};
      std::vector<double> scores(batch.rows);
      BenchEntry e{"gbt_predict_batch",
                   {{"trees", shape.trees},
                    {"depth", shape.depth},
                    {"rows", static_cast<long long>(batch.rows)}}};
      e.median_ms = time_median_ms(repeats, smoke ? 40 : 20, [&] {
        model.predict_batch(all, batch.rows, scores);
        sink(scores[0]);
      });
      e.baseline_median_ms = time_median_ms(repeats, smoke ? 40 : 20, [&] {
        double acc = 0.0;
        for (std::size_t i = 0; i < batch.rows; ++i) {
          acc += reference::per_tree_sum(
              model, std::span<const double>{batch.row(i), batch.cols});
        }
        sink(acc);
      });
      out.push_back(std::move(e));
    }
  }

  {  // Single-row scoring, SA's access pattern: the default 60-tree depth-5
     // surrogate scoring the candidate block one row at a time. Optimized:
     // Gbdt::predict's tree-lockstep walk; baseline: the per-tree walk
     // Gbdt::predict used before it. Bitwise equality is checked first.
    GbdtParams params;
    Gbdt model;
    model.fit(data, params);
    for (std::size_t i = 0; i < batch.rows; ++i) {
      const std::span<const double> row{batch.row(i), batch.cols};
      AAL_CHECK(std::bit_cast<std::uint64_t>(model.predict(row)) ==
                    std::bit_cast<std::uint64_t>(
                        reference::per_tree_sum(model, row)),
                "lockstep predict diverged from the per-tree walk");
    }
    BenchEntry e{"gbt_predict_row",
                 {{"trees", params.num_trees},
                  {"depth", params.max_depth},
                  {"rows", static_cast<long long>(batch.rows)}}};
    e.median_ms = time_median_ms(repeats, smoke ? 40 : 20, [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < batch.rows; ++i) {
        acc += model.predict(std::span<const double>{batch.row(i), batch.cols});
      }
      sink(acc);
    });
    e.baseline_median_ms = time_median_ms(repeats, smoke ? 40 : 20, [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < batch.rows; ++i) {
        acc += reference::per_tree_sum(
            model, std::span<const double>{batch.row(i), batch.cols});
      }
      sink(acc);
    });
    out.push_back(std::move(e));
  }

  {  // One SA acquisition per mobilenet_v1 space, as the AutoTVM tuner runs
     // it: a default GBDT fitted on the space, a score memoized by flat
     // index, 64 chains x 120 steps, top-64 over an exclude set of the
     // fitted rows. Optimized: SaOptimizer::maximize scoring through the
     // lockstep walk; baseline: the verbatim pre-change maximize scoring
     // through the per-tree walk. Outputs, RNG state and score-call counts
     // must agree before anything is timed.
    struct SaCase {
      TuningTask task;
      Gbdt model;
      std::unordered_set<std::int64_t> exclude;
    };
    std::vector<SaCase> cases;
    for (const auto& t : extract_tasks(fuse(make_mobilenet_v1()))) {
      if (cases.size() == (smoke ? 2u : 5u)) break;
      TuningTask task(t.workload, make_target(target));
      Rng rng(81 + cases.size());
      Dataset fit_rows(static_cast<std::size_t>(task.space().feature_dim()));
      std::unordered_set<std::int64_t> exclude;
      for (const Config& c :
           task.space().sample_distinct(smoke ? 32 : 128, rng)) {
        const KernelProfile p = task.profile(c);
        fit_rows.add_row(task.space().features(c),
                         p.valid ? p.gflops(task.workload().flops()) : 0.0);
        exclude.insert(c.flat);
      }
      Gbdt model;
      model.fit(fit_rows, GbdtParams{});
      cases.push_back(SaCase{std::move(task), std::move(model),
                             std::move(exclude)});
    }
    SaParams sa_params;
    if (smoke) sa_params.iterations = 30;
    const int k = 64;
    struct SaRun {
      std::vector<Config> top;
      std::uint64_t next_draw = 0;
      std::int64_t calls = 0;
    };
    const auto run_all = [&](bool use_reference) {
      std::vector<SaRun> runs;
      for (std::size_t i = 0; i < cases.size(); ++i) {
        const SaCase& c = cases[i];
        const ConfigSpace& space = c.task.space();
        std::unordered_map<std::int64_t, double> memo;
        std::vector<double> row(static_cast<std::size_t>(space.feature_dim()));
        SaRun run;
        const std::function<double(const Config&)> score =
            [&](const Config& config) {
              ++run.calls;
              const auto it = memo.find(config.flat);
              if (it != memo.end()) return it->second;
              space.features_into(config, row);
              const double s = use_reference
                                   ? reference::per_tree_sum(c.model, row)
                                   : c.model.predict(row);
              memo.emplace(config.flat, s);
              return s;
            };
        Rng rng(91 + i);
        run.top = use_reference
                      ? reference::sa_maximize(space, sa_params, score, k, rng,
                                               c.exclude)
                      : SaOptimizer(space, sa_params)
                            .maximize(score, k, rng, c.exclude);
        run.next_draw = rng();
        runs.push_back(std::move(run));
      }
      return runs;
    };
    {
      const std::vector<SaRun> got = run_all(false), want = run_all(true);
      for (std::size_t i = 0; i < cases.size(); ++i) {
        bool same = got[i].top.size() == want[i].top.size() &&
                    got[i].next_draw == want[i].next_draw &&
                    got[i].calls == want[i].calls;
        for (std::size_t j = 0; same && j < want[i].top.size(); ++j) {
          same = got[i].top[j].flat == want[i].top[j].flat;
        }
        AAL_CHECK(same, "SA maximize diverged from the reference search");
      }
    }
    BenchEntry e{"sa_maximize",
                 {{"spaces", static_cast<long long>(cases.size())},
                  {"chains", sa_params.num_chains},
                  {"steps", sa_params.iterations},
                  {"k", k}}};
    e.median_ms = time_median_ms(repeats, 1, [&] {
      sink(static_cast<double>(run_all(false).size()));
    });
    e.baseline_median_ms = time_median_ms(repeats, 1, [&] {
      sink(static_cast<double>(run_all(true).size()));
    });
    out.push_back(std::move(e));
  }

  {  // BAO's feature-space neighbourhood C_t over every mobilenet_v1 task:
     // the per-knob distance kernel vs the pre-kernel rejection loop. The
     // two must agree point for point, so the harness checks that first.
    std::vector<TuningTask> tasks;
    for (const auto& t : extract_tasks(fuse(make_mobilenet_v1()))) {
      tasks.emplace_back(t.workload, make_target(target));
      if (smoke && tasks.size() == 4) break;
    }
    std::vector<std::pair<const ConfigSpace*, Config>> centres;
    Rng rng(61);
    for (const TuningTask& t : tasks) {
      for (int i = 0; i < 2; ++i) {
        centres.emplace_back(&t.space(), t.space().sample(rng));
      }
    }
    const std::size_t cap = 512;
    for (const double radius : {3.0, 4.5}) {
      for (const auto& [space, center] : centres) {
        Rng a(71), b(71);
        const auto got = space->feature_neighborhood(center, radius, cap, a);
        const auto want =
            reference::feature_neighborhood(*space, center, radius, cap, b);
        AAL_CHECK(got.size() == want.size() && a() == b(),
                  "feature_neighborhood diverged from the rejection loop");
        for (std::size_t i = 0; i < got.size(); ++i) {
          AAL_CHECK(got[i].flat == want[i].flat,
                    "feature_neighborhood diverged from the rejection loop");
        }
      }
      BenchEntry e{"bao_feature_neighborhood",
                   {{"radius_x10", std::lround(radius * 10)},
                    {"cap", static_cast<long long>(cap)},
                    {"calls", static_cast<long long>(centres.size())}}};
      e.median_ms = time_median_ms(repeats, 1, [&] {
        Rng r(71);
        double acc = 0.0;
        for (const auto& [space, center] : centres) {
          acc += static_cast<double>(
              space->feature_neighborhood(center, radius, cap, r).size());
        }
        sink(acc);
      });
      e.baseline_median_ms = time_median_ms(repeats, 1, [&] {
        Rng r(71);
        double acc = 0.0;
        for (const auto& [space, center] : centres) {
          acc += static_cast<double>(
              reference::feature_neighborhood(*space, center, radius, cap, r)
                  .size());
        }
        sink(acc);
      });
      out.push_back(std::move(e));
    }
  }

  {  // BTED initialization end to end. Baseline: the same batch stage with
     // every TED (batch and final) serial inside, as before each split its
     // kernel build and per-pick mat-vec over the shared pool. The two must
     // return the same configs; the gain needs more than one CPU.
    BtedParams params;
    if (smoke) {
      params.num_batches = 2;
      params.batch_sample_size = 60;
      params.num_select = 8;
    }
    {
      Rng a(41), b(41);
      const auto got = bted_sample(task, params, a);
      const auto want = reference::bted_sample(task, params, b);
      bool same = got.size() == want.size();
      for (std::size_t i = 0; same && i < got.size(); ++i) {
        same = got[i].flat == want[i].flat;
      }
      AAL_CHECK(same, "bted_sample diverged from the serial-TED reference");
    }
    BenchEntry e{"bted_sample",
                 {{"B", params.num_batches},
                  {"M", params.batch_sample_size},
                  {"m", params.num_select}}};
    std::tie(e.median_ms, e.baseline_median_ms) = time_alternating_ms(
        repeats,
        [&] {
          Rng rng(41);
          sink(static_cast<double>(bted_sample(task, params, rng).size()));
        },
        [&] {
          Rng rng(41);
          sink(static_cast<double>(
              reference::bted_sample(task, params, rng).size()));
        });
    out.push_back(std::move(e));
  }

  // tune_model's serial path stages task i+1 (its BTED sweep) while task
  // i runs its BAO rounds. Baseline: the same tasks tuned one after another
  // through tune_workload with tune_model's derived seeds, so nothing
  // overlaps. The two must agree config for config before either is timed.
  {
    const std::string model = smoke ? "alexnet" : "mobilenet_v1";
    const Graph graph = make_model(model);
    const TargetSpec spec = make_target(target);
    ModelTuneOptions options;
    options.tune.budget = smoke ? 12 : 80;
    options.tune.num_initial = smoke ? 8 : 64;
    options.tune.early_stopping = 400;
    options.tune.seed = 61;
    options.device_seed = 67;
    options.use_transfer = false;
    // Smoke shrinks BTED's candidate pool so the row stays CI-sized.
    BtedParams bted;
    if (smoke) {
      bted.batch_sample_size = 60;
      bted.num_batches = 2;
    }
    const TunerFactory factory = [bted](TransferContext*) {
      return std::unique_ptr<Tuner>(
          std::make_unique<AdvancedActiveLearningTuner>(bted));
    };
    const std::vector<Task> tasks = extract_tasks(fuse(graph));
    const auto pipelined = [&] {
      return tune_model(graph, spec, factory, options);
    };
    const auto one_by_one = [&] {
      std::vector<TuneResult> results;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        TuneOptions tune = options.tune;
        tune.seed = options.tune.seed * 7907 + i + 1;
        const auto tuner = factory(nullptr);
        results.push_back(tune_workload(tasks[i].workload, spec, *tuner, tune,
                                        options.device_seed * 1000003 + i + 1));
      }
      return results;
    };
    {
      const ModelTuneReport got = pipelined();
      const std::vector<TuneResult> want = one_by_one();
      bool same = got.tasks.size() == want.size();
      for (std::size_t i = 0; same && i < want.size(); ++i) {
        const auto& a = got.tasks[i].result.history;
        const auto& b = want[i].history;
        same = a.size() == b.size();
        for (std::size_t j = 0; same && j < a.size(); ++j) {
          same = a[j].flat == b[j].flat && a[j].gflops == b[j].gflops;
        }
      }
      AAL_CHECK(same, "pipelined tune_model diverged from per-task tuning");
    }
    BenchEntry e{"tune_model_pipeline",
                 {{"tasks", static_cast<long long>(tasks.size())},
                  {"budget", options.tune.budget}}};
    std::tie(e.median_ms, e.baseline_median_ms) = time_alternating_ms(
        repeats,
        [&] { sink(static_cast<double>(pipelined().total_measured())); },
        [&] { sink(static_cast<double>(one_by_one().size())); });
    out.push_back(std::move(e));
  }

  // Per-target device-model throughput: sample a batch (through the
  // target's constraint filter) and profile every config. One entry per
  // registered target, so every backend's analytical model has a baseline
  // that regressions show up against. Optimized-only (the models are new).
  for (const std::string& tname : target_names()) {
    const TuningTask ttask = mobilenet_t1(tname);
    Rng rng(51);
    const auto configs = ttask.space().sample_distinct(smoke ? 64 : 512, rng);
    BenchEntry e{"profile_batch:" + tname,
                 {{"configs", static_cast<long long>(configs.size())}}};
    e.median_ms = time_median_ms(repeats, smoke ? 4 : 2, [&] {
      double acc = 0.0;
      for (const Config& c : configs) acc += ttask.profile(c).base_time_us;
      sink(acc);
    });
    out.push_back(std::move(e));
  }

  return out;
}

}  // namespace

int main(int argc, char** argv) {
  aal::set_log_threshold(aal::LogLevel::kWarn);
  std::string suite = "kernels", scale = "full", out_path;
  std::string target = "gpu-pascal";
  int repeats = 9;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--suite") {
      suite = next();
    } else if (arg == "--repeats") {
      repeats = std::atoi(next());
    } else if (arg == "--scale") {
      scale = next();
    } else if (arg == "--target") {
      target = next();
    } else if (arg == "--out") {
      out_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: micro_kernels [--suite kernels|tuner] "
                   "[--repeats N] [--scale full|smoke] [--target NAME] "
                   "[--out FILE]\n");
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }
  if ((suite != "kernels" && suite != "tuner") ||
      (scale != "full" && scale != "smoke") || repeats < 1) {
    std::fprintf(stderr, "invalid arguments (see --help)\n");
    return 2;
  }

  const bool smoke = scale == "smoke";
  std::vector<BenchEntry> entries;
  try {
    entries = suite == "kernels" ? run_kernels_suite(repeats, smoke)
                                 : run_tuner_suite(repeats, smoke, target);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  return bench::write_json(out_path, suite, scale, repeats, entries);
}
