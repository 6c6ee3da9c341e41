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
// layer scalar implementations, replicated below verbatim so the comparison
// survives future rewrites of the library code.
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
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

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
#include "support/dense.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace aal;

// ---------------------------------------------------------------------------
// Timing

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2]
               : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

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

/// Defeat dead-code elimination without google-benchmark.
volatile double g_sink = 0.0;
void sink(double v) { g_sink = g_sink + v; }

// ---------------------------------------------------------------------------
// Result collection / JSON emission

struct BenchEntry {
  std::string name;
  std::vector<std::pair<std::string, long long>> params;
  double median_ms = 0.0;
  double baseline_median_ms = -1.0;  // < 0 means "no baseline"
};

void write_json(std::FILE* out, const std::string& suite,
                const std::string& scale, int repeats,
                const std::vector<BenchEntry>& entries) {
#ifdef NDEBUG
  const char* build = "Release";
#else
  const char* build = "Debug";
#endif
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"aaltune-bench/v1\",\n");
  std::fprintf(out, "  \"suite\": \"%s\",\n", suite.c_str());
  std::fprintf(out, "  \"scale\": \"%s\",\n", scale.c_str());
  std::fprintf(out, "  \"build\": \"%s\",\n", build);
  std::fprintf(out, "  \"repeats\": %d,\n", repeats);
  std::fprintf(out, "  \"threads\": %zu,\n", ThreadPool::shared().size());
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    std::fprintf(out, "    {\"name\": \"%s\", \"params\": {", e.name.c_str());
    for (std::size_t p = 0; p < e.params.size(); ++p) {
      std::fprintf(out, "%s\"%s\": %lld", p ? ", " : "",
                   e.params[p].first.c_str(), e.params[p].second);
    }
    std::fprintf(out, "}, \"median_ms\": %.6f", e.median_ms);
    if (e.baseline_median_ms >= 0.0) {
      std::fprintf(out, ", \"baseline_median_ms\": %.6f, \"speedup\": %.3f",
                   e.baseline_median_ms,
                   e.baseline_median_ms / std::max(e.median_ms, 1e-12));
    }
    std::fprintf(out, "}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

// ---------------------------------------------------------------------------
// Pre-PR scalar baselines, replicated verbatim (do NOT "optimize" these:
// they are the yardstick the checked-in speedups are measured against).

/// Two-pass column standardization as ted.cpp had it before the Welford
/// rewrite (satellite fix in this PR).
void two_pass_standardize(dense::Matrix& x) {
  if (x.empty()) return;
  const double n = static_cast<double>(x.rows);
  for (std::size_t c = 0; c < x.cols; ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < x.rows; ++r) sum += x.at(r, c);
    const double mean = sum / n;
    double var = 0.0;
    for (std::size_t r = 0; r < x.rows; ++r) {
      const double d = x.at(r, c) - mean;
      var += d * d;
    }
    const double stddev = std::sqrt(var / n);
    for (std::size_t r = 0; r < x.rows; ++r) {
      x.at(r, c) = stddev < 1e-12 ? 0.0 : (x.at(r, c) - mean) / stddev;
    }
  }
}

/// The scalar TED exactly as core/ted.cpp implemented it before this PR:
/// per-pair distance loops, full materialized kernel, per-pick column-norm
/// rescan, scalar read-modify-write deflation.
std::vector<std::size_t> ted_select_scalar(
    std::vector<std::vector<double>> x, std::size_t m,
    const TedParams& params = {}) {
  const std::size_t n = x.size();
  if (n == 0) return {};
  m = std::min(m, n);
  standardize_columns(x);
  std::vector<double> dist(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < x[i].size(); ++c) {
        const double d = x[i][c] - x[j][c];
        acc += d * d;
      }
      dist[i * n + j] = dist[j * n + i] = std::sqrt(acc);
    }
  }
  std::vector<double> k(n * n, 0.0);
  if (params.kernel == TedKernel::kEuclideanDistance) {
    k = dist;
  } else {
    double sigma = params.rbf_sigma;
    if (sigma <= 0.0) {
      std::vector<double> off;
      off.reserve(n * (n - 1) / 2);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) off.push_back(dist[i * n + j]);
      }
      sigma = off.empty() ? 1.0 : std::max(1e-9, median(std::move(off)));
    }
    const double inv = 1.0 / (2.0 * sigma * sigma);
    for (std::size_t i = 0; i < n * n; ++i) {
      k[i] = std::exp(-dist[i] * dist[i] * inv);
    }
  }
  std::vector<std::size_t> selected;
  std::vector<bool> taken(n, false);
  std::vector<double> col(n);
  for (std::size_t pick = 0; pick < m; ++pick) {
    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_v = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (taken[v]) continue;
      double norm_sq = 0.0;
      for (std::size_t u = 0; u < n; ++u) {
        norm_sq += k[v * n + u] * k[v * n + u];
      }
      const double score = norm_sq / (std::max(k[v * n + v], 0.0) + params.mu);
      if (score > best_score) {
        best_score = score;
        best_v = v;
      }
    }
    taken[best_v] = true;
    selected.push_back(best_v);
    const double denom = std::max(k[best_v * n + best_v], 0.0) + params.mu;
    for (std::size_t u = 0; u < n; ++u) col[u] = k[best_v * n + u];
    for (std::size_t i = 0; i < n; ++i) {
      const double ci = col[i] / denom;
      if (ci == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) k[i * n + j] -= ci * col[j];
    }
  }
  return selected;
}

/// ConfigSpace::feature_neighborhood as it was before the per-knob distance
/// kernel: per attempt, copy the centre's choices, mutate 1-3 knobs,
/// make(), probe an unordered_set and re-featurize the whole candidate.
std::vector<Config> feature_neighborhood_loop(const ConfigSpace& space,
                                              const Config& center,
                                              double radius,
                                              std::size_t max_points,
                                              Rng& rng) {
  std::vector<Config> out;
  if (max_points == 0) return out;

  const std::vector<double> center_feats = space.features(center);
  const double r2 = radius * radius;
  std::unordered_set<std::int64_t> seen{center.flat};
  const std::size_t max_attempts = max_points * 60 + 400;
  std::vector<double> feats;
  feats.reserve(static_cast<std::size_t>(space.feature_dim()));

  for (std::size_t attempt = 0;
       attempt < max_attempts && out.size() < max_points; ++attempt) {
    std::vector<std::int32_t> choices = center.choices;
    const auto mutations = 1 + rng.next_index(3);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      const auto k =
          static_cast<std::size_t>(rng.next_index(space.num_knobs()));
      choices[k] = static_cast<std::int32_t>(rng.next_index(
          static_cast<std::uint64_t>(space.knob(k).size())));
    }
    Config candidate = space.make(std::move(choices));
    if (seen.contains(candidate.flat)) continue;

    feats.clear();
    for (std::size_t i = 0; i < space.num_knobs(); ++i) {
      space.knob(i).append_features(candidate.choices[i], feats);
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < feats.size() && acc <= r2; ++i) {
      const double d = feats[i] - center_feats[i];
      acc += d * d;
    }
    if (acc > r2) continue;
    seen.insert(candidate.flat);
    if (space.num_constraints() > 0 && !space.feasible(candidate)) continue;
    out.push_back(std::move(candidate));
  }

  if (out.empty() && space.size() >= 2) {
    for (int i = 0; i < 64 && out.empty(); ++i) {
      Config c = space.sample(rng);
      if (c.flat != center.flat) out.push_back(std::move(c));
    }
  }
  return out;
}

/// Gbdt::predict as it was before the tree-lockstep walk: each tree walked
/// to its leaf in turn through the branchy, checked DecisionTree::predict.
double gbdt_predict_per_tree(const Gbdt& model, std::span<const double> row) {
  double acc = 0.0;
  for (const DecisionTree& tree : model.trees()) {
    acc += model.learning_rate() * tree.predict(row);
  }
  return model.base() + model.scale() * acc;
}

Config sa_mutate_reference(const ConfigSpace& space, const Config& config,
                           Rng& rng) {
  // Resample one knob (retry if the knob has a single entity).
  std::vector<std::int32_t> choices = config.choices;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const auto knob_idx =
        static_cast<std::size_t>(rng.next_index(space.num_knobs()));
    const std::int64_t size = space.knob(knob_idx).size();
    if (size <= 1) continue;
    auto v = static_cast<std::int32_t>(rng.next_index(
        static_cast<std::uint64_t>(size)));
    if (v == choices[knob_idx]) v = (v + 1) % static_cast<std::int32_t>(size);
    choices[knob_idx] = v;
    return space.make(std::move(choices));
  }
  return config;  // fully degenerate space
}

/// SaOptimizer::maximize as it was before the full-set pre-check in offer:
/// every proposal not excluded is inserted into the top-k map (a node and a
/// Config copy) and the worst entry erased again.
std::vector<Config> sa_maximize_reference(
    const ConfigSpace& space, const SaParams& params,
    const std::function<double(const Config&)>& score, int k, Rng& rng,
    const std::unordered_set<std::int64_t>& exclude) {
  struct Chain {
    Config state;
    double energy;
  };
  std::vector<Chain> chains;
  chains.reserve(static_cast<std::size_t>(params.num_chains));
  for (int i = 0; i < params.num_chains; ++i) {
    Config c = space.sample(rng);
    const double e = score(c);
    chains.push_back(Chain{std::move(c), e});
  }

  std::map<std::pair<double, std::int64_t>, Config> top;
  auto offer = [&](const Config& c, double e) {
    if (exclude.contains(c.flat)) return;
    const std::pair<double, std::int64_t> key{-e, c.flat};
    if (top.contains(key)) return;
    top.emplace(key, c);
    if (top.size() > static_cast<std::size_t>(k)) {
      top.erase(std::prev(top.end()));
    }
  };
  for (const Chain& c : chains) offer(c.state, c.energy);

  double spread = 1e-9;
  for (const Chain& c : chains) {
    spread = std::max(spread, std::abs(c.energy));
  }

  for (int iter = 0; iter < params.iterations; ++iter) {
    const double progress =
        params.iterations <= 1
            ? 1.0
            : static_cast<double>(iter) / (params.iterations - 1);
    const double temp =
        params.temp_start + (params.temp_end - params.temp_start) * progress;
    for (Chain& chain : chains) {
      Config proposal = sa_mutate_reference(space, chain.state, rng);
      if (proposal.flat == chain.state.flat) continue;
      const double e = score(proposal);
      offer(proposal, e);
      const double delta = (e - chain.energy) / (spread * std::max(temp, 1e-6));
      if (delta >= 0.0 || rng.next_double() < std::exp(delta)) {
        chain.state = std::move(proposal);
        chain.energy = e;
      }
    }
  }

  std::vector<Config> out;
  out.reserve(top.size());
  for (auto& [key, config] : top) out.push_back(std::move(config));
  return out;
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

  {  // Gram matrix: blocked vs naive triple loop.
    const std::size_t n = smoke ? 64 : 512, d = 16;
    const dense::Matrix x = random_matrix(n, d, 11);
    std::vector<double> g;
    BenchEntry e{"gram",
                 {{"n", static_cast<long long>(n)},
                  {"d", static_cast<long long>(d)}}};
    e.median_ms = time_median_ms(repeats, smoke ? 8 : 3, [&] {
      dense::gram(x, g);
      sink(g[0]);
    });
    e.baseline_median_ms = time_median_ms(repeats, smoke ? 8 : 3, [&] {
      dense::gram_naive(x, g);
      sink(g[0]);
    });
    out.push_back(std::move(e));
  }

  {  // Pairwise squared distance: Gram-identity build vs per-pair loops.
    const std::size_t n = smoke ? 64 : 1024, d = 16;
    const dense::Matrix x = random_matrix(n, d, 12);
    std::vector<double> sq;
    BenchEntry e{"pairwise_sq_dist",
                 {{"n", static_cast<long long>(n)},
                  {"d", static_cast<long long>(d)}}};
    e.median_ms = time_median_ms(repeats, smoke ? 8 : 2, [&] {
      dense::pairwise_sq_dist(x, sq);
      sink(sq[1]);
    });
    e.baseline_median_ms = time_median_ms(repeats, smoke ? 8 : 2, [&] {
      dense::pairwise_sq_dist_naive(x, sq);
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
      two_pass_standardize(scratch);
      sink(scratch.at(0, 0));
    });
    out.push_back(std::move(e));
  }

  {  // TED selection, the acceptance benchmark: kernel-layer path (lazy
     // deflation at this n) vs the pre-PR scalar path, identical picks.
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
        sink(static_cast<double>(ted_select_scalar(rows, s.m)[0]));
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
  for (const int gamma : smoke ? std::vector<int>{2, 3}
                               : std::vector<int>{5, 20}) {
    BenchEntry e{"bs_round",
                 {{"gamma", gamma},
                  {"rows", static_cast<long long>(data.num_rows())},
                  {"candidates", static_cast<long long>(batch.rows)}}};
    e.median_ms = time_median_ms(repeats, 1, [&] {
      Rng rng(31);
      const BootstrapEnsemble ensemble(data, factory, gamma, rng,
                                       /*parallel_fit=*/true);
      const std::vector<double> scores = ensemble.score_all(batch);
      sink(scores[0]);
    });
    e.baseline_median_ms = time_median_ms(repeats, 1, [&] {
      Rng rng(31);
      const BootstrapEnsemble ensemble(data, factory, gamma, rng,
                                       /*parallel_fit=*/false);
      double acc = 0.0;
      for (std::size_t i = 0; i < batch.rows; ++i) {
        acc += ensemble.score(std::span<const double>{batch.row(i), batch.cols});
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
          acc += gbdt_predict_per_tree(
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
                        gbdt_predict_per_tree(model, row)),
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
        acc += gbdt_predict_per_tree(
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
    const auto run_all = [&](bool reference) {
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
              const double s = reference ? gbdt_predict_per_tree(c.model, row)
                                         : c.model.predict(row);
              memo.emplace(config.flat, s);
              return s;
            };
        Rng rng(91 + i);
        run.top = reference ? sa_maximize_reference(space, sa_params, score,
                                                    k, rng, c.exclude)
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
            feature_neighborhood_loop(*space, center, radius, cap, b);
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
              feature_neighborhood_loop(*space, center, radius, cap, r)
                  .size());
        }
        sink(acc);
      });
      out.push_back(std::move(e));
    }
  }

  {  // BTED initialization end-to-end (no scalar baseline survives in the
     // library; tracked optimized-only for trend monitoring).
    BtedParams params;
    if (smoke) {
      params.num_batches = 2;
      params.batch_sample_size = 60;
      params.num_select = 8;
    }
    BenchEntry e{"bted_sample",
                 {{"B", params.num_batches},
                  {"M", params.batch_sample_size},
                  {"m", params.num_select}}};
    e.median_ms = time_median_ms(repeats, 1, [&] {
      Rng rng(41);
      sink(static_cast<double>(bted_sample(task, params, rng).size()));
    });
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

  {  // End-to-end pipeline wall clock: tune_model over AlexNet with the
     // full advanced framework (BTED init + BAO rounds), the path every
     // batched-scoring change ultimately serves. Optimized-only — there is
     // no preserved scalar pipeline — tracked for trend monitoring.
    const Graph model = make_alexnet();
    const TunerFactory factory = bted_bao_tuner_factory();
    ModelTuneOptions options;
    options.tune.budget = smoke ? 16 : 48;
    options.tune.early_stopping = smoke ? 8 : 24;
    BenchEntry e{"tune_model_wall",
                 {{"budget", options.tune.budget},
                  {"early_stop", options.tune.early_stopping}}};
    e.median_ms = time_median_ms(repeats, 1, [&] {
      const ModelTuneReport report =
          tune_model(model, make_target(target), factory, options);
      sink(static_cast<double>(report.total_measured()));
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

  std::FILE* out = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  write_json(out, suite, scale, repeats, entries);
  if (out != stdout) std::fclose(out);
  return 0;
}
