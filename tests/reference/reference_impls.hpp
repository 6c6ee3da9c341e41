// Verbatim reference implementations: the pre-optimization loops that the
// library's rewritten kernels are pinned to, bit for bit. The equivalence
// tests use them as oracles and bench/micro_kernels times them as the
// baselines of its speedup rows, so each loop is defined once, here.
//
// Do NOT "optimize" anything in this file: these loops are the yardstick.
// A rewrite that changes their floating-point order or RNG consumption
// silently moves every equivalence test and checked-in speedup with it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/bted.hpp"
#include "core/ted.hpp"
#include "ml/binned.hpp"
#include "ml/gbdt.hpp"
#include "ml/surrogate.hpp"
#include "ml/sa_optimizer.hpp"
#include "space/config_space.hpp"
#include "support/dense.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace aal::reference {

// ---------------------------------------------------------------------------
// TED (core/ted.cpp before the dense kernel layer)

/// Two-pass column standardization as ted.cpp had it before the Welford
/// rewrite.
inline void two_pass_standardize(dense::Matrix& x) {
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

/// The scalar TED: per-pair distance loops, full materialized kernel,
/// per-pick column-norm rescan, scalar read-modify-write deflation.
inline std::vector<std::size_t> ted_select(std::vector<std::vector<double>> x,
                                           std::size_t m,
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

// ---------------------------------------------------------------------------
// TED kernel build (core/ted.cpp and dense::pairwise_sq_dist before the
// register-blocked pairwise loop and the radix-select median)

/// Squared Euclidean distance, accumulated in index order.
inline double sq_dist(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

/// Scalar pairwise squared distances: per-pair (a[c]-b[c])^2 accumulation
/// (dense::pairwise_sq_dist's oracle and bench baseline).
inline void pairwise_sq_dist_naive(const dense::Matrix& x,
                                   std::vector<double>& out) {
  const std::size_t n = x.rows;
  out.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = sq_dist(x.row(i), x.row(j), x.cols);
      out[i * n + j] = d;
      out[j * n + i] = d;
    }
  }
}

/// Pairwise squared distances through the Gram identity, 48-row tiles, one
/// dense::dot per pair.
inline void pairwise_sq_dist_blocked(const dense::Matrix& x,
                                     std::vector<double>& out) {
  constexpr std::size_t kRowTile = 48;
  const std::size_t n = x.rows;
  const std::size_t d = x.cols;
  out.resize(n * n);
  std::vector<double> norms(n);
  const double* __restrict xd = x.data.data();
  for (std::size_t i = 0; i < n; ++i) {
    norms[i] = dense::dot(xd + i * d, xd + i * d, d);
  }
  double* __restrict o = out.data();
  const double* __restrict nrm = norms.data();
  for (std::size_t ib = 0; ib < n; ib += kRowTile) {
    const std::size_t ie = std::min(n, ib + kRowTile);
    for (std::size_t jb = ib; jb < n; jb += kRowTile) {
      const std::size_t je = std::min(n, jb + kRowTile);
      for (std::size_t i = ib; i < ie; ++i) {
        if (jb <= i) o[i * n + i] = 0.0;
        const double* xi = xd + i * d;
        for (std::size_t j = std::max(i + 1, jb); j < je; ++j) {
          const double sq =
              nrm[i] + nrm[j] - 2.0 * dense::dot(xi, xd + j * d, d);
          const double clamped = std::max(sq, 0.0);
          o[i * n + j] = clamped;
          o[j * n + i] = clamped;
        }
      }
    }
  }
}

/// Median distance: copy the strict upper triangle, nth_element on the
/// squared values, square roots of the one or two middle elements.
inline double median_distance(const std::vector<double>& sq, std::size_t n) {
  if (n < 2) return 1.0;
  std::vector<double> off;
  off.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    off.insert(off.end(), sq.data() + i * n + i + 1, sq.data() + i * n + n);
  }
  const std::size_t mid = off.size() / 2;
  std::nth_element(off.begin(), off.begin() + static_cast<std::ptrdiff_t>(mid),
                   off.end());
  const double hi = std::sqrt(off[mid]);
  if (off.size() % 2 == 1) return hi;
  const double lo = std::sqrt(*std::max_element(
      off.begin(), off.begin() + static_cast<std::ptrdiff_t>(mid)));
  return 0.5 * (lo + hi);
}

/// The kernel build: the pairwise matrix, the median bandwidth, then a
/// row-by-row in-place transform with the mirrored stores down column i.
inline std::vector<double> build_ted_kernel(const dense::Matrix& x,
                                            const TedParams& params) {
  const std::size_t n = x.rows;
  std::vector<double> k;
  pairwise_sq_dist_blocked(x, k);
  if (params.kernel == TedKernel::kEuclideanDistance) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d = std::sqrt(k[i * n + j]);
        k[i * n + j] = d;
        k[j * n + i] = d;
      }
    }
    return k;
  }
  double sigma = params.rbf_sigma;
  if (sigma <= 0.0) {
    sigma = std::max(1e-9, median_distance(k, n));
  }
  const double inv = 1.0 / (2.0 * sigma * sigma);
  for (std::size_t i = 0; i < n; ++i) {
    k[i * n + i] = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double e = std::exp(-k[i * n + j] * inv);
      k[i * n + j] = e;
      k[j * n + i] = e;
    }
  }
  return k;
}

// ---------------------------------------------------------------------------
// BTED (core/bted.cpp before its TEDs split row blocks on the shared pool)

/// bted_sample with the B batch TEDs on the shared pool, each TED (batch
/// and final) serial inside.
inline std::vector<Config> bted_sample(const TuningTask& task,
                                       const BtedParams& params, Rng& rng) {
  const ConfigSpace& space = task.space();
  TedParams ted;
  ted.mu = params.mu;
  ted.kernel = params.kernel;
  const auto featurize = [&](const std::vector<Config>& configs) {
    return space.features_batch(
        std::span<const Config>{configs.data(), configs.size()});
  };
  const auto pick = [](const std::vector<Config>& pool,
                       const std::vector<std::size_t>& indices) {
    std::vector<Config> out;
    out.reserve(indices.size());
    for (std::size_t i : indices) out.push_back(pool[i]);
    return out;
  };
  std::vector<std::vector<Config>> batches(
      static_cast<std::size_t>(params.num_batches));
  for (auto& batch : batches) {
    batch = space.sample_distinct(params.batch_sample_size, rng);
  }
  std::vector<std::vector<Config>> selected(batches.size());
  auto run_batch = [&](std::size_t b) {
    const auto features = featurize(batches[b]);
    const auto indices = ted_select(
        features, static_cast<std::size_t>(params.num_select), ted);
    selected[b] = pick(batches[b], indices);
  };
  ThreadPool::shared().parallel_for(batches.size(), run_batch);
  std::vector<Config> union_set;
  std::unordered_set<std::int64_t> seen;
  for (const auto& sel : selected) {
    for (const Config& c : sel) {
      if (seen.insert(c.flat).second) union_set.push_back(c);
    }
  }
  const auto features = featurize(union_set);
  const auto indices = ted_select(
      features, static_cast<std::size_t>(params.num_select), ted);
  return pick(union_set, indices);
}

// ---------------------------------------------------------------------------
// Bootstrap ensemble (core/bootstrap.cpp before its fits ran on the shared
// pool)

/// BootstrapEnsemble's Gamma fits as a serial loop: every resample's rows
/// and model seed drawn from `rng` first, then each model fitted in order.
inline std::vector<std::unique_ptr<Surrogate>> bootstrap_fit(
    const Dataset& data, const SurrogateFactory& factory, int gamma,
    Rng& rng) {
  std::vector<std::vector<std::size_t>> rows(static_cast<std::size_t>(gamma));
  std::vector<std::uint64_t> seeds(rows.size());
  for (std::size_t g = 0; g < rows.size(); ++g) {
    rows[g] = rng.sample_with_replacement(data.num_rows(), data.num_rows());
    seeds[g] = rng();
  }
  std::vector<std::unique_ptr<Surrogate>> models;
  for (std::size_t g = 0; g < rows.size(); ++g) {
    models.push_back(factory.create(seeds[g]));
    models.back()->fit(data.subset(rows[g]));
  }
  return models;
}

/// BootstrapEnsemble::score over bootstrap_fit's models: the sum of their
/// predictions in model order.
inline double bootstrap_score(
    const std::vector<std::unique_ptr<Surrogate>>& models,
    std::span<const double> features) {
  double acc = 0.0;
  for (const auto& model : models) acc += model->predict(features);
  return acc;
}

// ---------------------------------------------------------------------------
// BAO neighbourhood (ConfigSpace::feature_neighborhood before the per-knob
// distance kernel)

/// Per attempt: copy the centre's choices, mutate 1-3 knobs, make(), probe
/// the seen-set, then re-featurize the whole candidate and sum its squared
/// distance.
inline std::vector<Config> feature_neighborhood(const ConfigSpace& space,
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

// ---------------------------------------------------------------------------
// SA acquisition (SaOptimizer before the full-set pre-check in offer)

inline Config sa_mutate(const ConfigSpace& space, const Config& config,
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

/// Every proposal not excluded is inserted into the top-k map (a node and a
/// Config copy) and the worst entry erased again.
inline std::vector<Config> sa_maximize(
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
      Config proposal = sa_mutate(space, chain.state, rng);
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
// GBDT scoring and fitting (ml/gbdt.cpp before the flat engine and the
// binned round update)

/// The per-tree sum every scoring path is pinned to: the GBDT output
/// transform over an explicit DecisionTree::predict per tree, accumulated
/// in tree order. Rethrows whatever the first tree that cannot route the
/// row throws.
inline double per_tree_sum(std::span<const DecisionTree> trees, double base,
                           double scale, double lr,
                           std::span<const double> row) {
  double acc = 0.0;
  for (const DecisionTree& t : trees) acc += lr * t.predict(row);
  return base + scale * acc;
}

inline double per_tree_sum(const Gbdt& model, std::span<const double> row) {
  return per_tree_sum(model.trees(), model.base(), model.scale(),
                      model.learning_rate(), row);
}

/// A boosted ensemble with its output transform, as gbdt_fit returns it.
struct Forest {
  std::vector<DecisionTree> trees;
  double base = 0.0;
  double scale = 1.0;
  double learning_rate = 0.0;
};

/// Gbdt::fit with every boosting round updating the training predictions
/// by walking the new tree on the raw feature rows.
inline Forest gbdt_fit(const Dataset& data, const GbdtParams& params) {
  Forest f;
  f.learning_rate = params.learning_rate;
  f.base = mean(data.targets());
  f.scale = std::max(stddev(data.targets()), 1e-9);

  const std::size_t n = data.num_rows();
  const BinnedMatrix binned = BinnedMatrix::build(data);

  std::vector<double> residual(n);
  for (std::size_t i = 0; i < n; ++i) {
    residual[i] = (data.target(i) - f.base) / f.scale;
  }
  std::vector<double> prediction(n, 0.0);
  std::vector<double> gradient(n, 0.0);

  Rng rng(params.seed);
  DecisionTreeParams tree_params;
  tree_params.max_depth = params.max_depth;
  tree_params.min_samples_leaf = params.min_samples_leaf;
  tree_params.feature_fraction = params.feature_fraction;

  for (int t = 0; t < params.num_trees; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      gradient[i] = residual[i] - prediction[i];
    }

    std::vector<std::size_t> rows;
    if (params.row_subsample < 1.0 && n > 8) {
      const auto k = static_cast<std::size_t>(std::max(
          4.0, std::floor(params.row_subsample * static_cast<double>(n))));
      rows = rng.sample_without_replacement(n, k);
    } else {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), std::size_t{0});
    }

    DecisionTree tree;
    tree.fit_binned(binned, gradient, std::move(rows), tree_params, rng);
    for (std::size_t i = 0; i < n; ++i) {
      prediction[i] += f.learning_rate * tree.predict(data.row(i));
    }
    f.trees.push_back(std::move(tree));
  }
  return f;
}

}  // namespace aal::reference
