#include "core/bootstrap.hpp"

#include <algorithm>
#include <limits>

#include "support/common.hpp"
#include "support/thread_pool.hpp"

namespace aal {

BootstrapEnsemble::BootstrapEnsemble(const Dataset& data,
                                     const SurrogateFactory& factory,
                                     int gamma, Rng& rng) {
  AAL_CHECK(gamma >= 1, "bootstrap gamma must be >= 1");
  AAL_CHECK(!data.empty(), "bootstrap ensemble needs measured data");

  // Each resample's stochastic inputs — its row indices and its model seed —
  // are drawn serially from the caller's stream in exactly the order a
  // serial fit would draw them, so the Rng end-state and every model are
  // independent of the execution schedule below.
  struct Draw {
    std::vector<std::size_t> rows;
    std::uint64_t seed = 0;
  };
  std::vector<Draw> draws(static_cast<std::size_t>(gamma));
  for (auto& draw : draws) {
    draw.rows = rng.sample_with_replacement(data.num_rows(), data.num_rows());
    draw.seed = rng();
  }

  models_.resize(static_cast<std::size_t>(gamma));
  const auto fit_one = [&](std::size_t g) {
    const Dataset resample = data.subset(draws[g].rows);
    auto model = factory.create(draws[g].seed);
    model->fit(resample);
    models_[g] = std::move(model);  // fixed slot: reduction order is static
  };
  ThreadPool::shared().parallel_for(models_.size(), fit_one);
}

double BootstrapEnsemble::score(std::span<const double> features) const {
  double acc = 0.0;
  for (const auto& model : models_) acc += model->predict(features);
  return acc;
}

std::vector<double> BootstrapEnsemble::score_all(
    const dense::Matrix& features) const {
  // Model-outer batched scoring: each member predicts the whole batch
  // (GBDT members through the flattened level-order engine), then its
  // column is folded into the running sums. Every row's sum accumulates in
  // model order — exactly score()'s expression sequence — so the result is
  // bitwise-identical to per-row scoring.
  std::vector<double> out(features.rows, 0.0);
  if (features.rows == 0) return out;
  std::vector<double> tmp(features.rows);
  const std::span<const double> all{features.data.data(),
                                    features.rows * features.cols};
  for (const auto& model : models_) {
    model->predict_batch(all, features.rows, tmp);
    for (std::size_t i = 0; i < features.rows; ++i) out[i] += tmp[i];
  }
  return out;
}

std::vector<double> BootstrapEnsemble::score_configs(
    const ConfigSpace& space, std::span<const Config> candidates) const {
  std::vector<double> out(candidates.size(), 0.0);
  std::vector<std::size_t> fresh;
  fresh.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto it = score_cache_.find(candidates[i].flat);
    if (it != score_cache_.end()) {
      out[i] = it->second;
    } else {
      fresh.push_back(i);
    }
  }
  if (!fresh.empty()) {
    const auto dim = static_cast<std::size_t>(space.feature_dim());
    dense::Matrix features(fresh.size(), dim);
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      space.features_into(candidates[fresh[k]],
                          std::span<double>{features.row(k), dim});
    }
    const std::vector<double> scores = score_all(features);
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      out[fresh[k]] = scores[k];
      score_cache_.emplace(candidates[fresh[k]].flat, scores[k]);
    }
  }
  obs_.count("surrogate.batch_rows",
             static_cast<std::int64_t>(fresh.size()));
  obs_.count("surrogate.batch_hits",
             static_cast<std::int64_t>(candidates.size() - fresh.size()));
  return out;
}

std::size_t bootstrap_select(const BootstrapEnsemble& ensemble,
                             const ConfigSpace& space,
                             const std::vector<Config>& candidates) {
  AAL_CHECK(!candidates.empty(), "bootstrap_select needs candidates");
  const std::vector<double> scores = ensemble.score_configs(
      space, std::span<const Config>{candidates.data(), candidates.size()});

  std::size_t best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] > best_score) {
      best_score = scores[i];
      best = i;
    }
  }
  return best;
}

}  // namespace aal
