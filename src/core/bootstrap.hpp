// Bootstrap-guided Sampling (BS) — Algorithm 3 of the paper.
//
// Draws Gamma bootstrap resamples (with replacement, |X_gamma| = |X|) from
// the measured set, fits one evaluation function per resample, and returns
// the candidate in the current search scope C maximizing the *sum* of the
// ensemble's predictions. The surrogate family is pluggable (the paper:
// "our sampling algorithm is general enough to handle various types of
// evaluation function f").
//
// The Gamma fits are independent once each resample's rows and model seed
// are fixed, so they run across the shared thread pool: every resample's
// row indices and seed are drawn *serially* from the caller's Rng in the
// same order a serial fit would draw them, then the fits execute on any
// schedule and land in fixed slots. The ensemble — and the caller's Rng
// state — is therefore bitwise-identical to a serial construction (pinned
// by tests/core/test_bootstrap.cpp and the golden-trace suite).
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/surrogate.hpp"
#include "obs/obs.hpp"
#include "space/config_space.hpp"
#include "support/dense.hpp"
#include "support/rng.hpp"

namespace aal {

struct BootstrapParams {
  int gamma = 2;  // number of resampled sets (paper's experiments use 2)
};

/// Ensemble of Gamma surrogates fitted on bootstrap resamples. Split out of
/// the selection step so callers (BAO, tests, ablations) can reuse one
/// ensemble across several scoring calls within an iteration.
class BootstrapEnsemble {
 public:
  /// Fits Gamma models on resamples of `data`. Each model gets an
  /// independent seed derived from `rng`. The fits fan out over
  /// ThreadPool::shared(); the models are bitwise those of a serial loop
  /// (reference::bootstrap_fit in tests/reference).
  BootstrapEnsemble(const Dataset& data, const SurrogateFactory& factory,
                    int gamma, Rng& rng);

  /// Sum of the Gamma models' predictions (the BS acquisition value).
  double score(std::span<const double> features) const;

  /// Batched acquisition: out[i] = score(features.row(i)) for every row,
  /// each row's sum accumulated in model order (bitwise equal to score()).
  /// Scored model-by-model through Surrogate::predict_batch, so GBDT
  /// members run the flattened engine (ml/flat_forest.hpp).
  std::vector<double> score_all(const dense::Matrix& features) const;

  /// Scores candidate configs, featurizing the whole batch at once and
  /// memoizing each config's ensemble score by Config::flat — the models
  /// are immutable after construction, so a config re-proposed in a later
  /// scoring call within the same round is served from cache instead of
  /// re-featurized and re-scored. Counters (via set_obs):
  /// `surrogate.batch_rows` += configs scored fresh, `surrogate.batch_hits`
  /// += configs served from cache.
  std::vector<double> score_configs(const ConfigSpace& space,
                                    std::span<const Config> candidates) const;

  /// Attaches an observability handle for the score_configs counters.
  void set_obs(Obs obs) { obs_ = std::move(obs); }

  int gamma() const { return static_cast<int>(models_.size()); }

  const Surrogate& model(std::size_t g) const { return *models_[g]; }

 private:
  std::vector<std::unique_ptr<Surrogate>> models_;
  // Memo for score_configs; mutable because caching is not an observable
  // state change (scores of an immutable ensemble are pure).
  mutable std::unordered_map<std::int64_t, double> score_cache_;
  Obs obs_;
};

/// Algorithm 3: returns the index into `candidates` of the configuration
/// maximizing the ensemble score (ties break toward the lower index; the
/// candidate list must be non-empty). Candidates are featurized once into a
/// dense::Matrix and scored in a batch.
std::size_t bootstrap_select(const BootstrapEnsemble& ensemble,
                             const ConfigSpace& space,
                             const std::vector<Config>& candidates);

}  // namespace aal
