// Bootstrap-guided Adaptive Optimization (BAO) — Algorithm 4 of the paper.
//
// Iterative stage of the advanced active-learning framework. Each step:
//   1. the search scope C_t is the radius-R neighborhood (Euclidean in
//      feature space by default, see BaoMetric) of the previously selected
//      configuration;
//   2. if the relative improvement r_t (Equation (1)) of the last two steps
//      fell below eta, the radius is enlarged to tau*R for this step;
//   3. BS (Algorithm 3) fits Gamma bootstrap surrogates on everything
//      measured so far and picks argmax of their summed predictions over
//      C_t; the pick is deployed (measured) and appended to X, Y.
//
// Equation (1) is implemented literally, ceil((y[t-1]-y[t-2])/y[t-1]):
// with eta in (0,1) the ceil makes the trigger binary — the radius grows
// exactly when the latest step failed to improve on the one before
// (see DESIGN.md). Set literal_ceil=false for the real-valued variant.
//
// BaoSearch is a stepwise (ask/tell) formulation of the loop: next()
// proposes the configuration Algorithm 4 would deploy, observe() appends
// the deployment outcome to the y* series and moves the center. The
// enclosing policy (AdvancedActiveLearningTuner) feeds it from a
// TuningSession, which owns all budget/early-stopping accounting.
#pragma once

#include <memory>
#include <optional>

#include "core/bootstrap.hpp"
#include "measure/measure.hpp"
#include "tuner/tuner.hpp"

namespace aal {

struct TransferPrior;  // src/transfer: cross-run warm-start prior

/// Which metric R is measured in: the paper says "Euclidean distance
/// between points" where a point x is defined as the configuration's
/// feature vector, so kFeature (log2-factor space) is the faithful default;
/// kChoice (entity-index space) is kept for the adaptive-neighborhood
/// ablation.
enum class BaoMetric { kFeature, kChoice };

struct BaoParams {
  double eta = 0.05;    // relative-improvement threshold
  double tau = 1.5;     // radius growth factor (tau > 1)
  double radius = 3.0;  // base neighborhood radius R
  BaoMetric metric = BaoMetric::kFeature;
  int gamma = 2;        // bootstrap resamples per step

  /// Max candidates materialized from each neighborhood. Under the default
  /// kFeature metric C_t is not the exact ball: it is rejection-sampled
  /// from 1-3-knob mutations of the centre (max_points * 60 + 400
  /// attempts), so a ball smaller than the cap comes back as the members
  /// those attempts hit. Under kChoice small balls are enumerated exactly
  /// and subsampled only above the cap.
  std::size_t neighborhood_cap = 512;
  /// Apply Equation (1) with the printed ceil (default) or as a raw ratio.
  bool literal_ceil = true;
  /// Center the neighborhood on the best-so-far config instead of the last
  /// selected one (ablation; the paper centers on the last selection).
  bool recentre_on_best = false;
  /// Compound the radius (R, tau R, tau^2 R, ...) across *consecutive*
  /// non-improving steps instead of capping at tau R. Algorithm 4 as
  /// printed re-bases to R each iteration; compounding lets the search
  /// escape exhausted basins on very large spaces (ablation-measured).
  bool compound_radius = false;
  double max_radius = 24.0;  // compounding cap
};

/// One BAO run over a single task: proposes one configuration per
/// iteration. The measurer must already contain the initialization set
/// (BTED picks and/or preloaded records) before the first next().
class BaoSearch {
 public:
  /// Validates parameters (tau > 1, radius > 0; throws InvalidArgument).
  explicit BaoSearch(BaoParams params);

  const BaoParams& params() const { return params_; }

  /// Attaches an observability handle: next() then emits scope_change
  /// events whenever the radius adapts (R -> tau*R, with r_t and eta) and a
  /// surrogate_fit event per bootstrap ensemble, plus bao.* counters.
  void set_obs(Obs obs) { obs_ = std::move(obs); }

  /// Attaches a cross-run transfer prior (non-owning; null detaches). When
  /// the prior carries a meta-surrogate, the selection step maximizes
  ///   ensemble_score + w(n) * gamma * best_gflops * meta_prediction
  /// instead of the raw ensemble score, where w(n) decays geometrically in
  /// the number of *fresh* live observations n — fleet history dominates
  /// early, live evidence takes over as it accumulates.
  void set_transfer_prior(const TransferPrior* prior) {
    transfer_prior_ = prior;
  }

  /// Algorithm 4, one iteration: adapts the radius from the y* series,
  /// materializes the neighborhood C_t of the current center (widening
  /// geometrically while it contains no unmeasured point), fits the
  /// bootstrap ensemble and returns its argmax. Returns nullopt when every
  /// reachable configuration has been measured (degenerate tiny space).
  std::optional<Config> next(const Measurer& measurer,
                             const SurrogateFactory& surrogate_factory,
                             Rng& rng);

  /// Records the deployment outcome of the configuration returned by the
  /// last next(): appends to the y* series and moves the center.
  void observe(const MeasureResult& result, const Measurer& measurer);

  /// Number of next() proposals so far.
  int iterations() const { return iterations_; }

 private:
  BaoParams params_;
  Obs obs_;
  const TransferPrior* transfer_prior_ = nullptr;
  std::optional<Config> center_;
  std::vector<double> y_series_;
  int stagnant_steps_ = 0;
  int iterations_ = 0;
};

}  // namespace aal
