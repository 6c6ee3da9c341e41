// The paper's advanced active-learning framework as a Tuner:
// BTED initialization (Algorithms 1-2) + BAO iterative optimization
// (Algorithms 3-4). This is the "BTED + BAO" row of every experiment.
//
// As an ask/tell policy the two stages map directly onto propose():
// the first call returns the BTED initialization set; every later call
// returns the single configuration BAO deploys that iteration. The
// TuningSession owns budget and early stopping.
#pragma once

#include <memory>

#include "core/bao.hpp"
#include "core/bted.hpp"
#include "ml/surrogate.hpp"
#include "tuner/tuner.hpp"

namespace aal {

class AdvancedActiveLearningTuner final : public Tuner {
 public:
  /// The default bootstrap surrogate is a lighter GBDT than AutoTVM's cost
  /// model (32 trees, depth 4, no extra row subsampling — the bootstrap
  /// already resamples rows): BS refits Gamma models *every* iteration, so
  /// the base learner must be cheap; ranking quality at tuning scale is
  /// unaffected (see the surrogate ablation bench).
  static GbdtParams default_bootstrap_gbdt_params() {
    GbdtParams p;
    p.num_trees = 32;
    p.max_depth = 4;
    p.row_subsample = 1.0;
    return p;
  }

  explicit AdvancedActiveLearningTuner(
      BtedParams bted = {}, BaoParams bao = {},
      std::shared_ptr<const SurrogateFactory> surrogate_factory =
          std::make_shared<GbdtSurrogateFactory>(
              default_bootstrap_gbdt_params()));

  std::string name() const override { return "bted+bao"; }

  /// Runs the cold-start BTED sweep (m = options.num_initial, seeded from
  /// options.seed) and returns its picks with the RNG state it leaves.
  /// propose() takes them from TuneOptions::prepared when they were
  /// computed for its task, options and BTED params, and otherwise calls
  /// prepare() itself. A warm start (an active transfer prior) ignores them.
  std::shared_ptr<const PreparedState> prepare(
      const TuningTask& task, const TuneOptions& options) const override;
  void begin(const Measurer& measurer, const TuneOptions& options) override;
  std::vector<Config> propose(std::int64_t k) override;
  void observe(std::span<const MeasureResult> results) override;

  const BtedParams& bted_params() const { return bted_; }
  const BaoParams& bao_params() const { return bao_; }

 private:
  BtedParams bted_;
  BaoParams bao_;
  std::shared_ptr<const SurrogateFactory> surrogate_factory_;

  const Measurer* measurer_ = nullptr;
  TuneOptions tune_options_;
  Rng rng_;
  std::unique_ptr<BaoSearch> bao_search_;

  bool initialized_ = false;
  bool bao_active_ = false;
};

}  // namespace aal
