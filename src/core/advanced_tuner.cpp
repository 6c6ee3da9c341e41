#include "core/advanced_tuner.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "support/logging.hpp"
#include "transfer/transfer_prior.hpp"

namespace aal {

namespace {

/// The cold-start initial set prepare() computes, with what it was computed
/// for and the RNG state BTED left behind.
struct ColdStart final : PreparedState {
  std::string task_key;
  std::uint64_t seed = 0;
  BtedParams bted;  // num_select = the options' num_initial
  std::vector<Config> initial;
  Rng rng;
};

}  // namespace

AdvancedActiveLearningTuner::AdvancedActiveLearningTuner(
    BtedParams bted, BaoParams bao,
    std::shared_ptr<const SurrogateFactory> surrogate_factory)
    : bted_(bted), bao_(bao), surrogate_factory_(std::move(surrogate_factory)) {
  // Validate the BAO parameters up front (tau > 1, radius > 0).
  BaoSearch validate(bao_);
  (void)validate;
}

std::shared_ptr<const PreparedState> AdvancedActiveLearningTuner::prepare(
    const TuningTask& task, const TuneOptions& options) const {
  auto cold = std::make_shared<ColdStart>();
  cold->task_key = task.key();
  cold->seed = options.seed;
  cold->bted = bted_;
  cold->bted.num_select = options.num_initial;
  cold->rng.reseed(options.seed);
  cold->initial = bted_sample(task, cold->bted, cold->rng);
  return cold;
}

void AdvancedActiveLearningTuner::begin(const Measurer& measurer,
                                        const TuneOptions& options) {
  Tuner::begin(measurer, options);
  measurer_ = &measurer;
  tune_options_ = options;
  rng_.reseed(options.seed);
  bao_search_ = std::make_unique<BaoSearch>(bao_);
  bao_search_->set_obs(obs_);
  bao_search_->set_transfer_prior(transfer_prior_);
  initialized_ = false;
  bao_active_ = false;
}

std::vector<Config> AdvancedActiveLearningTuner::propose(std::int64_t k) {
  (void)k;  // the session trims overshoot against the remaining budget

  // Stage 1: BTED initialization. options.num_initial (m) overrides the
  // params' num_select, mirroring the paper's m = 64 setting.
  if (!initialized_) {
    initialized_ = true;
    std::vector<Config> initial;
    if (transfer_prior_ != nullptr && transfer_prior_->active()) {
      BtedParams bted = bted_;
      // Warm start: fleet history replaces breadth. The initial set is the
      // prior's seeds (prior-task bests + HW-ranked feasible picks) capped
      // at warm_num_initial, with BTED topping up any shortfall — so the
      // warm run measures far fewer initialization configs than the cold
      // num_initial-wide sweep.
      int m = tune_options_.num_initial;
      if (transfer_prior_->warm_num_initial > 0) {
        m = std::min(m, transfer_prior_->warm_num_initial);
      }
      initial = transfer_prior_->seeds;
      if (initial.size() > static_cast<std::size_t>(m)) initial.resize(m);
      obs_.count("transfer.init_seeds",
                 static_cast<std::int64_t>(initial.size()));
      if (initial.size() < static_cast<std::size_t>(m)) {
        std::unordered_set<std::int64_t> taken;
        for (const Config& c : initial) taken.insert(c.flat);
        bted.num_select = m;
        for (Config& c : bted_sample(measurer_->task(), bted, rng_)) {
          if (initial.size() >= static_cast<std::size_t>(m)) break;
          if (taken.insert(c.flat).second) initial.push_back(std::move(c));
        }
      }
    } else {
      // Cold start: the sweep prepare() computed, possibly on another
      // thread before this session began, if it was computed for this one.
      const TuningTask& task = measurer_->task();
      BtedParams bted = bted_;
      bted.num_select = tune_options_.num_initial;
      std::shared_ptr<const PreparedState> prepared = tune_options_.prepared;
      const auto* cold = dynamic_cast<const ColdStart*>(prepared.get());
      if (cold == nullptr || cold->seed != tune_options_.seed ||
          cold->bted != bted || cold->task_key != task.key()) {
        prepared = prepare(task, tune_options_);
        cold = static_cast<const ColdStart*>(prepared.get());
      }
      initial = cold->initial;
      rng_ = cold->rng;
    }
    obs_.count("bted.initial_proposed",
               static_cast<std::int64_t>(initial.size()));
    AAL_LOG_DEBUG << "bted+bao: proposing " << initial.size()
                  << " initialization configs";
    return initial;
  }

  // Stage 2: one BAO iteration per round — the paper deploys exactly one
  // configuration per adaptive step.
  bao_active_ = true;
  std::optional<Config> chosen =
      bao_search_->next(*measurer_, *surrogate_factory_, rng_);
  if (!chosen) return {};
  return {std::move(*chosen)};
}

void AdvancedActiveLearningTuner::observe(
    std::span<const MeasureResult> results) {
  if (!bao_active_ || results.empty()) return;
  // BAO proposes one fresh config per round, so the round's fresh results
  // contain exactly its deployment.
  bao_search_->observe(results.front(), *measurer_);
}

}  // namespace aal
