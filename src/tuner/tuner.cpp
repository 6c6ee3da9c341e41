#include "tuner/tuner.hpp"

#include <algorithm>

#include "support/common.hpp"
#include "tuner/tuning_session.hpp"

namespace aal {

std::vector<double> TuneResult::best_curve() const {
  std::vector<double> curve;
  curve.reserve(history.size());
  double best = 0.0;
  for (const TunePoint& p : history) {
    if (p.ok) best = std::max(best, p.gflops);
    curve.push_back(best);
  }
  return curve;
}

std::shared_ptr<const PreparedState> Tuner::prepare(
    const TuningTask& task, const TuneOptions& options) const {
  (void)task;
  (void)options;
  return nullptr;
}

void Tuner::begin(const Measurer& measurer, const TuneOptions& options) {
  (void)measurer;
  obs_ = options.effective_obs();
}

void Tuner::observe(std::span<const MeasureResult> results) { (void)results; }

void Tuner::finalize(const Measurer& measurer) { (void)measurer; }

TuneResult Tuner::tune(Measurer& measurer, const TuneOptions& options) {
  if (options.backend != nullptr) {
    TuningSession session(*this, measurer, options, *options.backend);
    return session.run();
  }
  TuningSession session(*this, measurer, options);
  return session.run();
}

InitSampler random_init_sampler() {
  return [](const TuningTask& task, int m, Rng& rng) {
    return task.space().sample_distinct(m, rng);
  };
}

}  // namespace aal
