// Tuner interface and shared tuning types.
//
// Tuners are *proposal policies* in an ask/tell loop: a TuningSession (see
// tuner/tuning_session.hpp) owns budget and early-stopping accounting,
// repeatedly asks the policy to propose() candidate configurations, drives
// them through a MeasureBackend, and tells the policy the fresh results via
// observe(). Budget and early-stopping semantics follow AutoTVM: `budget`
// caps measured configs, `early_stopping` aborts when the best GFLOPS has
// not improved within that many consecutive measurements.
//
// The base class keeps a blocking tune() driver for compatibility: it runs
// a serial session to completion, which is what the CLI and benches use at
// jobs=1.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "measure/measure.hpp"
#include "obs/obs.hpp"
#include "support/rng.hpp"

namespace aal {

class MeasureBackend;
struct TransferPrior;  // src/transfer: cross-run warm-start prior

/// What a Tuner::prepare() computed ahead of a session. Each policy derives
/// its own type and recognizes only that.
struct PreparedState {
  virtual ~PreparedState() = default;
};

/// Policy-loop options. Composes the shared SessionOptions knobs — the
/// session honors `budget`, `early_stopping`, `seed` and `cancel`;
/// `device_seed`, `retry` and `faults` are inert here (they configure the
/// measurer the caller builds separately).
struct TuneOptions : SessionOptions {
  int batch_size = 64;   // configs measured per optimization round

  /// Number of initial samples (AutoTVM default: 64).
  int num_initial = 64;

  /// Measurement backend for the blocking tune() driver (non-owning; may be
  /// null = serial on the calling thread). Many sessions may share one
  /// backend — the serve daemon multiplexes every job's measurement batches
  /// over one ParallelBackend's lanes this way. Results and traces are
  /// backend-invariant (see DESIGN.md §3), so sharing lanes never changes
  /// what any session computes.
  MeasureBackend* backend = nullptr;

  /// What the policy's prepare() returned for this session's task and
  /// options, or null. A policy uses it only after checking that it was
  /// computed for this session (task, options and its own params) and
  /// computes the same state itself otherwise.
  std::shared_ptr<const PreparedState> prepared;

  /// Observability handle (trace sink + metrics registry + lane label).
  /// Inactive by default; the session forwards it to the measurer and the
  /// policy, so every layer of the run reports through one handle.
  Obs obs;

  /// The obs handle the session should actually use: `obs` when it carries
  /// any receiver, otherwise one assembled from the shared `trace` /
  /// `metrics` pointers — so embedders configuring only the SessionOptions
  /// base still get observability without touching the Obs type.
  Obs effective_obs() const {
    if (obs.active()) return obs;
    Obs out = obs;  // keeps the lane label
    out.trace = trace;
    out.metrics = metrics;
    return out;
  }
};

struct TunePoint {
  std::int64_t flat = -1;
  bool ok = false;
  double gflops = 0.0;
  /// Failure diagnostic for ok=false points (empty for successes); carried
  /// into persisted records so error causes survive save/resume.
  std::string error;
};

struct TuneResult {
  std::string tuner_name;
  std::vector<TunePoint> history;  // in measurement order
  std::optional<MeasureResult> best;
  std::int64_t num_measured = 0;

  double best_gflops() const { return best ? best->gflops : 0.0; }

  /// Running best GFLOPS after each measurement (the Fig. 4 curves).
  std::vector<double> best_curve() const;
};

class Tuner {
 public:
  virtual ~Tuner() = default;
  virtual std::string name() const = 0;

  /// Measurement-independent setup for `task`, computed before its session
  /// starts and handed to it as TuneOptions::prepared. Must be pure in
  /// (task, options, this tuner's params): it emits no obs (`options.obs`
  /// is ignored), reads no measurer and no shared state, so it may run on
  /// another thread while a session (this tuner's own included) runs. A
  /// policy that overrides it must give the same results whether or not its
  /// session was handed the state. tune_model's serial path has task i's
  /// tuner prepare task i+1 while task i tunes. The default returns null.
  virtual std::shared_ptr<const PreparedState> prepare(
      const TuningTask& task, const TuneOptions& options) const;

  /// Called once by the session before the first propose(). The measurer
  /// reference stays valid for the whole session; policies may hold it to
  /// query measured state (all_results, is_cached, best) while proposing.
  virtual void begin(const Measurer& measurer, const TuneOptions& options);

  /// Asks the policy for the next batch of candidate configurations. At
  /// most `k` of them should be previously unmeasured (the session trims
  /// any overshoot before measuring); already-measured revisits are free.
  /// An empty return means the policy is exhausted and the session stops.
  virtual std::vector<Config> propose(std::int64_t k) = 0;

  /// Tells the policy the results that were freshly measured (and committed
  /// to history) this round. Memoized revisits are not repeated here.
  virtual void observe(std::span<const MeasureResult> results);

  /// Called once when the session finishes (budget, early stop or
  /// exhaustion) — e.g. to absorb results into a transfer-learning context.
  virtual void finalize(const Measurer& measurer);

  /// Compatibility driver: runs a serial TuningSession to completion.
  TuneResult tune(Measurer& measurer, const TuneOptions& options);

  /// Attaches a cross-run transfer prior (non-owning; must outlive the
  /// session; call before begin()). Policies that support warm starts seed
  /// their initialization stage from it and blend its meta-surrogate into
  /// scoring; policies that don't simply ignore it. Null detaches.
  void set_transfer_prior(const TransferPrior* prior) {
    transfer_prior_ = prior;
  }

 protected:
  /// Copied from options by the base begin(); subclasses that override
  /// begin() must call Tuner::begin() first to pick it up.
  Obs obs_;

  /// Cross-run prior attached via set_transfer_prior() (null = cold start).
  const TransferPrior* transfer_prior_ = nullptr;
};

/// Initial-set sampler signature: produces `m` distinct configurations to
/// bootstrap the search. The default is uniform random (AutoTVM); the
/// paper's BTED plugs in here.
using InitSampler = std::function<std::vector<Config>(
    const TuningTask& task, int m, Rng& rng)>;

/// Uniform-random initial sampler.
InitSampler random_init_sampler();

}  // namespace aal
