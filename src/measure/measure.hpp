// Measurement layer: deploys configurations on the (simulated) device and
// returns GFLOPS, the optimization objective of Problem 1 in the paper.
//
// Counting semantics match AutoTVM: each *configuration* measured counts one
// unit of tuning budget regardless of timing repeats; failed builds count
// too (the time was spent). The measurer memoizes by flat index so a tuner
// re-visiting a config does not consume extra budget — and per the paper's
// Fig. 5(a) we report the number of distinct measured configurations.
//
// Transient-fault robustness: a RetryPolicy lets a measurement consume up to
// `max_attempts` device attempts. Transient failures (injected timeouts,
// flaky launches, dead workers — see hwsim/fault.hpp) are retried with
// deterministic exponential backoff accounted in *simulated* time; permanent
// failures (build errors) are re-checked only up to `permanent_tolerance`
// observations. A config whose retry budget runs dry is *quarantined*:
// committed to the memo cache as failed and never dispatched to the device
// again. Budget is charged once per config — retries are free but traced
// (measure_retry / fault_injected / quarantine events, measure.retries /
// measure.transient_faults / measure.quarantined counters).
//
// The measurer is thread-safe. Batch measurement follows a
// "parallel compute, serial commit" protocol: the per-config device runs of
// a batch are pure (counter-based noise and counter-based fault draws, see
// hwsim/device.hpp and hwsim/fault.hpp) and may be scheduled concurrently by
// a MeasureBackend; the results are then committed to the memo cache
// strictly in input order, and all retry/fault/quarantine trace events are
// emitted during that serial commit. Cache contents, commit order, emitted
// events and best-so-far tracking are therefore identical for every backend
// and thread count — with or without fault injection.
#pragma once

#include <algorithm>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "hwsim/device.hpp"
#include "measure/backend.hpp"
#include "measure/record.hpp"
#include "measure/tuning_task.hpp"
#include "obs/obs.hpp"

namespace aal {

/// How many device attempts a single configuration's measurement may
/// consume, and how failures are classified along the way.
struct RetryPolicy {
  /// Total device attempts per config (1 = no retries, the historical
  /// behavior). Transient failures retry until this cap.
  int max_attempts = 1;
  /// How many *permanent* failures (build errors) are observed before the
  /// config is given up. 1 = trust the permanent classification (default);
  /// larger values re-check — a config failing permanently that many times
  /// is quarantined ("repeated permanents").
  int permanent_tolerance = 1;
  /// Simulated backoff before retry k (zero-based): base * 2^k microseconds.
  /// Pure arithmetic — never wall-clock — so backoff accounting is
  /// deterministic at any thread count.
  double backoff_base_us = 100.0;

  double backoff_us(int attempt) const {
    return backoff_base_us * static_cast<double>(1LL << std::min(attempt, 40));
  }
};

/// Measurement-layer options. Budget accounting lives in the TuningSession
/// and the noise seed in the Device, so the Measurer reads only these.
struct MeasureOptions {
  /// Timing runs averaged per measurement (AutoTVM default-ish).
  int repeats = 3;
  /// Measurement retry knobs (defaults: one attempt, no retries).
  RetryPolicy retry;
};

/// One transient fault observed while measuring a config, recorded so the
/// serial commit phase can emit deterministic fault_injected events.
struct FaultObservation {
  int attempt = 0;     // zero-based attempt index that faulted
  std::string kind;    // fault kind wire name ("timeout", ...)
};

struct MeasureResult {
  Config config;
  bool ok = false;
  std::string error;
  double gflops = 0.0;        // 0 for failed configs
  double mean_time_us = 0.0;  // 0 for failed configs

  // Retry provenance (diagnostics; budget is charged once regardless).
  int attempts = 1;             // device attempts consumed
  double backoff_us = 0.0;      // simulated backoff time spent
  bool quarantined = false;     // retry budget ran dry on this config
  std::vector<FaultObservation> faults;  // transient faults survived

  /// True when this result was adopted from persisted records (resume log
  /// or RecordStore) instead of being measured in this session.
  bool preloaded = false;
};

/// Where preloaded records came from — the distinction only affects which
/// metric the adoption counts under (and whether a store_hit trace event is
/// emitted): resume logs count `measure.preloaded`, RecordStore rows count
/// `store.hits`. Cache semantics are identical.
enum class PreloadSource : int { kResumeLog, kStore };

class Measurer {
 public:
  /// Validates options (repeats >= 1, max_attempts >= 1,
  /// permanent_tolerance >= 1, backoff_base_us >= 0; throws
  /// InvalidArgument). The device is borrowed and must outlive the
  /// measurer; wrap it in a FaultyDevice to inject faults.
  Measurer(const TuningTask& task, const Device& device,
           MeasureOptions options = MeasureOptions{});

  const TuningTask& task() const { return task_; }

  /// Attaches an observability handle. Batch measurement then emits
  /// measure_batch_begin/end trace events (plus measure_retry /
  /// fault_injected / quarantine when the retry machinery engages) and
  /// maintains the measure.* counters (configs_measured, cache_hits,
  /// failures, batches, preloaded, retries, transient_faults, quarantined).
  /// Preloaded records count `measure.preloaded`, never
  /// `measure.configs_measured` — resuming a session is free.
  void set_obs(Obs obs) { obs_ = std::move(obs); }
  const Obs& obs() const { return obs_; }

  /// Measures one configuration (memoized by flat index). The returned
  /// reference stays valid for the measurer's lifetime (node-based cache).
  const MeasureResult& measure(const Config& config);

  /// True if this flat index is already in the memo cache.
  bool is_cached(std::int64_t flat) const;

  /// True if this flat index was quarantined (its retry budget ran dry).
  /// Quarantined configs live in the memo cache as failed results, so they
  /// are never dispatched to the device again.
  bool is_quarantined(std::int64_t flat) const;

  /// Number of quarantined configurations so far.
  std::int64_t num_quarantined() const;

  /// Cached result for a flat index, or nullptr if it has not been measured.
  /// The pointer stays valid for the measurer's lifetime (node-based cache).
  const MeasureResult* find(std::int64_t flat) const;

  /// Seeds the memo cache from previously persisted records of *this* task
  /// (records for other task keys are ignored). Resuming an interrupted
  /// tuning session this way makes historical measurements free: revisits
  /// hit the cache and consume no budget. Failed records keep their
  /// persisted error string. Returns the number of records adopted.
  ///
  /// `source` picks the metric the adoption counts under: resume logs bump
  /// `measure.preloaded`, RecordStore rows bump `store.hits` and emit a
  /// store_hit trace event (only when at least one record was adopted, so
  /// an empty store leaves the trace byte-identical to a storeless run).
  std::size_t preload(const std::vector<TuningRecord>& records,
                      PreloadSource source = PreloadSource::kResumeLog);

  /// Measures a batch serially; results align with the input order.
  std::vector<MeasureResult> measure_batch(std::span<const Config> configs);

  /// Measures a batch through the given backend. Uncached configurations are
  /// computed (possibly concurrently) and committed to the cache in input
  /// order; results align with the input order and are bitwise-identical to
  /// the serial path.
  std::vector<MeasureResult> measure_batch(std::span<const Config> configs,
                                           MeasureBackend& backend);

  /// Number of distinct configurations measured so far.
  std::int64_t num_measured() const;

  /// Best successful result so far, if any.
  std::optional<MeasureResult> best() const;

  /// All measured results, in the order they were committed to the cache
  /// (deterministic: preload order, then measurement commit order).
  std::vector<MeasureResult> all_results() const;

  /// Results measured in *this* session (all_results minus preloads), in
  /// commit order. This is what flushes back to a RecordStore — re-appending
  /// rows that came from the store would duplicate them on every run.
  std::vector<MeasureResult> fresh_results() const;

  /// Results adopted from persisted records, in commit order.
  std::vector<MeasureResult> preloaded_results() const;

 private:
  /// Pure per-config measurement incl. the retry loop: no shared-state
  /// mutation besides the device's diagnostic run counter (atomic).
  MeasureResult compute(const Config& config) const;

  /// Inserts a freshly computed result; caller must hold mutex_.
  const MeasureResult& commit_locked(MeasureResult result);

  /// Bumps retry/fault/quarantine counters for a freshly computed result.
  void count_retry_metrics(const MeasureResult& result) const;

  /// Emits the deterministic per-config retry trace events (fault_injected,
  /// measure_retry, quarantine) for a freshly committed result. Must be
  /// called in commit order, outside mutex_.
  void emit_retry_events(const MeasureResult& result) const;

  const TuningTask& task_;
  const Device& device_;
  MeasureOptions options_;
  Obs obs_;
  mutable std::mutex mutex_;
  std::unordered_map<std::int64_t, MeasureResult> cache_;
  std::vector<std::int64_t> order_;  // flats in commit order
  std::unordered_set<std::int64_t> quarantined_;
  std::int64_t best_flat_ = -1;
  double best_gflops_ = 0.0;
};

}  // namespace aal
