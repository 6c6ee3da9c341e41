#include "measure/measure.hpp"

#include <utility>

#include "support/common.hpp"

namespace aal {

Measurer::Measurer(const TuningTask& task, const Device& device,
                   MeasureOptions options)
    : task_(task), device_(device), options_(std::move(options)) {
  AAL_CHECK(options_.repeats >= 1, "repeats must be >= 1");
  AAL_CHECK(options_.retry.max_attempts >= 1, "max_attempts must be >= 1");
  AAL_CHECK(options_.retry.permanent_tolerance >= 1,
            "permanent_tolerance must be >= 1");
  AAL_CHECK(options_.retry.backoff_base_us >= 0.0,
            "backoff_base_us must be >= 0");
}

MeasureResult Measurer::compute(const Config& config) const {
  const KernelProfile profile = task_.profile(config);
  const RetryPolicy& policy = options_.retry;

  MeasureResult result;
  result.config = config;

  // Retry loop. Every branch in here depends only on (config, attempt index)
  // — the device outcome is a pure counter-based function of both — so the
  // attempt trail, backoff total and final outcome are identical no matter
  // which thread runs this or in what order.
  int attempt = 0;
  int permanents = 0;
  MeasureOutcome outcome;
  while (true) {
    outcome = device_.run(profile, task_.workload().flops(), options_.repeats,
                          config.flat, attempt);
    ++attempt;
    if (outcome.ok) break;
    if (outcome.transient) {
      result.faults.push_back(FaultObservation{attempt - 1, outcome.fault});
    } else {
      // Permanent (build) failures are only re-checked while the tolerance
      // allows; the default tolerance of 1 trusts the classification.
      ++permanents;
      if (permanents >= policy.permanent_tolerance) break;
    }
    if (attempt >= policy.max_attempts) break;
    // Backoff is accounted in simulated time (pure arithmetic), never slept.
    result.backoff_us += policy.backoff_us(attempt - 1);
  }

  result.ok = outcome.ok;
  result.error = outcome.error;
  result.gflops = outcome.gflops;
  result.mean_time_us = outcome.mean_time_us;
  result.attempts = attempt;
  // Quarantine only configs on which the retry machinery actually engaged
  // and still lost: a plain first-attempt build error is a normal failed
  // measurement (the historical behavior), not a quarantine.
  result.quarantined =
      !outcome.ok && (!result.faults.empty() || attempt > 1);
  return result;
}

const MeasureResult& Measurer::commit_locked(MeasureResult result) {
  const std::int64_t flat = result.config.flat;
  auto [pos, inserted] = cache_.emplace(flat, std::move(result));
  AAL_ASSERT(inserted, "measure cache collision");
  order_.push_back(flat);
  if (pos->second.quarantined) quarantined_.insert(flat);
  if (pos->second.ok && pos->second.gflops > best_gflops_) {
    best_gflops_ = pos->second.gflops;
    best_flat_ = flat;
  }
  return pos->second;
}

void Measurer::count_retry_metrics(const MeasureResult& result) const {
  // Guarded so fault-free runs create no zero-valued retry counters and
  // their metrics snapshots stay byte-identical to pre-retry builds.
  if (result.attempts > 1) {
    obs_.count("measure.retries", result.attempts - 1);
  }
  if (!result.faults.empty()) {
    obs_.count("measure.transient_faults",
               static_cast<std::int64_t>(result.faults.size()));
  }
  if (result.quarantined) obs_.count("measure.quarantined");
}

void Measurer::emit_retry_events(const MeasureResult& result) const {
  const std::int64_t flat = result.config.flat;
  for (const FaultObservation& f : result.faults) {
    obs_.emit(TraceEventType::kFaultInjected,
              {{"flat", TraceValue(flat)},
               {"attempt", TraceValue(f.attempt)},
               {"kind", TraceValue(f.kind)}});
  }
  if (result.attempts > 1) {
    obs_.emit(TraceEventType::kMeasureRetry,
              {{"flat", TraceValue(flat)},
               {"attempts", TraceValue(result.attempts)},
               {"faults", TraceValue(result.faults.size())},
               {"backoff_us", TraceValue(result.backoff_us)},
               {"ok", TraceValue(result.ok)}});
  }
  if (result.quarantined) {
    obs_.emit(TraceEventType::kQuarantine,
              {{"flat", TraceValue(flat)},
               {"attempts", TraceValue(result.attempts)},
               {"cause", TraceValue(result.faults.empty() ? "permanent"
                                                          : "transient")}});
  }
}

const MeasureResult& Measurer::measure(const Config& config) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(config.flat);
    if (it != cache_.end()) {
      obs_.count("measure.cache_hits");
      return it->second;
    }
  }
  // Compute outside the lock: the device draw is a pure function of
  // (seed, flat, repeat), so a concurrent racer would compute the identical
  // result — whichever commits first wins and the other copy is dropped.
  MeasureResult result = compute(config);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(config.flat);
  if (it != cache_.end()) {
    obs_.count("measure.cache_hits");
    return it->second;
  }
  obs_.count("measure.configs_measured");
  if (!result.ok) obs_.count("measure.failures");
  count_retry_metrics(result);
  return commit_locked(std::move(result));
}

bool Measurer::is_cached(std::int64_t flat) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.contains(flat);
}

bool Measurer::is_quarantined(std::int64_t flat) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return quarantined_.contains(flat);
}

std::int64_t Measurer::num_quarantined() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(quarantined_.size());
}

const MeasureResult* Measurer::find(std::int64_t flat) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(flat);
  return it == cache_.end() ? nullptr : &it->second;
}

std::size_t Measurer::preload(const std::vector<TuningRecord>& records,
                              PreloadSource source) {
  const std::string key = task_.key();
  std::size_t adopted = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const TuningRecord& r : records) {
      if (r.task_key != key) continue;
      if (r.config_flat < 0 || r.config_flat >= task_.space().size()) continue;
      if (cache_.contains(r.config_flat)) continue;
      MeasureResult result;
      result.config = task_.space().at(r.config_flat);
      result.ok = r.ok;
      result.gflops = r.gflops;
      result.mean_time_us = r.mean_time_us;
      result.preloaded = true;
      if (!r.ok) {
        // Records written before the error column existed load with an empty
        // error string; keep the historical placeholder for those.
        result.error =
            r.error.empty() ? "failed in a previous session" : r.error;
      }
      commit_locked(std::move(result));
      ++adopted;
    }
  }
  // Preloaded configs are budget-free: they count their own metric, not
  // measure.configs_measured, and later revisits count as cache hits.
  if (source == PreloadSource::kStore) {
    // Counted and emitted only when the store actually contributed, so a run
    // against an empty store stays byte-identical (trace and metrics) to a
    // storeless run.
    if (adopted > 0) {
      obs_.count("store.hits", static_cast<std::int64_t>(adopted));
      obs_.emit(TraceEventType::kStoreHit,
                {{"offered", TraceValue(records.size())},
                 {"hits", TraceValue(adopted)}});
    }
  } else {
    obs_.count("measure.preloaded", static_cast<std::int64_t>(adopted));
  }
  return adopted;
}

std::vector<MeasureResult> Measurer::fresh_results() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MeasureResult> out;
  for (const std::int64_t flat : order_) {
    const MeasureResult& r = cache_.at(flat);
    if (!r.preloaded) out.push_back(r);
  }
  return out;
}

std::vector<MeasureResult> Measurer::preloaded_results() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MeasureResult> out;
  for (const std::int64_t flat : order_) {
    const MeasureResult& r = cache_.at(flat);
    if (r.preloaded) out.push_back(r);
  }
  return out;
}

std::vector<MeasureResult> Measurer::measure_batch(
    std::span<const Config> configs) {
  // Route through a local SerialBackend so the serial path emits the same
  // batch events and metrics as the parallel one — which is also what lets
  // the golden-trace test compare them byte for byte.
  SerialBackend backend;
  return measure_batch(configs, backend);
}

std::vector<MeasureResult> Measurer::measure_batch(
    std::span<const Config> configs, MeasureBackend& backend) {
  // Phase 1: pick the first occurrence of every uncached flat, in input
  // order. This is the only order that matters — phase 3 commits in exactly
  // this order regardless of how phase 2 schedules the computation.
  std::vector<std::size_t> fresh_index;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<std::int64_t, bool> seen;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const std::int64_t flat = configs[i].flat;
      if (cache_.contains(flat)) continue;
      if (!seen.emplace(flat, true).second) continue;
      fresh_index.push_back(i);
    }
  }

  const std::int64_t cached =
      static_cast<std::int64_t>(configs.size() - fresh_index.size());
  obs_.count("measure.batches");
  obs_.count("measure.cache_hits", cached);
  obs_.emit(TraceEventType::kMeasureBatchBegin,
            {{"batch", TraceValue(configs.size())},
             {"fresh", TraceValue(fresh_index.size())},
             {"cached", TraceValue(cached)}},
            {{"backend", TraceValue(backend.name())}});

  // Phase 2: compute fresh results, possibly concurrently. compute() is
  // pure — including its retry loop and fault draws — so the schedule
  // cannot affect any value.
  std::vector<MeasureResult> fresh(fresh_index.size());
  backend.dispatch(fresh_index.size(), [&](std::size_t j) {
    fresh[j] = compute(configs[fresh_index[j]]);
  });
  obs_.gauge_max("pool.queue_high_water",
                 static_cast<std::int64_t>(backend.queue_high_water()));

  // Phase 3: serial commit in input order. Committed results are collected
  // (cache nodes are pointer-stable) so the retry/fault/quarantine events
  // can be emitted after the lock drops, still in commit order — the trace
  // is identical for every backend.
  std::int64_t committed = 0;
  std::int64_t failures = 0;
  std::vector<const MeasureResult*> committed_results;
  committed_results.reserve(fresh.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (MeasureResult& r : fresh) {
      if (cache_.contains(r.config.flat)) continue;  // raced external caller
      if (!r.ok) ++failures;
      committed_results.push_back(&commit_locked(std::move(r)));
      ++committed;
    }
  }
  obs_.count("measure.configs_measured", committed);
  obs_.count("measure.failures", failures);
  for (const MeasureResult* r : committed_results) {
    count_retry_metrics(*r);
    emit_retry_events(*r);
  }
  obs_.emit(TraceEventType::kMeasureBatchEnd,
            {{"batch", TraceValue(configs.size())},
             {"measured", TraceValue(committed)},
             {"cache_hits", TraceValue(cached)},
             {"failures", TraceValue(failures)}});

  // Phase 4: aligned output from the cache.
  std::vector<MeasureResult> out;
  out.reserve(configs.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Config& c : configs) {
    auto it = cache_.find(c.flat);
    AAL_ASSERT(it != cache_.end(), "batch result missing from cache");
    out.push_back(it->second);
  }
  return out;
}

std::int64_t Measurer::num_measured() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(cache_.size());
}

std::optional<MeasureResult> Measurer::best() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (best_flat_ < 0) return std::nullopt;
  return cache_.at(best_flat_);
}

std::vector<MeasureResult> Measurer::all_results() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MeasureResult> out;
  out.reserve(order_.size());
  for (const std::int64_t flat : order_) out.push_back(cache_.at(flat));
  return out;
}

}  // namespace aal
