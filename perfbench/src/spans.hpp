// Wall-clock spans recorded from outside the library, at its public seams.
//
// The benchmark's traced run wraps the objects the pipeline calls into — the
// tuner (through a TunerFactory), the surrogate factory the tuner builds its
// models from, and the measurement backend — in decorators that time each
// call and forward it unchanged. Spans are kept in memory and written out
// when the run ends; nothing here reaches the library's deterministic trace.
// Self times and per-layer statistics are computed from the written spans
// by perfbench/spans.py.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "measure/backend.hpp"
#include "ml/surrogate.hpp"
#include "pipeline/model_tuner.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0 = no parent
  std::int64_t task = 0;    // spans of one task (or serve job) share this
  double start_ms = 0.0;
  double end_ms = 0.0;

  double duration_ms() const { return end_ms - start_ms; }
};

/// Thread-safe in-memory span log with one time origin.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  double now_ms() const;
  std::int64_t new_id() { return next_id_.fetch_add(1); }
  void record(Span span);
  std::vector<Span> spans() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::int64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Writes spans as one JSON array (name, id, parent, task, start/end ms).
void write_spans_json(const std::vector<Span>& spans, const std::string& path);

/// Wraps one tune_model call in spans. Usage:
///
///   Tracer tracer(recorder);
///   options.measure_backend = &tracer.backend();
///   tracer.begin_call();
///   tune_model(graph, target, tracer.wrap(make_tuner), options);
///   tracer.end_call();
///
/// Span tree: `tune_model` (root) → `session.task` per task →
/// `pipeline.task_setup`, `tuner.begin`, `core.init` (first propose),
/// `acquire` (later proposes), `measure.batch`, `tuner.observe`,
/// `tuner.finalize`; `surrogate.fit` nests under the tuner call that fitted.
///
/// The tuner decorator cannot forward Tuner::set_transfer_prior (it is not
/// virtual), so a traced run must attach no store and no transfer prior.
class Tracer {
 public:
  /// Builds the undecorated tuner from a (possibly decorated) surrogate
  /// factory. Only tuners built around a SurrogateFactory get fit spans.
  using TunerMaker = std::function<std::unique_ptr<aal::Tuner>(
      aal::TransferContext*, std::shared_ptr<const aal::SurrogateFactory>)>;

  explicit Tracer(SpanRecorder& recorder);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void begin_call();
  void end_call();

  aal::TunerFactory wrap(TunerMaker make,
                         std::shared_ptr<const aal::SurrogateFactory> base);
  aal::MeasureBackend& backend() { return *backend_; }

 private:
  SpanRecorder& recorder_;
  std::unique_ptr<aal::MeasureBackend> backend_;
  std::int64_t root_id_ = 0;
  double root_start_ms_ = 0.0;
  std::uint64_t generation_ = 0;
};

}  // namespace perfbench
