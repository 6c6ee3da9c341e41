#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_generation{0};

// Which task the calling lane thread is tuning. tune_model runs each task's
// factory call, session and finalize on one thread, so the factory wrapper
// sets this and the backend decorator reads it. `generation` ties the state
// to one tune_model call: a stale value from an earlier call is ignored.
struct LaneState {
  std::uint64_t generation = 0;
  double last_end_ms = 0.0;
  std::int64_t task_span = 0;
};
thread_local LaneState t_lane;

using ActiveSpan = std::shared_ptr<std::atomic<std::int64_t>>;

// Times Surrogate::fit. A fit may run on a pool thread while the tuner's
// propose/observe waits on the lane thread, so its parent is whichever tuner
// call is active on the owning tuner, not a thread-local.
class TracingSurrogate final : public aal::Surrogate {
 public:
  TracingSurrogate(std::unique_ptr<aal::Surrogate> inner,
                   SpanRecorder& recorder, ActiveSpan active,
                   std::int64_t task)
      : inner_(std::move(inner)),
        recorder_(recorder),
        active_(std::move(active)),
        task_(task) {}

  void fit(const aal::Dataset& data) override {
    const std::int64_t parent = active_->load();
    const double start = recorder_.now_ms();
    inner_->fit(data);
    recorder_.record(Span{"surrogate.fit", recorder_.new_id(), parent, task_,
                          start, recorder_.now_ms()});
  }
  double predict(std::span<const double> features) const override {
    return inner_->predict(features);
  }
  void predict_batch(std::span<const double> features, std::size_t rows,
                     std::span<double> out) const override {
    inner_->predict_batch(features, rows, out);
  }
  bool fitted() const override { return inner_->fitted(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<aal::Surrogate> inner_;
  SpanRecorder& recorder_;
  ActiveSpan active_;
  std::int64_t task_;
};

class TracingSurrogateFactory final : public aal::SurrogateFactory {
 public:
  TracingSurrogateFactory(std::shared_ptr<const aal::SurrogateFactory> inner,
                          SpanRecorder& recorder, ActiveSpan active,
                          std::int64_t task)
      : inner_(std::move(inner)),
        recorder_(recorder),
        active_(std::move(active)),
        task_(task) {}

  std::unique_ptr<aal::Surrogate> create(std::uint64_t seed) const override {
    return std::make_unique<TracingSurrogate>(inner_->create(seed), recorder_,
                                              active_, task_);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const aal::SurrogateFactory> inner_;
  SpanRecorder& recorder_;
  ActiveSpan active_;
  std::int64_t task_;
};

// Times every policy call the session makes and closes the task span at
// finalize. The first propose() is the initialization stage (BTED or random
// sampling); later ones are acquisition (BAO scoring or SA).
class TracingTuner final : public aal::Tuner {
 public:
  TracingTuner(std::unique_ptr<aal::Tuner> inner, SpanRecorder& recorder,
               std::int64_t root, std::int64_t task_span, double task_start_ms,
               ActiveSpan active, std::uint64_t generation)
      : inner_(std::move(inner)),
        recorder_(recorder),
        root_(root),
        task_span_(task_span),
        task_start_ms_(task_start_ms),
        active_(std::move(active)),
        generation_(generation) {}

  std::string name() const override { return inner_->name(); }

  void begin(const aal::Measurer& measurer,
             const aal::TuneOptions& options) override {
    recorder_.record(Span{"pipeline.task_setup", recorder_.new_id(),
                          task_span_, task_span_, task_start_ms_,
                          recorder_.now_ms()});
    timed("tuner.begin", [&] { inner_->begin(measurer, options); });
  }

  std::vector<aal::Config> propose(std::int64_t k) override {
    const char* name = proposed_ ? "acquire" : "core.init";
    proposed_ = true;
    std::vector<aal::Config> out;
    timed(name, [&] { out = inner_->propose(k); });
    return out;
  }

  void observe(std::span<const aal::MeasureResult> results) override {
    timed("tuner.observe", [&] { inner_->observe(results); });
  }

  void finalize(const aal::Measurer& measurer) override {
    timed("tuner.finalize", [&] { inner_->finalize(measurer); });
    const double end = recorder_.now_ms();
    recorder_.record(Span{"session.task", task_span_, root_, task_span_,
                          task_start_ms_, end});
    if (t_lane.generation == generation_) t_lane.last_end_ms = end;
  }

 private:
  template <typename Fn>
  void timed(const char* name, Fn&& fn) {
    const std::int64_t id = recorder_.new_id();
    active_->store(id);
    const double start = recorder_.now_ms();
    fn();
    const double end = recorder_.now_ms();
    active_->store(task_span_);
    recorder_.record(Span{name, id, task_span_, task_span_, start, end});
  }

  std::unique_ptr<aal::Tuner> inner_;
  SpanRecorder& recorder_;
  std::int64_t root_;
  std::int64_t task_span_;
  double task_start_ms_;
  ActiveSpan active_;
  std::uint64_t generation_;
  bool proposed_ = false;
};

// Times MeasureBackend::dispatch over a serial backend — the backend a
// session uses when ModelTuneOptions::measure_backend is null, so traced and
// untraced runs schedule measurement identically.
class TracingBackend final : public aal::MeasureBackend {
 public:
  explicit TracingBackend(SpanRecorder& recorder) : recorder_(recorder) {}

  const char* name() const override { return inner_.name(); }
  void dispatch(std::size_t n,
                const std::function<void(std::size_t)>& fn) override {
    const std::int64_t parent = t_lane.task_span;
    const double start = recorder_.now_ms();
    inner_.dispatch(n, fn);
    recorder_.record(Span{"measure.batch", recorder_.new_id(), parent, parent,
                          start, recorder_.now_ms()});
  }

 private:
  SpanRecorder& recorder_;
  aal::SerialBackend inner_;
};

}  // namespace

double SpanRecorder::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void SpanRecorder::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void write_spans_json(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,\"task\":%lld,"
                  "\"start_ms\":%.6f,\"end_ms\":%.6f}",
                  s.name.c_str(), static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.task), s.start_ms, s.end_ms);
    os << buf << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

Tracer::Tracer(SpanRecorder& recorder)
    : recorder_(recorder),
      backend_(std::make_unique<TracingBackend>(recorder)) {}

void Tracer::begin_call() {
  generation_ = g_generation.fetch_add(1) + 1;
  root_id_ = recorder_.new_id();
  root_start_ms_ = recorder_.now_ms();
}

void Tracer::end_call() {
  recorder_.record(Span{"tune_model", root_id_, 0, 0, root_start_ms_,
                        recorder_.now_ms()});
}

aal::TunerFactory Tracer::wrap(
    TunerMaker make, std::shared_ptr<const aal::SurrogateFactory> base) {
  return [this, make = std::move(make),
          base = std::move(base)](aal::TransferContext* transfer) {
    // Runs on the lane thread, after the pipeline has built the task's
    // space, device and measurer: the task started when the previous task
    // on this thread finished, or when the call began.
    const double start =
        t_lane.generation == generation_ ? t_lane.last_end_ms : root_start_ms_;
    const std::int64_t task_span = recorder_.new_id();
    t_lane = LaneState{generation_, start, task_span};
    auto active = std::make_shared<std::atomic<std::int64_t>>(task_span);
    auto surrogates = std::make_shared<TracingSurrogateFactory>(
        base, recorder_, active, task_span);
    std::unique_ptr<aal::Tuner> inner = make(transfer, std::move(surrogates));
    return std::unique_ptr<aal::Tuner>(std::make_unique<TracingTuner>(
        std::move(inner), recorder_, root_id_, task_span, start,
        std::move(active), generation_));
  };
}

}  // namespace perfbench
