#include "serve/server.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "graph/model_parser.hpp"
#include "graph/models.hpp"
#include "hwsim/target.hpp"
#include "pipeline/model_tuner.hpp"
#include "space/template_registry.hpp"
#include "support/common.hpp"

namespace aal {

namespace {

bool is_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

/// The CLI's model resolution: an existing file parses as a model file,
/// anything else must be a zoo name.
Graph load_job_model(const std::string& spec) {
  if (std::filesystem::exists(spec)) return parse_model_file(spec);
  return make_model(spec);
}

}  // namespace

const char* job_state_name(JobState state, bool cancelling) {
  if (cancelling && state == JobState::kRunning) return "cancelling";
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

std::vector<TraceEvent> JobTraceSink::events_from(std::int64_t cursor) const {
  std::lock_guard<std::mutex> lock(events_mutex_);
  if (cursor < 0) cursor = 0;
  if (cursor >= static_cast<std::int64_t>(events_.size())) return {};
  return std::vector<TraceEvent>(events_.begin() + cursor, events_.end());
}

void JobTraceSink::write(const TraceEvent& event) {
  {
    std::lock_guard<std::mutex> lock(events_mutex_);
    events_.push_back(event);
  }
  count_.fetch_add(1, std::memory_order_release);
}

TuneServer::TuneServer(TuneServerOptions options)
    : options_(std::move(options)) {
  AAL_CHECK(options_.workers >= 1, "workers must be >= 1");
  AAL_CHECK(options_.max_queued >= 1, "max_queued must be >= 1");
  AAL_CHECK(options_.tenant_quota >= 1, "tenant_quota must be >= 1");
  AAL_CHECK(options_.max_budget >= 1, "max_budget must be >= 1");
  if (!options_.store_dir.empty()) {
    RecordStoreOptions store_options;
    store_options.read_only = options_.store_readonly;
    store_ = std::make_unique<RecordStore>(options_.store_dir, store_options);
  }
  if (options_.measure_threads > 0) {
    backend_ = std::make_unique<ParallelBackend>(
        static_cast<std::size_t>(options_.measure_threads));
  }
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

TuneServer::~TuneServer() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
    stop_ = true;
    for (const auto& entry : queue_) {
      finish_locked(*jobs_.at(std::get<1>(entry)), JobState::kCancelled);
    }
    queue_.clear();
    for (auto& [id, job] : jobs_) {
      if (job->state == JobState::kRunning) {
        job->cancel.store(true, std::memory_order_relaxed);
      }
    }
  }
  queue_cv_.notify_all();
  progress_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TuneServer::reject(ServeErrorCode code, const std::string& message) {
  metrics_.counter("serve.rejected").add();
  metrics_.counter(std::string("serve.rejected.") +
                   serve_error_code_name(code)).add();
  throw ServeError(code, message);
}

std::int64_t TuneServer::submit(const JobSpec& spec) {
  try {
    spec.validate();
  } catch (const ServeError& e) {
    reject(e.code(), e.what());
  }
  if (spec.budget > options_.max_budget) {
    reject(ServeErrorCode::kBadRequest,
           "\"budget\" exceeds the server's per-job ceiling of " +
               std::to_string(options_.max_budget));
  }
  try {
    (void)tuner_factory_by_name(spec.tuner);
  } catch (const std::exception& e) {
    reject(ServeErrorCode::kBadTuner, e.what());
  }
  try {
    const TargetSpec target = make_target(spec.target);
    // Template-name validity is checked at admission like target/tuner, so
    // a typo fails the submit rather than the job.
    (void)TemplateRegistry::instance().resolve(spec.schedule_template,
                                               target);
  } catch (const std::exception& e) {
    reject(ServeErrorCode::kBadTarget, e.what());
  }
  try {
    (void)load_job_model(spec.model);
  } catch (const std::exception& e) {
    reject(ServeErrorCode::kBadModel, e.what());
  }

  std::int64_t id = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      reject(ServeErrorCode::kShuttingDown,
             "server is draining; new jobs are not admitted");
    }
    if (queue_.size() >= options_.max_queued) {
      reject(ServeErrorCode::kQueueFull,
             "job queue is full (" + std::to_string(options_.max_queued) +
                 " queued)");
    }
    const auto tenant_it = tenant_active_.find(spec.tenant);
    if (tenant_it != tenant_active_.end() &&
        tenant_it->second >= options_.tenant_quota) {
      reject(ServeErrorCode::kQuotaExceeded,
             "tenant \"" + spec.tenant + "\" already has " +
                 std::to_string(tenant_it->second) +
                 " active jobs (quota " +
                 std::to_string(options_.tenant_quota) + ")");
    }
    id = next_id_++;
    auto job = std::make_unique<Job>();
    job->id = id;
    job->spec = spec;
    queue_.insert({-spec.priority, id});
    ++tenant_active_[spec.tenant];
    jobs_.emplace(id, std::move(job));
    metrics_.counter("serve.submitted").add();
    metrics_.gauge("serve.jobs_queued")
        .set(static_cast<std::int64_t>(queue_.size()));
    metrics_.gauge("serve.queue_high_water")
        .max_of(static_cast<std::int64_t>(queue_.size()));
  }
  queue_cv_.notify_one();
  return id;
}

TuneServer::Job& TuneServer::find_job_locked(std::int64_t id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw ServeError(ServeErrorCode::kUnknownJob,
                     "no job " + std::to_string(id));
  }
  return *it->second;
}

JobInfo TuneServer::snapshot_locked(const Job& job) const {
  JobInfo info;
  info.id = job.id;
  info.spec = job.spec;
  info.state = job.state;
  info.cancelling = job.state == JobState::kRunning &&
                    job.cancel.load(std::memory_order_relaxed);
  info.trace_steps = job.trace.count();
  info.measured = is_terminal(job.state)
                      ? job.measured
                      : job.job_metrics.counter_value(
                            "measure.configs_measured");
  info.best_gflops = job.best_gflops;
  info.error = job.error;
  return info;
}

JobInfo TuneServer::status(std::int64_t job) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_locked(find_job_locked(job));
}

std::vector<JobInfo> TuneServer::list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobInfo> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(snapshot_locked(*job));
  return out;
}

void TuneServer::finish_locked(Job& job, JobState state) {
  job.state = state;
  const auto it = tenant_active_.find(job.spec.tenant);
  if (it != tenant_active_.end() && --it->second <= 0) {
    tenant_active_.erase(it);
  }
  switch (state) {
    case JobState::kDone:
      metrics_.counter("serve.jobs_done").add();
      break;
    case JobState::kFailed:
      metrics_.counter("serve.jobs_failed").add();
      break;
    case JobState::kCancelled:
      metrics_.counter("serve.jobs_cancelled").add();
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      break;
  }
  metrics_.gauge("serve.jobs_queued")
      .set(static_cast<std::int64_t>(queue_.size()));
}

bool TuneServer::cancel(std::int64_t id) {
  bool changed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Job& job = find_job_locked(id);
    if (job.state == JobState::kQueued) {
      queue_.erase({-job.spec.priority, job.id});
      finish_locked(job, JobState::kCancelled);
      changed = true;
    } else if (job.state == JobState::kRunning &&
               !job.cancel.load(std::memory_order_relaxed)) {
      job.cancel.store(true, std::memory_order_relaxed);
      changed = true;
    }
  }
  if (changed) progress_cv_.notify_all();
  return changed;
}

std::vector<std::string> TuneServer::stream_lines(std::int64_t id,
                                                  std::int64_t* cursor,
                                                  bool* finished) const {
  const JobTraceSink* sink = nullptr;
  bool terminal = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const Job& job = find_job_locked(id);
    sink = &job.trace;
    terminal = is_terminal(job.state);
  }
  // Terminal state is read *before* the events: once a job is terminal no
  // more events arrive, so a drain that observed `terminal` is complete.
  std::vector<std::string> lines;
  for (const TraceEvent& e : sink->events_from(*cursor)) {
    lines.push_back(to_jsonl_line(e));
  }
  *cursor += static_cast<std::int64_t>(lines.size());
  if (finished != nullptr) {
    *finished = terminal && *cursor >= sink->count();
  }
  return lines;
}

void TuneServer::wait_progress(std::int64_t id, std::int64_t cursor,
                               std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(mutex_);
  const Job& job = find_job_locked(id);
  const auto ready = [&] {
    return is_terminal(job.state) || job.trace.count() > cursor;
  };
  // Event arrival does not signal progress_cv_ (the trace sink must never
  // take the server lock from inside a session), so poll in short slices.
  while (!ready()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    progress_cv_.wait_for(
        lock, std::min<std::chrono::steady_clock::duration>(
                  deadline - now, std::chrono::milliseconds(10)));
  }
}

JobInfo TuneServer::wait_job(std::int64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  Job& job = find_job_locked(id);
  progress_cv_.wait(lock, [&] { return is_terminal(job.state); });
  return snapshot_locked(job);
}

void TuneServer::wait_idle() const {
  std::unique_lock<std::mutex> lock(mutex_);
  progress_cv_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

void TuneServer::begin_shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  progress_cv_.notify_all();
}

bool TuneServer::shutting_down() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutting_down_;
}

void TuneServer::worker_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      const auto it = queue_.begin();
      job = jobs_.at(std::get<1>(*it)).get();
      queue_.erase(it);
      job->state = JobState::kRunning;
      ++running_;
      metrics_.gauge("serve.jobs_queued")
          .set(static_cast<std::int64_t>(queue_.size()));
      metrics_.gauge("serve.jobs_running").set(running_);
    }
    progress_cv_.notify_all();
    run_job(*job);
  }
}

void TuneServer::run_job(Job& job) {
  JobState final_state = JobState::kDone;
  try {
    const Graph g = load_job_model(job.spec.model);
    const TargetSpec target = make_target(job.spec.target);
    const TunerFactory factory = tuner_factory_by_name(job.spec.tuner);

    // Exactly the CLI `tune` derivations at jobs=1 — the determinism
    // contract: this job's trace is byte-identical to the standalone run.
    ModelTuneOptions options;
    options.tune.budget = job.spec.budget;
    options.tune.early_stopping = job.spec.early_stop;
    options.tune.seed = static_cast<std::uint64_t>(job.spec.seed);
    options.tune.cancel = &job.cancel;
    options.device_seed = options.tune.seed * 1009 + 7;
    options.jobs = 1;
    options.trace = &job.trace;
    options.metrics = &job.job_metrics;
    options.store = store_.get();
    // Warm-start from fleet history on request; degrades to a no-op when
    // the daemon runs storeless (the prior needs store history to read).
    options.transfer.enabled = job.spec.transfer;
    options.schedule_template = job.spec.schedule_template;
    options.measure_backend = backend_.get();

    const ModelTuneReport report = tune_model(g, target, factory, options);

    double best = 0.0;
    for (const TaskTuneReport& t : report.tasks) {
      best = std::max(best, t.result.best_gflops());
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job.best_gflops = best;
      job.measured = report.total_measured();
    }
    if (job.cancel.load(std::memory_order_relaxed)) {
      final_state = JobState::kCancelled;
    }
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job.error = e.what();
      job.measured =
          job.job_metrics.counter_value("measure.configs_measured");
    }
    final_state = JobState::kFailed;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --running_;
    finish_locked(job, final_state);
    metrics_.gauge("serve.jobs_running").set(running_);
  }
  progress_cv_.notify_all();
}

namespace {

std::vector<TraceField> status_fields(const JobInfo& info) {
  std::vector<TraceField> fields = {
      {"job", TraceValue(info.id)},
      {"state", TraceValue(info.state_name())},
      {"model", TraceValue(info.spec.model)},
      {"target", TraceValue(info.spec.target)},
      {"tuner", TraceValue(info.spec.tuner)},
      {"tenant", TraceValue(info.spec.tenant)},
      {"priority", TraceValue(info.spec.priority)},
      {"budget", TraceValue(info.spec.budget)},
      {"seed", TraceValue(info.spec.seed)},
      {"measured", TraceValue(info.measured)},
      {"trace_steps", TraceValue(info.trace_steps)},
      {"best_gflops", TraceValue(info.best_gflops)},
  };
  // Additive-optional, mirroring JobSpec::to_fields(): absent for
  // default-template jobs so pinned status lines are unchanged.
  if (!info.spec.schedule_template.empty()) {
    fields.push_back({"template", TraceValue(info.spec.schedule_template)});
  }
  if (!info.error.empty()) {
    fields.push_back({"error", TraceValue(info.error)});
  }
  return fields;
}

}  // namespace

std::vector<std::string> TuneServer::handle_request(const ServeRequest& req) {
  switch (req.op) {
    case ServeOp::kHello:
      return {serve_ok_line(
          req.id, {{"version", TraceValue(kServeProtocolVersion)}})};
    case ServeOp::kSubmit: {
      const std::int64_t job = submit(req.spec);
      return {serve_ok_line(req.id, {{"job", TraceValue(job)},
                                     {"state", TraceValue("queued")}})};
    }
    case ServeOp::kStatus:
      return {serve_ok_line(req.id, status_fields(status(req.job)))};
    case ServeOp::kCancel: {
      const bool changed = cancel(req.job);
      const JobInfo info = status(req.job);
      return {serve_ok_line(req.id,
                            {{"job", TraceValue(info.id)},
                             {"state", TraceValue(info.state_name())},
                             {"changed", TraceValue(changed)}})};
    }
    case ServeOp::kList: {
      const std::vector<JobInfo> infos = list();
      std::vector<std::string> frames;
      frames.reserve(infos.size() + 2);
      frames.push_back(serve_ok_line(
          req.id, {{"frame", TraceValue("begin")},
                   {"count", TraceValue(infos.size())}}));
      for (const JobInfo& info : infos) {
        frames.push_back(serve_ok_line(
            req.id, {{"frame", TraceValue("job")},
                     {"job", TraceValue(info.id)},
                     {"state", TraceValue(info.state_name())},
                     {"model", TraceValue(info.spec.model)},
                     {"tenant", TraceValue(info.spec.tenant)},
                     {"priority", TraceValue(info.spec.priority)},
                     {"measured", TraceValue(info.measured)},
                     {"best_gflops", TraceValue(info.best_gflops)}}));
      }
      frames.push_back(
          serve_ok_line(req.id, {{"frame", TraceValue("end")}}));
      return frames;
    }
    case ServeOp::kStats: {
      std::int64_t queued = 0;
      std::int64_t running = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        queued = static_cast<std::int64_t>(queue_.size());
        running = running_;
      }
      return {serve_ok_line(
          req.id,
          {{"version", TraceValue(kServeProtocolVersion)},
           {"workers", TraceValue(options_.workers)},
           {"queued", TraceValue(queued)},
           {"running", TraceValue(running)},
           {"submitted", TraceValue(metrics_.counter_value("serve.submitted"))},
           {"rejected", TraceValue(metrics_.counter_value("serve.rejected"))},
           {"done", TraceValue(metrics_.counter_value("serve.jobs_done"))},
           {"failed", TraceValue(metrics_.counter_value("serve.jobs_failed"))},
           {"cancelled",
            TraceValue(metrics_.counter_value("serve.jobs_cancelled"))},
           {"store_records",
            TraceValue(store_ ? static_cast<std::int64_t>(store_->size())
                              : 0)}})};
    }
    case ServeOp::kShutdown:
      begin_shutdown();
      return {serve_ok_line(req.id, {{"state", TraceValue("draining")}})};
    case ServeOp::kStream:
      throw ServeError(
          ServeErrorCode::kBadRequest,
          "stream is served by streaming transports, not one-shot dispatch");
  }
  throw ServeError(ServeErrorCode::kInternalError, "unhandled op");
}

std::vector<std::string> TuneServer::handle_line(const std::string& line) {
  std::int64_t id = -1;
  try {
    const ServeRequest req = ServeRequest::parse(line, &id);
    return handle_request(req);
  } catch (const ServeError& e) {
    return {serve_error_line(id, e.code(), e.what())};
  } catch (const std::exception& e) {
    return {serve_error_line(id, ServeErrorCode::kInternalError, e.what())};
  }
}

}  // namespace aal
