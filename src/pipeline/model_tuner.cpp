#include "pipeline/model_tuner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <optional>
#include <thread>

#include "core/advanced_tuner.hpp"
#include "core/bted.hpp"
#include "support/common.hpp"
#include "support/logging.hpp"
#include "support/thread_pool.hpp"
#include "tuner/ga_tuner.hpp"
#include "tuner/random_tuner.hpp"
#include "tuner/xgb_tuner.hpp"

namespace aal {

TunerFactory autotvm_tuner_factory() {
  return [](TransferContext* transfer) -> std::unique_ptr<Tuner> {
    XgbTunerOptions opts;
    opts.transfer = transfer;
    auto tuner = std::make_unique<XgbTuner>(
        std::make_shared<GbdtSurrogateFactory>(), random_init_sampler(), opts);
    tuner->set_name("autotvm");
    return tuner;
  };
}

TunerFactory bted_tuner_factory() {
  return [](TransferContext* transfer) -> std::unique_ptr<Tuner> {
    XgbTunerOptions opts;
    opts.transfer = transfer;
    auto tuner = std::make_unique<XgbTuner>(
        std::make_shared<GbdtSurrogateFactory>(), bted_init_sampler(), opts);
    tuner->set_name("bted");
    return tuner;
  };
}

TunerFactory bted_bao_tuner_factory() {
  return [](TransferContext*) -> std::unique_ptr<Tuner> {
    // BAO replaces the XGB+SA machinery wholesale; the transfer context is
    // not part of the paper's advanced framework.
    return std::make_unique<AdvancedActiveLearningTuner>();
  };
}

TunerFactory random_tuner_factory() {
  return [](TransferContext*) -> std::unique_ptr<Tuner> {
    return std::make_unique<RandomTuner>();
  };
}

TunerFactory ga_tuner_factory() {
  return [](TransferContext*) -> std::unique_ptr<Tuner> {
    return std::make_unique<GaTuner>();
  };
}

namespace {

struct NamedTunerFactory {
  const char* name;
  TunerFactory (*make)();
};

constexpr NamedTunerFactory kTunerRegistry[] = {
    {"autotvm", autotvm_tuner_factory},
    {"bted", bted_tuner_factory},
    {"bted+bao", bted_bao_tuner_factory},
    {"random", random_tuner_factory},
    {"ga", ga_tuner_factory},
};

}  // namespace

std::vector<std::string> tuner_factory_names() {
  std::vector<std::string> names;
  for (const NamedTunerFactory& f : kTunerRegistry) names.emplace_back(f.name);
  return names;
}

TunerFactory tuner_factory_by_name(const std::string& name) {
  for (const NamedTunerFactory& f : kTunerRegistry) {
    if (name == f.name) return f.make();
  }
  std::string valid;
  for (const NamedTunerFactory& f : kTunerRegistry) {
    if (!valid.empty()) valid += ", ";
    valid += f.name;
  }
  throw InvalidArgument("unknown tuner '" + name + "' (expected " + valid +
                        ")");
}

std::int64_t ModelTuneReport::total_measured() const {
  std::int64_t total = 0;
  for (const auto& t : tasks) total += t.result.num_measured;
  return total;
}

std::unordered_map<std::string, std::int64_t>
ModelTuneReport::best_flat_by_task() const {
  std::unordered_map<std::string, std::int64_t> out;
  for (const auto& t : tasks) {
    if (t.result.best) out.emplace(t.task_key, t.result.best->config.flat);
  }
  return out;
}

namespace {

/// The serial path's next task, built while the current one tunes: its
/// TuningTask and what the current tuner's prepare() computed for it, or
/// the failure staging hit.
struct StagedTask {
  std::unique_ptr<TuningTask> task;
  std::shared_ptr<const PreparedState> prepared;
  std::exception_ptr error;
};

/// Runs `main` on the calling thread and `side` on another hand of the
/// shared pool when one is free; returns once both are done. A tuner
/// factory may keep per-thread state for the session it makes (perfbench's
/// span wrappers do), so the session stays on the thread that made its
/// tuner. On one CPU both run inline, `main` first; if a worker takes both
/// of the pool's indices, `main` runs after `side`.
template <typename Main, typename Side>
void run_beside(const Main& main, const Side& side) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> main_taken{false};
  std::atomic<bool> side_taken{false};
  ThreadPool::shared().parallel_for(2, [&](std::size_t) {
    if (std::this_thread::get_id() == caller && !main_taken.exchange(true)) {
      main();
    } else if (!side_taken.exchange(true)) {
      side();
    }
  });
  if (!main_taken.load()) main();
}

}  // namespace

ModelTuneReport tune_model(const Graph& graph, const TargetSpec& target,
                           const TunerFactory& factory,
                           const ModelTuneOptions& options) {
  const FusedGraph fused = fuse(graph);
  const std::vector<Task> tasks = extract_tasks(fused);

  ModelTuneReport report;
  report.model_name = graph.name();
  report.tasks.reserve(tasks.size());
  for (const Task& task : tasks) {
    report.tasks.push_back(TaskTuneReport{
        TuningTask::key_for(task.workload, target, options.schedule_template),
        task.workload, task.count(), TuneResult{}});
  }

  // Lane decomposition (computed up front so the serial path can map each
  // task to its lane's transfer context). The transfer pool is keyed by
  // workload kind and seed_for() only reads same-kind rows, so giving each
  // kind its own lane (and its own TransferContext) yields exactly the
  // state the serial run's shared context would expose to every task.
  // Without transfer, every task is independent and becomes its own lane.
  std::vector<std::vector<std::size_t>> lanes;
  if (options.use_transfer) {
    std::unordered_map<int, std::size_t> lane_of_kind;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const int kind = static_cast<int>(tasks[i].workload.kind());
      auto [it, inserted] = lane_of_kind.emplace(kind, lanes.size());
      if (inserted) lanes.emplace_back();
      lanes[it->second].push_back(i);
    }
  } else {
    for (std::size_t i = 0; i < tasks.size(); ++i) lanes.push_back({i});
  }
  const bool parallel = options.jobs > 1 && lanes.size() > 1;

  // Per-task trace buffers, parallel runs only: lanes may interleave
  // arbitrarily, so each task writes to its own MemoryTraceSink and the
  // buffers are replayed into options.trace in model order after the lanes
  // join. Serial runs execute tasks in model order (see below) and emit
  // into options.trace directly — same bytes, since replay preserves event
  // order and re-stamps steps into the same consecutive sequence — which
  // gives live consumers (the serve daemon's stream op) events as they
  // happen instead of at the end of the run.
  std::vector<std::unique_ptr<MemoryTraceSink>> task_traces;
  if (options.trace != nullptr && parallel) {
    task_traces.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      auto sink = std::make_unique<MemoryTraceSink>();
      sink->set_capture_execution(options.trace->capture_execution());
      task_traces.push_back(std::move(sink));
    }
  }

  // Per-task staging for records flushing back to the store after the lanes
  // join (empty when no writable store is attached).
  std::vector<std::vector<TuningRecord>> task_records(tasks.size());

  // The per-task policy options (no obs: tune_one attaches it). Seeds
  // depend only on the task's position, never on the schedule.
  const auto task_tune_options = [&options](std::size_t i) {
    TuneOptions tune_options = options.tune;
    tune_options.seed =
        options.tune.seed * 7907 + static_cast<std::uint64_t>(i) + 1;
    if (options.cancel != nullptr) tune_options.cancel = options.cancel;
    if (options.measure_backend != nullptr) {
      tune_options.backend = options.measure_backend;
    }
    return tune_options;
  };

  const auto make_task = [&](std::size_t i) {
    return std::make_unique<TuningTask>(tasks[i].workload, target,
                                        options.schedule_template);
  };

  // Tunes `tuning_task`, the task at position `i` (0-based model order),
  // with `tuner`, and writes its report slot. `prepared` is what a
  // Tuner::prepare() computed for the task ahead of time, or null.
  const auto tune_one = [&](std::size_t i, const TuningTask& tuning_task,
                            Tuner& tuner, TransferContext* transfer_ptr,
                            std::shared_ptr<const PreparedState> prepared) {
    const Task& task = tasks[i];
    const std::uint64_t task_index = static_cast<std::uint64_t>(i) + 1;
    SimulatedDevice device(target, options.device_seed * 1000003 + task_index);
    // The fault plan gets a per-task seed the same way the device does, so
    // fault draws are pure in (plan seed, task position, flat, attempt) and
    // the chaos schedule is identical at any jobs value.
    std::optional<FaultyDevice> faulty;
    if (options.faults.active()) {
      FaultPlan task_plan = options.faults;
      task_plan.seed = splitmix64(options.faults.seed * 1000003 + task_index);
      faulty.emplace(device, task_plan);
    }
    const Device& measured_device =
        faulty.has_value() ? static_cast<const Device&>(*faulty) : device;
    Measurer measurer(tuning_task, measured_device, options.measure);
    Obs obs;
    obs.trace = options.trace == nullptr ? nullptr
                : parallel              ? task_traces[i].get()
                                        : options.trace;
    obs.metrics = options.metrics;
    obs.lane = task.workload.key();
    // Attach before preload so resumed records count measure.preloaded.
    if (obs.active()) measurer.set_obs(obs);
    // Template identity, announced before any preload/transfer event so a
    // trace reader knows which space shape the task's records refer to.
    // Default-template runs emit nothing — traces and metrics stay
    // byte-identical to pre-registry builds.
    if (tuning_task.template_name() != kDefaultTemplateName) {
      obs.gauge_set("space.native_template", 1);
      obs.emit(TraceEventType::kTemplateSelect,
               {{"template", TraceValue(tuning_task.template_name())},
                {"target", TraceValue(tuning_task.target().name)},
                {"knobs", TraceValue(tuning_task.space().num_knobs())},
                {"log2_size",
                 TraceValue(std::log2(
                     static_cast<double>(tuning_task.space().size())))}});
    }
    if (options.resume_from != nullptr) {
      const std::size_t adopted =
          measurer.preload(options.resume_from->records_for(tuning_task.key()));
      if (adopted > 0) {
        AAL_LOG_INFO << graph.name() << ": resumed " << adopted
                     << " records for " << task.workload.brief();
      }
    }
    if (options.store != nullptr) {
      // Store rows are free like memo-cache hits: they count store.hits and
      // emit a store_hit event (in this task's buffered trace, so commit
      // order is deterministic at any jobs value).
      const std::size_t adopted = measurer.preload(
          options.store->records_for(tuning_task.key()), PreloadSource::kStore);
      if (adopted > 0) {
        AAL_LOG_INFO << graph.name() << ": warm-started " << adopted
                     << " store records for " << task.workload.brief();
      }
    }
    // Preloaded rows (resume log or store) warm-start the lane's transfer
    // pool here, and only here: XgbTuner::finalize absorbs fresh_results()
    // only, so every row is pooled exactly once however it entered the
    // cache. seed_for() excludes the task's own key, so this benefits the
    // lane's *other* tasks of the same workload kind.
    if (transfer_ptr != nullptr) {
      const std::vector<MeasureResult> preloaded = measurer.preloaded_results();
      if (!preloaded.empty()) transfer_ptr->absorb(tuning_task, preloaded);
    }

    // Cross-run transfer prior, built against the store snapshot this run
    // started from (fresh records append only after the lanes join, so the
    // snapshot — and the prior — is identical at any jobs value). The
    // builder emits transfer_seed/meta_fit events into this task's obs
    // handle; when the store offers nothing usable it bumps only
    // transfer.skipped and the run stays bitwise on the cold-start path.
    TransferPrior prior;
    if (options.transfer.enabled && options.store != nullptr) {
      prior = build_transfer_prior(tuning_task, *options.store,
                                   options.transfer,
                                   options.tune.seed * 6151 + task_index, obs);
    }

    if (prior.active()) tuner.set_transfer_prior(&prior);
    TuneOptions tune_options = task_tune_options(i);
    tune_options.prepared = std::move(prepared);
    tune_options.obs = obs;
    TuneResult result = tuner.tune(measurer, tune_options);

    // Constraint-pruning tally for this task's space. GPU targets attach no
    // constraints, so default runs emit nothing and traces stay identical to
    // the single-backend pipeline. The counts are pure functions of the
    // task's seeds, so the event is byte-identical at any jobs value.
    if (tuning_task.space().num_constraints() > 0) {
      const std::int64_t checked = tuning_task.space().feasibility_checks();
      const std::int64_t pruned = tuning_task.space().pruned_count();
      obs.count("space.constraint_checked", checked);
      obs.count("space.constraint_pruned", pruned);
      obs.emit(TraceEventType::kConstraintPrune,
               {{"target", TraceValue(tuning_task.target().name)},
                {"constraints",
                 TraceValue(tuning_task.space().num_constraints())},
                {"checked", TraceValue(checked)},
                {"pruned", TraceValue(pruned)}});
    }

    if (options.store != nullptr && !options.store->read_only()) {
      // Only this session's own measurements flush back; re-appending rows
      // that came from the store would duplicate them on every run. Records
      // are staged per task and appended after the lanes join, in model
      // order, so the store files are byte-identical at any jobs value.
      const std::vector<MeasureResult> fresh = measurer.fresh_results();
      std::vector<TuningRecord>& staged = task_records[i];
      staged.reserve(fresh.size());
      for (const MeasureResult& r : fresh) {
        staged.push_back(TuningRecord{tuning_task.key(), r.config.flat, r.ok,
                                      r.gflops, r.mean_time_us, r.error});
      }
    }

    AAL_LOG_INFO << graph.name() << " [" << task_index << '/' << tasks.size()
                 << "] " << task.workload.brief() << ": best "
                 << result.best_gflops() << " GFLOPS in "
                 << result.num_measured << " configs ("
                 << result.tuner_name << ')';

    report.tasks[i].result = std::move(result);
  };

  // Cooperative cancellation: a task that has not started when the flag is
  // raised is skipped (its report slot stays empty); the in-flight session
  // stops itself at its next round boundary via SessionOptions::cancel.
  const auto cancelled = [&options] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  if (!parallel) {
    // Serial runs execute tasks in model order, not lane order. Each task
    // only ever reads its own lane's transfer context, so the state every
    // task sees is identical either way — but model order means trace
    // events reach options.trace already in their final order (no buffer /
    // replay), so a live sink streams the run as it happens.
    std::vector<TransferContext> contexts(lanes.size());
    std::vector<std::size_t> lane_of_task(tasks.size(), 0);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      for (const std::size_t i : lanes[l]) lane_of_task[i] = l;
    }
    const auto context_of = [&](std::size_t i) {
      return options.use_transfer ? &contexts[lane_of_task[i]] : nullptr;
    };
    // Pipelining: while task i tunes on this thread, another hand of the
    // shared pool stages task i+1: it builds its TuningTask and has task i's
    // tuner prepare() it (the bted+bao tuner's cold-start BTED sweep).
    // prepare() is pure and emits nothing, so results, traces and metrics
    // are those of the unstaged run. Task i+1's tuner is made only once
    // task i's session has returned, and its session runs on this thread
    // too, so each task's factory call, session and finalize still run in
    // order on one thread. The pipeline is off when the answer depends on
    // the run (a transfer prior changes the initial set) and when a budget
    // within num_initial leaves no BAO rounds to hide the staging behind.
    const bool pipelined = tasks.size() > 1 &&
                           !(options.transfer.enabled && options.store) &&
                           options.tune.budget > options.tune.num_initial;
    StagedTask staged;  // task i, when the previous iteration staged it
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (cancelled()) break;
      if (staged.error) std::rethrow_exception(staged.error);
      const std::unique_ptr<TuningTask> task =
          staged.task ? std::move(staged.task) : make_task(i);
      const std::unique_ptr<Tuner> tuner = factory(context_of(i));
      if (pipelined && i == 0) {
        // The first task prepares before its session rather than in it, so
        // its BTED sweep never runs beside the second task's staged one:
        // two sweeps at once raise the run's peak memory.
        staged.prepared = tuner->prepare(*task, task_tune_options(0));
      }
      const auto session = [&] {
        tune_one(i, *task, *tuner, context_of(i), std::move(staged.prepared));
      };
      StagedTask next;
      if (pipelined && i + 1 < tasks.size()) {
        // A failure is kept, not thrown: it surfaces at task i+1's turn.
        run_beside(session, [&] {
          try {
            next.task = make_task(i + 1);
            next.prepared =
                tuner->prepare(*next.task, task_tune_options(i + 1));
          } catch (...) {
            next.error = std::current_exception();
          }
        });
      } else {
        session();
      }
      staged = std::move(next);
    }
  } else {
    const auto run_lane = [&](const std::vector<std::size_t>& lane) {
      TransferContext transfer;
      TransferContext* transfer_ptr =
          options.use_transfer ? &transfer : nullptr;
      for (const std::size_t i : lane) {
        if (cancelled()) return;
        const std::unique_ptr<TuningTask> task = make_task(i);
        const std::unique_ptr<Tuner> tuner = factory(transfer_ptr);
        tune_one(i, *task, *tuner, transfer_ptr, nullptr);
      }
    };
    // min(jobs, lanes) runners, each claiming lanes in order, on a pool of
    // their own: on the shared pool's long-lived workers, lanes rotate over
    // threads from call to call, and each worker's malloc arena keeps the
    // largest lane it ever ran (perfbench tune-autotvm on a 4-vCPU VM:
    // peak RSS 17.2 -> 20.3 MB).
    // BTED and batched measurement inside a lane still fan out over the
    // shared pool. parallel_for rethrows a lane's failure.
    ThreadPool runners(std::min<std::size_t>(
        static_cast<std::size_t>(options.jobs), lanes.size()));
    std::atomic<std::size_t> next_lane{0};
    runners.parallel_for(runners.size(), [&](std::size_t) {
      for (;;) {
        const std::size_t l = next_lane.fetch_add(1);
        if (l >= lanes.size()) return;
        run_lane(lanes[l]);
      }
    });

    // Replay per-task buffers into the model sink in model order; the
    // target re-stamps the step counters into one consecutive sequence.
    if (options.trace != nullptr) {
      for (const auto& sink : task_traces) sink->replay_into(*options.trace);
    }
  }

  // Flush this run's fresh records back to the store, in model order.
  if (options.store != nullptr && !options.store->read_only()) {
    std::size_t appended = 0;
    for (const auto& staged : task_records) {
      options.store->append(staged);
      appended += staged.size();
    }
    if (appended > 0) {
      options.store->flush();
      Obs obs;
      obs.metrics = options.metrics;
      obs.count("store.appends", static_cast<std::int64_t>(appended));
      AAL_LOG_INFO << graph.name() << ": flushed " << appended
                   << " records to store " << options.store->dir();
    }
  }

  for (const auto& t : report.tasks) {
    if (!t.result.tuner_name.empty()) {
      report.tuner_name = t.result.tuner_name;
      break;
    }
  }
  return report;
}

TuneResult tune_workload(const Workload& workload, const TargetSpec& target,
                         Tuner& tuner, const TuneOptions& options,
                         std::uint64_t device_seed,
                         const std::string& template_request) {
  TuningTask task(workload, target, template_request);
  SimulatedDevice device(target, device_seed);
  Measurer measurer(task, device);
  return tuner.tune(measurer, options);
}

TuneResult tune_workload(const Workload& workload, const TargetSpec& target,
                         Tuner& tuner, const TuneOptions& options) {
  return tune_workload(workload, target, tuner, options, options.device_seed);
}

}  // namespace aal
