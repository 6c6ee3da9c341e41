// Node-wise model tuning — the outer loop of the paper's Fig. 1.
//
// Lowers a model graph through fusion, extracts the deduplicated tuning
// tasks, runs the chosen tuner on every task against a per-task simulated
// device, and collects per-task results plus the best configuration per
// task for the deployment/latency stage. AutoTVM-style transfer learning is
// threaded through tasks of the same model in tuning order.
//
// With ModelTuneOptions::jobs > 1 independent tasks tune concurrently: the
// transfer pool is keyed by workload kind and a task only ever reads rows of
// its own kind, so tasks are grouped into per-kind *lanes*. Within a lane
// tasks run sequentially in model order (preserving the serial transfer
// chain exactly); lanes run in parallel. Device and tuner seeds are derived
// from the task's position in model order, so every per-task result is
// bitwise-identical to the jobs=1 run.
//
// The serial path (jobs=1, or a single lane) pipelines instead: while task
// i tunes on the calling thread, another hand of the shared pool builds
// task i+1 and has task i's tuner Tuner::prepare() it (the bted+bao
// tuner's BTED init). prepare() is pure, so the results and trace bytes
// are those of the unstaged run. It is off when a transfer prior is built
// and when budget <= num_initial.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/fusion.hpp"
#include "graph/graph.hpp"
#include "hwsim/device.hpp"
#include "hwsim/fault.hpp"
#include "measure/measure.hpp"
#include "measure/record.hpp"
#include "measure/tuning_task.hpp"
#include "ml/transfer.hpp"
#include "obs/obs.hpp"
#include "store/record_store.hpp"
#include "transfer/transfer_prior.hpp"
#include "tuner/tuner.hpp"

namespace aal {

/// Creates a fresh Tuner per task. The TransferContext pointer is shared
/// across the model's tasks (null when the tuner kind doesn't use it).
using TunerFactory =
    std::function<std::unique_ptr<Tuner>(TransferContext* transfer)>;

/// Factories for the three experiment arms plus baselines.
TunerFactory autotvm_tuner_factory();          // AutoTVM (XGB+SA+transfer)
TunerFactory bted_tuner_factory();             // AutoTVM with BTED init
TunerFactory bted_bao_tuner_factory();         // full advanced framework
TunerFactory random_tuner_factory();
TunerFactory ga_tuner_factory();

/// The stable tuner names the CLI's --tuner flag and the serve protocol's
/// "tuner" field accept, in registry order.
std::vector<std::string> tuner_factory_names();

/// Factory for a registry name; throws InvalidArgument (naming the valid
/// set) on an unknown name.
TunerFactory tuner_factory_by_name(const std::string& name);

struct TaskTuneReport {
  std::string task_key;
  Workload workload;
  int group_count = 0;  // fused groups sharing this task in the model
  TuneResult result;
};

struct ModelTuneReport {
  std::string model_name;
  std::string tuner_name;
  std::vector<TaskTuneReport> tasks;

  std::int64_t total_measured() const;
  /// Best config flat index per task key (only tasks with a valid best).
  std::unordered_map<std::string, std::int64_t> best_flat_by_task() const;
};

/// Model-pipeline options. Composes the shared SessionOptions knobs: the
/// pipeline honors `device_seed` (per-task noise seeds are derived from it),
/// `faults` (per-task fault seeds likewise) and the `trace` / `metrics`
/// sinks; the base's `seed`, `budget`, `early_stopping` and `retry` are
/// inert here — per-task policy knobs come from `tune`, measurement knobs
/// from `measure`.
struct ModelTuneOptions : SessionOptions {
  TuneOptions tune;                  // per-task budget / early stopping
  bool use_transfer = true;          // share records across the model's tasks
  /// Optional tuning log from a previous session: each task's measurer is
  /// preloaded with its matching records, so historical configurations are
  /// revisited for free (resume semantics). Non-owning; may be null.
  const RecordDatabase* resume_from = nullptr;
  /// Optional cross-run record store. Before tuning, each task preloads the
  /// store's records for its workload key (free, counted as `store.hits`
  /// with a `store_hit` trace event) and, with use_transfer, prior-run rows
  /// warm-start the lane's TransferContext; after the lanes join, this
  /// run's fresh records are appended back in model order and flushed
  /// (skipped when the store is read-only). Non-owning; may be null.
  RecordStore* store = nullptr;
  /// Cross-run transfer priors (src/transfer). With `transfer.enabled` and
  /// a store attached, each task builds a prior from the store's *other*
  /// tasks (nearest by embedding, same kind, same target): warm seeds +
  /// HW-aware picks shrink the initialization sweep and a meta-surrogate
  /// blends into BAO scoring with a decaying weight. The prior reads the
  /// store snapshot taken at run start (fresh records append only after the
  /// lanes join), so warm runs are deterministic at any jobs value.
  /// Default-off: without the flag, runs are byte-identical to pre-transfer
  /// builds.
  TransferParams transfer;
  /// Task-level parallelism: number of tuning lanes running concurrently.
  /// Tasks are grouped into lanes by workload kind so the transfer-learning
  /// chain within a kind is preserved — results are bitwise-identical for
  /// every jobs value (see DESIGN.md). 1 = serial (default).
  int jobs = 1;
  /// Per-task measurement options (timing repeats, retry policy). The
  /// defaults reproduce the historical single-attempt behavior.
  MeasureOptions measure;
  /// Schedule-template request, in the TemplateRegistry vocabulary: "" or
  /// "default" for the CUDA-shaped space (byte-identical to pre-registry
  /// runs), "native" for the target family's native template, or an exact
  /// template name. Non-default templates qualify every task key with
  /// "#<template>" and emit a `template_select` trace event per task.
  std::string schedule_template;
  /// Shared measurement backend for every task's session (non-owning; may
  /// be null = serial per-config measurement). The serve daemon points all
  /// concurrent jobs at one ParallelBackend so measurement work multiplexes
  /// over shared lanes; results and traces are backend-invariant, so this
  /// never changes what a run computes.
  MeasureBackend* measure_backend = nullptr;

  // Inherited from SessionOptions (historical field names unchanged):
  //   device_seed — measurement-noise stream
  //   faults      — fault-injection plan: when active, every task's device
  //                 is wrapped in a FaultyDevice with a per-task seed
  //                 derived from faults.seed and the task's model-order
  //                 position, deterministic at any jobs value
  //   trace       — whole-run trace sink: with jobs > 1 each task buffers
  //                 its events in a private MemoryTraceSink replayed in
  //                 model order after the lanes join; serial runs execute
  //                 tasks in model order and emit directly, so the sink sees
  //                 live events and the final bytes are identical for every
  //                 jobs value (non-owning; may be null)
  //   metrics     — metrics registry shared by every task (may be null)
  //   cancel      — cooperative cancellation flag: tasks not yet started are
  //                 skipped, the running session stops at its next round
  //                 boundary, and records measured so far still flush to a
  //                 writable store (non-owning; may be null)
};

/// Tunes every task of `graph` with tuners from `factory` against `target`.
/// Each task attaches the target's hardware-native constraints to its config
/// space; tasks with constraints emit a `constraint_prune` trace event and
/// bump `space.constraint_checked` / `space.constraint_pruned` metrics.
ModelTuneReport tune_model(const Graph& graph, const TargetSpec& target,
                           const TunerFactory& factory,
                           const ModelTuneOptions& options);

/// Tunes a single workload (used by the per-layer figures). Returns the
/// tuner's result; `device_seed` controls the measurement noise stream and
/// `options.seed` the tuner's own randomness. `template_request` selects the
/// schedule template in the TemplateRegistry vocabulary ("" = default).
TuneResult tune_workload(const Workload& workload, const TargetSpec& target,
                         Tuner& tuner, const TuneOptions& options,
                         std::uint64_t device_seed,
                         const std::string& template_request = std::string());

/// Same, with the noise stream taken from the shared options
/// (`options.device_seed`) — the natural spelling for SessionOptions-style
/// callers.
TuneResult tune_workload(const Workload& workload, const TargetSpec& target,
                         Tuner& tuner, const TuneOptions& options);

}  // namespace aal
