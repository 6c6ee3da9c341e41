// aaltune command-line tool.
//
//   aaltune_cli zoo
//   aaltune_cli inspect <model> [--target gpu-pascal]
//   aaltune_cli tune    <model> [--tuner bted+bao] [--budget N] [--records f]
//                               [--store dir] [--store-readonly] [--transfer]
//                               [--template native] [--trace f.jsonl]
//                               [--metrics]
//   aaltune_cli deploy  <model> [--records f] [--runs N]
//   aaltune_cli serve   <hello|submit|status|cancel|list|stream|stats|
//                        shutdown> --socket path [...]
//
// <model> is either a zoo name (alexnet, resnet18, vgg16, mobilenet_v1,
// squeezenet_v11) or a path to a .model description file (see
// src/graph/model_parser.hpp for the format). `tune` writes an AutoTVM-style
// record log that `deploy` replays — the standard tune-once / deploy-many
// workflow. `serve` is the client side of a running aaltune_serve daemon
// (docs/SERVING.md).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "core/advanced_tuner.hpp"
#include "graph/fusion.hpp"
#include "graph/model_parser.hpp"
#include "graph/models.hpp"
#include "hwsim/target.hpp"
#include "measure/record.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/latency.hpp"
#include "pipeline/model_tuner.hpp"
#include "serve/socket.hpp"
#include "space/template_registry.hpp"
#include "store/record_store.hpp"
#include "support/arg_parser.hpp"
#include "support/logging.hpp"
#include "support/string_util.hpp"

namespace {

using namespace aal;

Graph load_model(const std::string& spec) {
  if (std::filesystem::exists(spec)) return parse_model_file(spec);
  return make_model(spec);
}

int cmd_list_targets() {
  TextTable table;
  table.set_header({"name", "kind", "device", "peak GFLOPS",
                    "native template", "description"});
  for (const auto& name : target_names()) {
    const TargetSpec t = make_target(name);
    table.add_row({name, target_kind_name(t.kind), t.device_name,
                   format_double(t.peak_gflops(), 0),
                   TemplateRegistry::native_template_name(t.kind),
                   target_description(name)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

TunerFactory load_tuner(const std::string& name) {
  return tuner_factory_by_name(name);
}

int cmd_zoo() {
  TextTable table;
  table.set_header({"name", "nodes", "tasks", "GFLOPs"});
  for (const auto& name : model_zoo_names()) {
    const Graph g = make_model(name);
    table.add_row({name, std::to_string(g.size()),
                   std::to_string(extract_tasks(fuse(g)).size()),
                   format_double(static_cast<double>(g.total_flops()) / 1e9, 2)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_inspect(const ArgParser& args) {
  const Graph g = load_model(*args.get_positional("model"));
  const TargetSpec target = make_target(args.get("target"));
  std::printf("%s", g.to_string().c_str());
  const FusedGraph fused = fuse(g);
  std::printf("\n%s\n", fused.to_string().c_str());
  TextTable table;
  table.set_header({"task", "layers", "space size"});
  for (const auto& t : extract_tasks(fused)) {
    table.add_row({t.workload.brief(), std::to_string(t.count()),
                   format_count(TemplateRegistry::instance()
                                    .build(t.workload, target)
                                    .size())});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_tune(const ArgParser& args) {
  const Graph g = load_model(*args.get_positional("model"));
  const TargetSpec target = make_target(args.get("target"));
  ModelTuneOptions options;
  options.tune.budget = args.get_int("budget");
  options.tune.early_stopping = args.get_int("early-stop");
  options.tune.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  options.device_seed = options.tune.seed * 1009 + 7;
  options.jobs = static_cast<int>(args.get_int("jobs"));
  if (options.jobs < 1) {
    throw InvalidArgument("--jobs must be >= 1");
  }
  options.schedule_template = args.get("template");
  // Fail fast on typos (and on family mismatches like a GPU target asking
  // for "systolic") before any tuning work starts.
  const ScheduleTemplate& tmpl =
      TemplateRegistry::instance().resolve(options.schedule_template, target);
  if (tmpl.name() != std::string(kDefaultTemplateName)) {
    std::printf("schedule template '%s': target-native config space\n",
                tmpl.name().c_str());
  }

  const std::string faults_spec = args.get("faults");
  if (!faults_spec.empty()) options.faults = FaultPlan::parse(faults_spec);
  const int max_retries = static_cast<int>(args.get_int("max-retries"));
  if (max_retries < 0) {
    throw InvalidArgument("--max-retries must be >= 0");
  }
  options.measure.retry.max_attempts = 1 + max_retries;

  RecordDatabase resume_db;
  const std::string resume = args.get("resume");
  if (!resume.empty()) {
    resume_db.load_file(resume);
    options.resume_from = &resume_db;
    std::printf("resuming from %zu records in %s\n", resume_db.size(),
                resume.c_str());
  }

  std::unique_ptr<RecordStore> store;
  const std::string store_dir = args.get("store");
  const bool store_readonly = args.get_switch("store-readonly");
  if (store_readonly && store_dir.empty()) {
    throw InvalidArgument("--store-readonly requires --store <dir>");
  }
  if (!store_dir.empty()) {
    RecordStoreOptions store_options;
    store_options.read_only = store_readonly;
    store = std::make_unique<RecordStore>(store_dir, store_options);
    options.store = store.get();
    std::printf("record store %s: %zu records, %d shards%s\n",
                store_dir.c_str(), store->size(), store->num_shards(),
                store_readonly ? " (read-only)" : "");
  }
  if (args.get_switch("transfer")) {
    if (store == nullptr) {
      throw InvalidArgument("--transfer requires --store <dir>");
    }
    options.transfer.enabled = true;
    std::printf("cross-run transfer on: warm-starting from store history\n");
  }
  if (args.get_switch("transfer-off")) options.use_transfer = false;

  std::unique_ptr<JsonlTraceSink> trace;
  const std::string trace_path = args.get("trace");
  if (!trace_path.empty()) {
    trace = std::make_unique<JsonlTraceSink>(trace_path);
    options.trace = trace.get();
  }
  MetricsRegistry metrics;
  if (args.get_switch("metrics")) options.metrics = &metrics;

  std::printf("tuning %s on %s with '%s' (budget %lld/task)...\n",
              g.name().c_str(), target.device_name.c_str(),
              args.get("tuner").c_str(),
              static_cast<long long>(options.tune.budget));
  if (options.faults.active()) {
    std::printf("fault injection on: %s (max %d attempts/config)\n",
                options.faults.to_spec().c_str(),
                options.measure.retry.max_attempts);
  }
  const ModelTuneReport report =
      tune_model(g, target, load_tuner(args.get("tuner")), options);

  TextTable table;
  table.set_header({"task", "configs", "best GFLOPS"});
  for (const auto& t : report.tasks) {
    table.add_row({t.workload.brief(), std::to_string(t.result.num_measured),
                   format_double(t.result.best_gflops(), 1)});
  }
  std::printf("%s", table.to_string().c_str());

  const std::string records = args.get("records");
  if (!records.empty()) {
    RecordDatabase db;
    for (const auto& t : report.tasks) {
      for (const auto& p : t.result.history) {
        db.add(TuningRecord{t.task_key, p.flat, p.ok, p.gflops, 0.0, p.error});
      }
    }
    db.save_file(records);
    std::printf("wrote %zu records to %s\n", db.size(), records.c_str());
  }
  if (store) {
    std::printf("record store %s now holds %zu records\n", store_dir.c_str(),
                store->size());
  }
  if (trace) {
    trace->flush();
    std::printf("wrote %lld trace events to %s\n",
                static_cast<long long>(trace->steps_emitted()),
                trace_path.c_str());
  }
  if (options.metrics != nullptr) {
    std::printf("\n%s", metrics.to_text().c_str());
  }
  return 0;
}

int cmd_deploy(const ArgParser& args) {
  const Graph g = load_model(*args.get_positional("model"));
  const TargetSpec target = make_target(args.get("target"));
  std::unordered_map<std::string, std::int64_t> best;
  const std::string records = args.get("records");
  if (!records.empty()) {
    RecordDatabase db;
    db.load_file(records);
    for (const auto& key : db.task_keys()) {
      if (const auto r = db.best_for(key)) best.emplace(key, r->config_flat);
    }
    std::printf("loaded best configs for %zu tasks from %s\n", best.size(),
                records.c_str());
  } else {
    std::printf("no --records given: deploying fallback schedules\n");
  }
  const LatencyEvaluator evaluator(g, target, args.get("template"));
  const int runs = static_cast<int>(args.get_int("runs"));
  const LatencyReport report =
      evaluator.run(best, runs, static_cast<std::uint64_t>(args.get_int("seed")));
  std::printf("%s on %s: %.4f ms mean over %d runs (variance %.4f, min %.4f, "
              "max %.4f)\n",
              g.name().c_str(), target.device_name.c_str(), report.mean_ms,
              runs, report.variance, report.min_ms, report.max_ms);
  return 0;
}

/// Prints an error response frame and returns the exit code.
int report_serve_error(const ServeResponse& resp) {
  std::fprintf(stderr, "error: %s: %s\n", serve_error_code_name(resp.error),
               resp.message.c_str());
  return 1;
}

/// Dumps a response frame's payload fields as key=value lines.
void print_serve_fields(const ServeResponse& resp) {
  for (const TraceField& f : resp.fields) {
    std::printf("%s=%s\n", f.key.c_str(), f.value.to_json().c_str());
  }
}

/// Streams a job's trace to `trace_path` (or stdout when empty) and prints
/// a completion summary. Exit code 0 only when the job finished "done".
int stream_serve_job(ServeClient& client, std::int64_t job,
                     const std::string& trace_path) {
  std::ofstream file;
  std::ostream* out = &std::cout;
  if (!trace_path.empty()) {
    file.open(trace_path);
    if (!file) throw InvalidArgument("cannot open " + trace_path);
    out = &file;
  }
  const ServeResponse end = client.stream(job, *out);
  out->flush();
  const TraceValue* state = end.find("state");
  const TraceValue* steps = end.find("trace_steps");
  const TraceValue* measured = end.find("measured");
  const TraceValue* best = end.find("best_gflops");
  // The summary goes to stderr when the trace occupies stdout.
  std::FILE* sink = trace_path.empty() ? stderr : stdout;
  std::fprintf(sink,
               "job %lld %s: %lld trace events, %lld measured, best %.1f "
               "GFLOPS\n",
               static_cast<long long>(job),
               state != nullptr ? state->as_string().c_str() : "?",
               static_cast<long long>(steps != nullptr ? steps->as_int() : 0),
               static_cast<long long>(
                   measured != nullptr ? measured->as_int() : 0),
               best != nullptr ? best->as_double() : 0.0);
  return state != nullptr && state->as_string() == "done" ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s serve <hello|submit|status|cancel|list|stream|"
                 "stats|shutdown> [...]\n",
                 argv[0]);
    return 2;
  }
  const std::string op = argv[2];
  ArgParser args("Client for a running aaltune_serve daemon; speaks the "
                 "protocol documented in docs/SERVING.md.");
  args.add_flag("socket", "daemon socket path", "aaltune.sock");
  args.add_int_flag("connect-timeout-ms",
                    "retry window while connecting to the daemon", 2000);
  if (op == "submit") {
    args.add_flag("model", "zoo name or .model file path (required)", "");
    args.add_flag("target", "deployment target registry name", "gpu-pascal");
    args.add_flag("tuner", "autotvm, bted, bted+bao, random, ga", "bted+bao");
    args.add_int_flag("budget", "measurement budget per task", 512);
    args.add_int_flag("early-stop", "early-stopping patience", 400);
    args.add_int_flag("seed", "random seed", 1);
    args.add_flag("tenant", "admission-control bucket", "default");
    args.add_int_flag("priority", "higher runs first", 0);
    args.add_switch("transfer", "warm-start from the daemon's shared record "
                    "store (no-op when the daemon runs without --store)");
    args.add_flag("template", "schedule template: default, native, or an "
                  "exact template name", "");
    args.add_switch("stream", "follow the job's trace until it finishes");
    args.add_flag("trace", "write the streamed trace JSONL here "
                  "(with --stream)", "");
  } else if (op == "status" || op == "cancel" || op == "stream") {
    args.add_int_flag("job", "job id (required)", -1);
    if (op == "stream") {
      args.add_flag("trace", "write the trace JSONL here (default stdout)",
                    "");
    }
  } else if (op != "hello" && op != "list" && op != "stats" &&
             op != "shutdown") {
    std::fprintf(stderr, "unknown serve op '%s'\n", op.c_str());
    return 2;
  }
  args.parse(argc - 3, argv + 3);
  if (args.help_requested()) {
    std::printf("%s", args.usage(std::string(argv[0]) + " serve " + op).c_str());
    return 0;
  }

  ServeClient client(
      args.get("socket"),
      std::chrono::milliseconds(args.get_int("connect-timeout-ms")));
  ServeRequest req;
  req.id = 1;

  if (op == "hello") {
    req.op = ServeOp::kHello;
    req.version = kServeProtocolVersion;
    const ServeResponse resp = client.call(req);
    if (!resp.ok) return report_serve_error(resp);
    print_serve_fields(resp);
    return 0;
  }
  if (op == "submit") {
    req.op = ServeOp::kSubmit;
    req.spec.model = args.get("model");
    if (req.spec.model.empty()) {
      throw InvalidArgument("serve submit requires --model");
    }
    req.spec.target = args.get("target");
    req.spec.tuner = args.get("tuner");
    req.spec.budget = args.get_int("budget");
    req.spec.early_stop = args.get_int("early-stop");
    req.spec.seed = args.get_int("seed");
    req.spec.tenant = args.get("tenant");
    req.spec.priority = args.get_int("priority");
    req.spec.transfer = args.get_switch("transfer");
    req.spec.schedule_template = args.get("template");
    const ServeResponse resp = client.call(req);
    if (!resp.ok) return report_serve_error(resp);
    const TraceValue* job = resp.find("job");
    std::printf("job %lld queued\n",
                static_cast<long long>(job != nullptr ? job->as_int() : -1));
    if (args.get_switch("stream") && job != nullptr) {
      return stream_serve_job(client, job->as_int(), args.get("trace"));
    }
    return 0;
  }
  if (op == "status" || op == "cancel") {
    req.op = op == "status" ? ServeOp::kStatus : ServeOp::kCancel;
    req.job = args.get_int("job");
    const ServeResponse resp = client.call(req);
    if (!resp.ok) return report_serve_error(resp);
    print_serve_fields(resp);
    return 0;
  }
  if (op == "stream") {
    return stream_serve_job(client, args.get_int("job"), args.get("trace"));
  }
  if (op == "list") {
    req.op = ServeOp::kList;
    const std::vector<ServeResponse> frames = client.call_frames(req);
    for (const ServeResponse& frame : frames) {
      if (!frame.ok) return report_serve_error(frame);
      if (frame.frame != "job") continue;
      print_serve_fields(frame);
    }
    return 0;
  }
  req.op = op == "stats" ? ServeOp::kStats : ServeOp::kShutdown;
  const ServeResponse resp = client.call(req);
  if (!resp.ok) return report_serve_error(resp);
  print_serve_fields(resp);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_threshold(LogLevel::kWarn);
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <zoo|inspect|tune|deploy|serve> [...]\n"
                 "run '%s <command> --help' for command flags\n",
                 argv[0], argv[0]);
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "zoo") return cmd_zoo();
    if (command == "serve") return cmd_serve(argc, argv);
    // --list-targets needs no model argument, so it is answered before the
    // parser would reject the missing positional.
    for (int i = 2; i < argc; ++i) {
      if (std::string(argv[i]) == "--list-targets") return cmd_list_targets();
    }

    ArgParser args(command == "tune"
                       ? "Tune every task of a model and write a record log."
                   : command == "deploy"
                       ? "Simulate deployed inference latency from a record log."
                       : "Inspect a model's graph, fusion groups and tasks.");
    args.add_positional("model", "zoo name or .model file path");
    args.add_flag("target", "deployment target by registry name (see "
                  "--list-targets)", "gpu-pascal");
    args.add_switch("list-targets", "list available deployment targets and "
                    "exit");
    if (command == "tune") {
      args.add_flag("tuner", "autotvm, bted, bted+bao, random, ga", "bted+bao");
      args.add_flag("template", "schedule template: default, native, or an "
                    "exact template name (see --list-targets)", "");
      args.add_int_flag("budget", "measurement budget per task", 512);
      args.add_int_flag("early-stop", "early-stopping patience", 400);
      args.add_int_flag("seed", "random seed", 1);
      args.add_flag("records", "output record log path", "");
      args.add_flag("resume", "input record log to resume from", "");
      args.add_flag("store", "persistent record store directory: prior "
                    "records warm-start the run for free, fresh records "
                    "flush back on completion", "");
      args.add_switch("store-readonly", "open --store read-only (consume "
                      "records, never write back)");
      args.add_switch("transfer", "warm-start from fleet history: seed each "
                      "task from the --store's nearest prior tasks and blend "
                      "a meta-surrogate into the search (requires --store)");
      args.add_switch("transfer-off", "disable within-model transfer "
                      "learning between the model's own tasks");
      args.add_int_flag("jobs", "concurrent tuning lanes (results are "
                        "identical for any value)", 1);
      args.add_flag("trace", "write a JSONL trace of the run (byte-identical "
                    "for any --jobs value)", "");
      args.add_switch("metrics", "print the metrics summary table after "
                      "tuning");
      args.add_flag("faults", "inject deterministic transient faults, e.g. "
                    "timeout=0.05,launch=0.02,seed=7,cap=2", "");
      args.add_int_flag("max-retries", "extra measurement attempts after a "
                        "transient fault", 0);
    } else if (command == "deploy") {
      args.add_flag("records", "input record log path", "");
      args.add_flag("template", "schedule template the record log was tuned "
                    "with: default, native, or an exact name", "");
      args.add_int_flag("runs", "inference runs", 600);
      args.add_int_flag("seed", "noise seed", 1);
    } else if (command != "inspect") {
      std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
      return 2;
    }
    args.parse(argc - 2, argv + 2);
    if (args.help_requested()) {
      std::printf("%s", args.usage(std::string(argv[0]) + " " + command).c_str());
      return 0;
    }
    if (command == "inspect") return cmd_inspect(args);
    if (command == "tune") return cmd_tune(args);
    return cmd_deploy(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
