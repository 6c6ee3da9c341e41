// perfbench_tune: the in-process half of the end-to-end benchmark.
//
//   perfbench_tune tune --workload tune-bted-bao --seed 1 --seconds 25
//                       --trace 0 [--spans FILE] [--corrupt]
//   perfbench_tune seed-store --dir DIR --seed 1
//   perfbench_tune reopen-store --dir DIR [--deploy MODEL|TARGET|TEMPLATE]...
//   perfbench_tune host-ref
//
// `tune` runs one tune workload through the public tune_model API, checks
// its outputs and prints one JSON object on stdout. Untraced (--trace 0) it
// makes about --seconds worth of tune_model calls, each with a seed derived
// from --seed, and reports every call's wall and CPU time and the geometric
// means of their quality (run.py takes the statistics); traced (--trace 1)
// it pairs each untraced call with a traced one, requires their results to
// be identical, writes the last traced call's spans to --spans and reports
// its registry counters. --corrupt
// alters one best result before the checks run (the self-test uses it to
// show the checks fire).
//
// `seed-store` and `reopen-store` set up and audit the record store the
// serve workload's daemon shares (driven by run.py). `host-ref` times a
// fixed piece of work that uses no library code, as a gauge of host speed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "aaltune/aaltune.hpp"
#include "spans.hpp"
#include "support/string_util.hpp"
#include "tuner/xgb_tuner.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- JSON output -------------------------------------------------------------

class JsonObject {
 public:
  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    add(key, buf);
  }
  void integer(const std::string& key, std::int64_t value) {
    add(key, std::to_string(value));
  }
  void boolean(const std::string& key, bool value) {
    add(key, value ? "true" : "false");
  }
  void str(const std::string& key, const std::string& value) {
    add(key, "\"" + aal::json_escape(value) + "\"");
  }
  void nums(const std::string& key, const std::vector<double>& values) {
    std::string json = "[";
    char buf[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i > 0 ? "," : "", values[i]);
      json += buf;
    }
    add(key, json + "]");
  }
  void raw(const std::string& key, const std::string& json) { add(key, json); }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + aal::json_escape(key) + "\":" + json;
  }
  std::string body_;
};

std::string json_string_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + aal::json_escape(items[i]) + "\"";
  }
  return out + "]";
}

// --- Workloads ---------------------------------------------------------------

// Why each workload exists is recorded in BENCHMARK.json and README.md.
struct TuneWorkload {
  const char* name;
  const char* tuner;
  const char* model;
  const char* target;
  std::int64_t budget;
  int jobs;
  double nominal_call_s;  // one call's wall time on a 4-core host
};

constexpr TuneWorkload kTuneWorkloads[] = {
    // The paper's tuner, serial direct-emit path of tune_model.
    {"tune-bted-bao", "bted+bao", "mobilenet_v1", "gpu-pascal", 80, 1, 4.5},
    // AutoTVM baseline; jobs=3 gives one lane per workload kind
    // (conv2d, depthwise, dense), the parallel buffer-and-replay path.
    {"tune-autotvm", "autotvm", "mobilenet_v1", "gpu-pascal", 768, 3, 4.2},
};

const TuneWorkload& find_workload(const std::string& name) {
  for (const TuneWorkload& w : kTuneWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown tune workload '" + name + "'");
}

aal::ModelTuneOptions tune_options(const TuneWorkload& w, std::uint64_t seed) {
  aal::ModelTuneOptions options;
  options.tune.budget = w.budget;
  options.tune.early_stopping = 400;
  options.tune.seed = seed;
  options.device_seed = seed * 1009 + 7;  // the CLI's derivation
  options.jobs = w.jobs;
  return options;
}

// The same tuner objects the registry factories build, but around a
// caller-supplied surrogate factory, so the traced run can time model fits.
// The traced run's results must equal the registry factory's untraced
// results exactly; if the registry changes how it builds a tuner, that
// identity check fails and this must follow.
perfbench::Tracer::TunerMaker traced_maker(
    const std::string& tuner,
    std::shared_ptr<const aal::SurrogateFactory>* base) {
  if (tuner == "bted+bao") {
    *base = std::make_shared<aal::GbdtSurrogateFactory>(
        aal::AdvancedActiveLearningTuner::default_bootstrap_gbdt_params());
    return [](aal::TransferContext*,
              std::shared_ptr<const aal::SurrogateFactory> surrogates) {
      return std::unique_ptr<aal::Tuner>(
          std::make_unique<aal::AdvancedActiveLearningTuner>(
              aal::BtedParams{}, aal::BaoParams{}, std::move(surrogates)));
    };
  }
  if (tuner == "autotvm") {
    *base = std::make_shared<aal::GbdtSurrogateFactory>();
    return [](aal::TransferContext* transfer,
              std::shared_ptr<const aal::SurrogateFactory> surrogates) {
      aal::XgbTunerOptions opts;
      opts.transfer = transfer;
      auto xgb = std::make_unique<aal::XgbTuner>(
          std::move(surrogates), aal::random_init_sampler(), opts);
      xgb->set_name("autotvm");
      return std::unique_ptr<aal::Tuner>(std::move(xgb));
    };
  }
  throw std::invalid_argument("no traced tuner for '" + tuner + "'");
}

// --- Output checks -----------------------------------------------------------

struct CheckResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

// References are independent of the tuner under test: feasibility comes
// from the target's DeviceModel and constraint set, and the best GFLOPS
// must equal the maximum over the task's own successful history.
void check_report(const aal::ModelTuneReport& report,
                  const aal::TargetSpec& target, CheckResult& out) {
  for (const aal::TaskTuneReport& t : report.tasks) {
    ++out.attempted;
    const aal::TuneResult& r = t.result;
    if (!r.best || !r.best->ok) {
      out.fail(t.task_key + ": no valid best");
      continue;
    }
    double history_max = 0.0;
    bool best_in_history = false;
    for (const aal::TunePoint& p : r.history) {
      if (!p.ok) continue;
      history_max = std::max(history_max, p.gflops);
      if (p.flat == r.best->config.flat && p.gflops == r.best->gflops) {
        best_in_history = true;
      }
    }
    if (r.best->gflops != history_max || !best_in_history) {
      out.fail(t.task_key + ": best GFLOPS is not the history maximum");
      continue;
    }
    const aal::TuningTask task(t.workload, target);
    const aal::Config config = task.space().at(r.best->config.flat);
    bool feasible = task.model().profile(task.space(), config).valid;
    for (const aal::SpaceConstraint& c : task.model().constraints()) {
      feasible = feasible && c.predicate(task.space(), config);
    }
    if (!feasible) out.fail(t.task_key + ": best config is infeasible");
  }
}

bool same_results(const aal::ModelTuneReport& a,
                  const aal::ModelTuneReport& b) {
  if (a.tasks.size() != b.tasks.size()) return false;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const aal::TuneResult& x = a.tasks[i].result;
    const aal::TuneResult& y = b.tasks[i].result;
    if (x.history.size() != y.history.size()) return false;
    for (std::size_t j = 0; j < x.history.size(); ++j) {
      const aal::TunePoint& p = x.history[j];
      const aal::TunePoint& q = y.history[j];
      if (p.flat != q.flat || p.ok != q.ok || p.gflops != q.gflops ||
          p.error != q.error) {
        return false;
      }
    }
    if (x.best.has_value() != y.best.has_value()) return false;
    if (x.best && (x.best->config.flat != y.best->config.flat ||
                   x.best->gflops != y.best->gflops)) {
      return false;
    }
  }
  return true;
}


// --- tune --------------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> values;
  std::vector<std::string> deploy;  // repeated --deploy model|target|template
  bool has(const std::string& k) const { return values.count(k) > 0; }
  std::string get(const std::string& k) const {
    auto it = values.find(k);
    if (it == values.end()) throw std::invalid_argument("missing --" + k);
    return it->second;
  }
  std::int64_t get_int(const std::string& k) const {
    return aal::parse_int64_strict(get(k));
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad arg " + key);
    key = key.substr(2);
    if (key == "corrupt") {
      args.values[key] = "1";
    } else if (key == "deploy" && i + 1 < argc) {
      args.deploy.emplace_back(argv[++i]);
    } else if (i + 1 < argc) {
      args.values[key] = argv[++i];
    } else {
      throw std::invalid_argument("missing value for --" + key);
    }
  }
  return args;
}

// Counters read from the traced call's MetricsRegistry.
constexpr const char* kCounters[] = {
    "bted.initial_proposed",    "session.rounds",
    "measure.configs_measured", "measure.failures",
    "measure.cache_hits",       "surrogate.batch_rows",
    "surrogate.batch_hits",     "surrogate.sa_memo_hits",
    "surrogate.sa_memo_misses", "space.constraint_checked",
    "space.constraint_pruned",  "store.hits",
    "store.appends",            "transfer.activations",
    "transfer.skipped",
};

double ratio(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

int cmd_tune(const Args& args) {
  const TuneWorkload& w = find_workload(args.get("workload"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const double seconds = static_cast<double>(args.get_int("seconds"));
  const bool traced = args.get_int("trace") != 0;
  const aal::TargetSpec target = aal::make_target(w.target);
  const aal::TunerFactory factory = aal::tuner_factory_by_name(w.tuner);

  // Set-up: zoo graph build, fusion and task extraction, repeated so the
  // reported figure is a median. One set-up takes about 0.1 ms, and a
  // process can sit for a while on a vCPU whose host core is busy and run
  // half again as slow there, so the repetitions are spread over the run:
  // a batch of about 0.1 s before every tune_model call.
  constexpr int kSetupBatchReps = 1000;
  perfbench::SpanRecorder setup_spans;
  std::vector<double> setup_times;
  std::size_t num_tasks = 0;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupBatchReps; ++i) {
      const double start = setup_spans.now_ms();
      const auto t0 = Clock::now();
      const aal::Graph g = aal::make_model(w.model);
      const aal::FusedGraph fused = aal::fuse(g);
      num_tasks = aal::extract_tasks(fused).size();
      setup_times.push_back(seconds_since(t0));
      setup_spans.record(perfbench::Span{"graph.lower", setup_spans.new_id(),
                                         0, 0, start, setup_spans.now_ms()});
    }
  };
  const aal::Graph graph = aal::make_model(w.model);

  // The run makes a fixed number of tune_model calls, set by --seconds and
  // the workload's nominal call time, each with its own seed derived from
  // --seed. Quality figures average over the calls, so a run's figures are
  // a pure function of (seed, seconds) and vary less from seed to seed.
  const auto calls = static_cast<int>(std::max<long long>(
      1, std::llround(seconds / (traced ? 2.0 : 1.0) / w.nominal_call_s)));
  const aal::LatencyEvaluator evaluator(graph, target);
  CheckResult checks;
  std::vector<double> wall_times;
  std::vector<double> cpu_times;
  std::vector<double> traced_times;
  double log_latency = 0.0;
  double log_gflops = 0.0;
  std::int64_t gflops_terms = 0;

  // Checks one call's report and folds it into the quality figures.
  const auto accept = [&](aal::ModelTuneReport& report) {
    if (args.has("corrupt") && wall_times.size() == 1 &&
        !report.tasks.empty() && report.tasks.front().result.best) {
      report.tasks.front().result.best->gflops *= 1.01;
    }
    check_report(report, target, checks);
    double latency_ms = 0.0;
    ++checks.attempted;
    try {
      latency_ms =
          evaluator.deterministic_latency_ms(report.best_flat_by_task());
    } catch (const std::exception& e) {
      checks.fail(std::string("latency evaluation failed: ") + e.what());
    }
    if (!std::isfinite(latency_ms) || latency_ms <= 0.0) {
      checks.fail("model latency is not finite and positive");
    } else {
      log_latency += std::log(latency_ms);
    }
    for (const aal::TaskTuneReport& t : report.tasks) {
      log_gflops += std::log(std::max(t.result.best_gflops(), 1e-12));
      ++gflops_terms;
    }
  };
  const auto run_untraced = [&](std::uint64_t call_seed) {
    set_up();
    const aal::ModelTuneOptions options = tune_options(w, call_seed);
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    aal::ModelTuneReport report =
        aal::tune_model(graph, target, factory, options);
    wall_times.push_back(seconds_since(t0));
    cpu_times.push_back(cpu_seconds() - cpu0);
    accept(report);
    return report;
  };
  const auto call_seed = [&](int i) {
    return seed * 1000 + static_cast<std::uint64_t>(i);
  };

  JsonObject metrics;
  if (!traced) {
    for (int i = 0; i < calls; ++i) run_untraced(call_seed(i));
  } else {
    // Pairs of identical calls, untraced then traced: the decorators must
    // not change a single result, and the pair's times give the overhead.
    std::shared_ptr<const aal::SurrogateFactory> base;
    const auto maker = traced_maker(w.tuner, &base);
    std::vector<perfbench::Span> spans;
    std::map<std::string, std::int64_t> counters;
    std::int64_t trace_events = 0;
    for (int i = 0; i < calls; ++i) {
      const aal::ModelTuneReport untraced = run_untraced(call_seed(i));
      perfbench::SpanRecorder recorder;
      perfbench::Tracer tracer(recorder);
      aal::MetricsRegistry registry;
      aal::NullTraceSink sink;
      aal::ModelTuneOptions traced_options = tune_options(w, call_seed(i));
      traced_options.metrics = &registry;
      traced_options.trace = &sink;
      traced_options.measure_backend = &tracer.backend();
      const auto t0 = Clock::now();
      tracer.begin_call();
      const aal::ModelTuneReport report = aal::tune_model(
          graph, target, tracer.wrap(maker, base), traced_options);
      tracer.end_call();
      traced_times.push_back(seconds_since(t0));
      ++checks.attempted;
      if (!same_results(report, untraced)) {
        checks.fail("traced call results differ from the untraced call");
      }
      spans = recorder.spans();
      trace_events = sink.steps_emitted();
      for (const char* name : kCounters) {
        counters[name] = registry.counter_value(name);
      }
    }

    // Set-up spans come from another recorder: negate their ids so they
    // cannot collide with the traced call's. run.py reads the span file for
    // the per-layer times.
    std::vector<perfbench::Span> all = spans;
    for (perfbench::Span s : setup_spans.spans()) {
      s.id = -s.id;
      all.push_back(s);
    }
    perfbench::write_spans_json(all, args.get("spans"));
    metrics.integer("graph.tasks", static_cast<std::int64_t>(num_tasks));
    metrics.num("space.pruned_frac",
                ratio(counters["space.constraint_pruned"],
                      counters["space.constraint_checked"]));
    metrics.integer("bted.initial_proposed", counters["bted.initial_proposed"]);
    metrics.num("surrogate.batch_hit_frac",
                ratio(counters["surrogate.batch_hits"],
                      counters["surrogate.batch_hits"] +
                          counters["surrogate.batch_rows"]));
    metrics.num("sa.memo_hit_frac",
                ratio(counters["surrogate.sa_memo_hits"],
                      counters["surrogate.sa_memo_hits"] +
                          counters["surrogate.sa_memo_misses"]));
    metrics.integer("session.rounds", counters["session.rounds"]);
    metrics.integer("measure.configs", counters["measure.configs_measured"]);
    metrics.num("measure.invalid_frac",
                ratio(counters["measure.failures"],
                      counters["measure.configs_measured"]));
    metrics.num("measure.cache_hit_frac",
                ratio(counters["measure.cache_hits"],
                      counters["measure.cache_hits"] +
                          counters["measure.configs_measured"]));
    metrics.integer("store.hits", counters["store.hits"]);
    metrics.integer("store.appends", counters["store.appends"]);
    metrics.integer("transfer.activations", counters["transfer.activations"]);
    metrics.integer("transfer.skipped", counters["transfer.skipped"]);
    metrics.integer("obs.trace_events", trace_events);
    metrics.nums("traced_call_s", traced_times);
  }

  // End-to-end figures, from the untraced calls only.
  metrics.nums("setup_s", setup_times);
  metrics.nums("call_s", wall_times);
  metrics.nums("call_cpu_s", cpu_times);
  metrics.num("model_latency_ms",
              std::exp(log_latency / static_cast<double>(wall_times.size())));
  metrics.num("best_gflops_geomean",
              std::exp(log_gflops / static_cast<double>(gflops_terms)));
  metrics.num("peak_rss_mb", peak_rss_mb());

  JsonObject out;
  out.str("workload", w.name);
  out.boolean("correct", checks.failed == 0);
  out.integer("attempted", checks.attempted);
  out.integer("failed", checks.failed);
  out.raw("errors", json_string_array(checks.errors));
  out.raw("metrics", metrics.dump());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// --- Record store (serve-mixed set-up and audit) -----------------------------

aal::Graph load_model(const std::string& spec) {
  return spec.find('/') == std::string::npos ? aal::make_model(spec)
                                             : aal::parse_model_file(spec);
}

// Seeds a fresh store with history from other models on the serve
// workload's GPU target (cheap random-tuner runs), so transfer jobs find
// same-kind prior tasks. Then times a fresh open of the seeded store.
int cmd_seed_store(const Args& args) {
  const std::string dir = args.get("dir");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  if (std::filesystem::exists(dir) && !std::filesystem::is_empty(dir)) {
    throw std::invalid_argument("seed-store needs an empty directory: " + dir);
  }
  const aal::TargetSpec target = aal::make_target("gpu-pascal");
  {
    aal::RecordStore store(dir);
    std::uint64_t k = 0;
    for (const char* model : {"resnet18", "squeezenet_v11", "mobilenet_v1"}) {
      aal::ModelTuneOptions options;
      options.tune.budget = 16;
      options.tune.seed = seed * 31 + (++k);
      options.device_seed = options.tune.seed * 1009 + 7;
      options.store = &store;
      aal::tune_model(aal::make_model(model), target,
                      aal::tuner_factory_by_name("random"), options);
    }
  }
  const auto t0 = Clock::now();
  const aal::RecordStore store(dir);
  const double open_ms = 1e3 * seconds_since(t0);
  JsonObject out;
  out.integer("records", static_cast<std::int64_t>(store.size()));
  out.num("open_ms", open_ms);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// Reopens the store after a serve run (read-only) and deploys each listed
// model with the store's best record per task: the geometric means of the
// models' simulated latencies and of their tasks' best GFLOPS are the serve
// workload's model_latency_ms and best_gflops_geomean.
int cmd_reopen_store(const Args& args) {
  const auto t0 = Clock::now();
  aal::RecordStoreOptions store_options;
  store_options.read_only = true;
  const aal::RecordStore store(args.get("dir"), store_options);
  const double reopen_ms = 1e3 * seconds_since(t0);

  double log_sum = 0.0;
  double log_gflops = 0.0;
  std::int64_t tasks = 0;
  for (const std::string& d : args.deploy) {
    const std::vector<std::string> parts = aal::split(d, '|');
    if (parts.size() != 3) throw std::invalid_argument("bad --deploy " + d);
    const aal::Graph graph = load_model(parts[0]);
    const aal::TargetSpec target = aal::make_target(parts[1]);
    std::unordered_map<std::string, std::int64_t> best;
    for (const aal::Task& task : aal::extract_tasks(aal::fuse(graph))) {
      const std::string key =
          aal::TuningTask::key_for(task.workload, target, parts[2]);
      const auto rec = store.best_for(key);
      if (!rec) throw std::runtime_error("no record in the store for " + key);
      best[key] = rec->config_flat;
      log_gflops += std::log(rec->gflops);
      ++tasks;
    }
    const aal::LatencyEvaluator evaluator(graph, target, parts[2]);
    log_sum += std::log(evaluator.deterministic_latency_ms(best));
  }
  JsonObject out;
  out.integer("records", static_cast<std::int64_t>(store.size()));
  out.integer("truncated_tails",
              static_cast<std::int64_t>(store.truncated_tails()));
  out.num("reopen_ms", reopen_ms);
  out.num("latency_ms",
          args.deploy.empty()
              ? 0.0
              : std::exp(log_sum / static_cast<double>(args.deploy.size())));
  out.num("gflops_geomean",
          tasks == 0 ? 0.0 : std::exp(log_gflops / static_cast<double>(tasks)));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// --- Host reference ----------------------------------------------------------

// Times a fixed piece of single-threaded work that uses no library code: a
// sort of pseudo-random doubles followed by a small dense matrix product.
// Only the host's speed moves it, so it shows when a change in the other
// figures came from a faster or slower host rather than from the program.
// Prints the fastest of several repetitions in ms.
int cmd_host_ref() {
  constexpr int kReps = 7;
  constexpr std::size_t kValues = 1 << 17;
  constexpr std::size_t kDim = 96;
  double best_ms = 0.0;
  double checksum = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    std::vector<double> values(kValues);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (double& v : values) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<double>(x >> 11);
    }
    std::sort(values.begin(), values.end());
    std::vector<double> a(kDim * kDim), c(kDim * kDim, 0.0);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = values[i * 7] * 1e-18;
    for (std::size_t i = 0; i < kDim; ++i) {
      for (std::size_t k = 0; k < kDim; ++k) {
        const double aik = a[i * kDim + k];
        for (std::size_t j = 0; j < kDim; ++j) {
          c[i * kDim + j] += aik * a[k * kDim + j];
        }
      }
    }
    checksum += c[kDim + 1] + values[kValues / 2];
    const double ms = 1e3 * seconds_since(t0);
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  JsonObject out;
  out.num("ref_ms", best_ms);
  out.num("checksum", checksum);  // keeps the work observable
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  aal::set_log_threshold(aal::LogLevel::kWarn);
  try {
    if (argc < 2) {
      throw std::invalid_argument("usage: perfbench_tune <command> ...");
    }
    const std::string cmd = argv[1];
    const Args args = parse_args(argc, argv, 2);
    if (cmd == "tune") return cmd_tune(args);
    if (cmd == "seed-store") return cmd_seed_store(args);
    if (cmd == "reopen-store") return cmd_reopen_store(args);
    if (cmd == "host-ref") return cmd_host_ref();
    throw std::invalid_argument("unknown command '" + cmd + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_tune: %s\n", e.what());
    return 2;
  }
}
