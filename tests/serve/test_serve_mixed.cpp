// The daemon under perfbench's serve-mixed shape, in process: two serve
// workers and one measure lane over a seeded record store, a mix of
// budget-16 bted+bao jobs (fresh, repeat, transfer, native) sent over the
// socket while a client polls `list`, then a `stream` of every job and a
// `shutdown`. Both serve workers share the process-wide thread pool.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/model_parser.hpp"
#include "hwsim/target.hpp"
#include "pipeline/model_tuner.hpp"
#include "serve/socket.hpp"
#include "store/record_store.hpp"

namespace aal {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;

/// A small conv -> depthwise -> pointwise -> dense model; `h`, `c` and `u`
/// make every shape's task keys distinct from the others'.
std::string model_text(int h, int c, int u) {
  std::ostringstream os;
  os << "%data = input(shape=[1,3," << h << ',' << h << "])\n"
     << "%c1 = conv2d(%data, channels=" << c
     << ", kernel=3, stride=2, pad=1)\n"
     << "%dw = depthwise_conv2d(%c1, kernel=3, stride=1, pad=1)\n"
     << "%pw = conv2d(%dw, channels=" << 2 * c
     << ", kernel=1, stride=1, pad=0)\n"
     << "%gap = global_avg_pool2d(%pw)\n"
     << "%f = flatten(%gap)\n"
     << "%fc = dense(%f, units=" << u << ")\n";
  return os.str();
}

/// TuneServer behind a ServeSocketServer, serviced by a background
/// thread that is joined on every exit path (an ASSERT included).
struct Daemon {
  Daemon(const TuneServerOptions& options, const std::string& socket_path)
      : server(options), socket(server, socket_path),
        thread([this] { socket.serve_forever(); }) {}
  ~Daemon() {
    socket.stop();
    thread.join();
  }
  TuneServer server;
  ServeSocketServer socket;
  std::thread thread;
};

bool terminal(const std::string& state) {
  return state == "done" || state == "failed" || state == "cancelled";
}

std::map<std::int64_t, std::string> list_states(ServeClient& client,
                                                std::int64_t id) {
  ServeRequest req;
  req.id = id;
  req.op = ServeOp::kList;
  std::map<std::int64_t, std::string> states;
  for (const ServeResponse& frame : client.call_frames(req)) {
    EXPECT_TRUE(frame.ok) << frame.message;
    if (frame.frame != "job") continue;
    const std::int64_t job = frame.find("job")->as_int();
    EXPECT_EQ(states.count(job), 0u) << "job " << job << " listed twice";
    states[job] = frame.find("state")->as_string();
  }
  return states;
}

TEST(ServeMixed, MixedJobsEachEndOnceAndTheStoreReopensWhole) {
  const fs::path dir = fs::temp_directory_path() / "aal_serve_mixed";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string store_dir = (dir / "store").string();

  // Seven distinct model shapes: one seeds the store, six are submitted.
  std::vector<std::string> models;
  for (int i = 0; i < 7; ++i) {
    models.push_back((dir / ("m" + std::to_string(i) + ".model")).string());
    std::ofstream(models.back()) << model_text(36 + 2 * i, 24 + 8 * i, 11 + i);
  }
  {  // Seed the store, as perfbench's set-up does before the daemon starts.
    RecordStore store(store_dir);
    ModelTuneOptions options;
    options.tune.budget = 16;
    options.tune.early_stopping = 0;
    options.store = &store;
    tune_model(parse_model_file(models[0]), make_target("gpu-pascal"),
               tuner_factory_by_name("bted+bao"), options);
    ASSERT_GT(store.size(), 0);
  }

  TuneServerOptions options;
  options.workers = 2;
  options.measure_threads = 1;
  options.store_dir = store_dir;
  auto daemon =
      std::make_unique<Daemon>(options, (dir / "serve.sock").string());
  auto client = std::make_unique<ServeClient>(daemon->socket.socket_path(),
                                              milliseconds(2000));
  std::int64_t request_id = 0;

  // Ten jobs in the serve-mixed proportions: 4 fresh, 2 repeat (of a fresh
  // spec that has finished), 2 transfer, 2 native on non-GPU targets.
  struct Planned {
    const char* kind;
    JobSpec spec;
  };
  const auto spec_for = [&](std::size_t model, std::int64_t seed) {
    JobSpec spec;
    spec.model = models[model];
    spec.budget = 16;
    spec.early_stop = 0;
    spec.seed = seed;
    return spec;
  };
  std::vector<Planned> plan;
  for (std::size_t i = 0; i < 4; ++i) {
    plan.push_back({"fresh", spec_for(1 + i, 11 + i)});
  }
  for (std::size_t i = 0; i < 2; ++i) {
    plan.push_back({"repeat", plan[i].spec});
    JobSpec transfer = spec_for(5 + i, 21 + i);
    transfer.transfer = true;
    plan.push_back({"transfer", transfer});
    JobSpec native = spec_for(1 + 2 * i, 31 + i);
    native.target = i == 0 ? "cpu-simd" : "fpga-systolic";
    native.schedule_template = "native";
    plan.push_back({"native", native});
  }

  std::vector<std::int64_t> jobs;
  std::map<std::string, std::int64_t> first_job_of_model;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(4);
  for (const Planned& p : plan) {
    // Keep at most four jobs open (the tenant quota is eight), and send a
    // repeat only once its original has finished and flushed its records.
    for (;;) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      const auto states = list_states(*client, ++request_id);
      std::size_t open = 0;
      for (const auto& [job, state] : states) open += terminal(state) ? 0 : 1;
      const bool original_done =
          std::string(p.kind) != "repeat" ||
          terminal(states.at(first_job_of_model.at(p.spec.model)));
      if (open < 4 && original_done) break;
      std::this_thread::sleep_for(milliseconds(10));
    }
    ServeRequest submit;
    submit.id = ++request_id;
    submit.op = ServeOp::kSubmit;
    submit.spec = p.spec;
    const ServeResponse admitted = client->call(submit);
    ASSERT_TRUE(admitted.ok) << p.kind << ": " << admitted.message;
    jobs.push_back(admitted.find("job")->as_int());
    first_job_of_model.emplace(p.spec.model, jobs.back());
  }

  // Stream every job to its end frame; each reports exactly one terminal
  // state, the one `list` shows afterwards.
  std::map<std::int64_t, std::string> streamed;
  for (const std::int64_t job : jobs) {
    std::ostringstream trace;
    const ServeResponse end = client->stream(job, trace, ++request_id);
    ASSERT_TRUE(end.ok) << end.message;
    streamed[job] = end.find("state")->as_string();
    EXPECT_EQ(streamed[job], "done") << "job " << job;
    EXPECT_FALSE(trace.str().empty()) << "job " << job;
  }
  const auto listed = list_states(*client, ++request_id);
  EXPECT_EQ(listed, streamed);

  ServeRequest stats;
  stats.id = ++request_id;
  stats.op = ServeOp::kStats;
  const ServeResponse counters = client->call(stats);
  ASSERT_TRUE(counters.ok);
  EXPECT_EQ(counters.find("submitted")->as_int(),
            static_cast<std::int64_t>(plan.size()));
  EXPECT_EQ(counters.find("done")->as_int() +
                counters.find("failed")->as_int() +
                counters.find("cancelled")->as_int(),
            static_cast<std::int64_t>(plan.size()));

  ServeRequest shutdown;
  shutdown.id = ++request_id;
  shutdown.op = ServeOp::kShutdown;
  EXPECT_TRUE(client->call(shutdown).ok);
  daemon->thread.join();  // serve_forever drains and returns
  daemon->thread = std::thread([] {});  // keep ~Daemon's join() valid
  client.reset();  // the daemon's connection handler waits for the close
  daemon.reset();

  const RecordStore reopened(store_dir);
  EXPECT_EQ(reopened.truncated_tails(), 0u);
  EXPECT_GT(reopened.size(), 0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace aal
