#include "serve/socket.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "graph/model_parser.hpp"
#include "hwsim/target.hpp"
#include "pipeline/model_tuner.hpp"

namespace aal {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;

constexpr const char* kTinyModelText =
    "%data = input(shape=[1,8,16,16])\n"
    "%c1 = conv2d(%data, channels=16, kernel=3, pad=1)\n";

/// Daemon-in-a-thread fixture: a TuneServer behind a ServeSocketServer on
/// a temp-dir socket, serviced by a background thread, plus a tiny model
/// file for jobs to tune.
class ServeSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("aal_serve_sock_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    model_path_ = (dir_ / "tiny.model").string();
    std::ofstream(model_path_) << kTinyModelText;

    TuneServerOptions options;
    options.workers = 2;
    server_ = std::make_unique<TuneServer>(options);
    socket_server_ = std::make_unique<ServeSocketServer>(
        *server_, (dir_ / "serve.sock").string());
    serve_thread_ = std::thread([this] { socket_server_->serve_forever(); });
  }

  void TearDown() override {
    if (socket_server_) socket_server_->stop();
    serve_thread_.join();
    socket_server_.reset();
    server_.reset();
    fs::remove_all(dir_);
  }

  ServeClient connect() {
    return ServeClient(socket_server_->socket_path(), milliseconds(2000));
  }

  JobSpec tiny_spec(std::int64_t budget = 16) const {
    JobSpec spec;
    spec.model = model_path_;
    spec.budget = budget;
    spec.early_stop = 0;
    return spec;
  }

  fs::path dir_;
  std::string model_path_;
  std::unique_ptr<TuneServer> server_;
  std::unique_ptr<ServeSocketServer> socket_server_;
  std::thread serve_thread_;
};

TEST_F(ServeSocketTest, HelloNegotiatesTheProtocolVersion) {
  ServeClient client = connect();
  ServeRequest hello;
  hello.id = 1;
  hello.op = ServeOp::kHello;
  hello.version = kServeProtocolVersion;
  const ServeResponse resp = client.call(hello);
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.find("version")->as_string(), kServeProtocolVersion);

  // A client speaking a different version gets the typed rejection.
  ServeClient stale = connect();
  hello.version = "aaltune-serve/v0";
  const ServeResponse reject = stale.call(hello);
  EXPECT_FALSE(reject.ok);
  EXPECT_EQ(reject.error, ServeErrorCode::kVersionMismatch);
}

TEST_F(ServeSocketTest, SecondDaemonOnALiveSocketFailsAndTheFirstKeepsIt) {
  TuneServer second(TuneServerOptions{});
  const std::string path = socket_server_->socket_path();
  try {
    ServeSocketServer thief(second, path);
    FAIL() << "a second daemon bound a live socket";
  } catch (const SocketInUseError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }

  ServeClient client = connect();
  ServeRequest hello;
  hello.id = 1;
  hello.op = ServeOp::kHello;
  hello.version = kServeProtocolVersion;
  EXPECT_TRUE(client.call(hello).ok);
}

TEST_F(ServeSocketTest, StaleSocketFileIsReplaced) {
  // A bound socket that never listens refuses connections, exactly like
  // the file a killed daemon leaves behind.
  const std::string path = (dir_ / "stale.sock").string();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);
  ASSERT_TRUE(fs::exists(path));

  TuneServer second(TuneServerOptions{});
  ServeSocketServer replacement(second, path);
  std::thread serving([&] { replacement.serve_forever(); });
  ServeClient client(path, milliseconds(2000));
  ServeRequest hello;
  hello.id = 1;
  hello.op = ServeOp::kHello;
  hello.version = kServeProtocolVersion;
  EXPECT_TRUE(client.call(hello).ok);
  replacement.stop();
  serving.join();
}

TEST_F(ServeSocketTest, NonSocketFileAtThePathIsNotRemoved) {
  const std::string path = (dir_ / "not-a-socket").string();
  std::ofstream(path) << "keep me\n";
  TuneServer second(TuneServerOptions{});
  try {
    ServeSocketServer unused(second, path);
    FAIL() << "bound a path held by a regular file";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  EXPECT_TRUE(fs::is_regular_file(path));
}

TEST_F(ServeSocketTest, StreamedTraceMatchesTheStandaloneRunByteForByte) {
  ServeClient client = connect();
  ServeRequest submit;
  submit.id = 1;
  submit.op = ServeOp::kSubmit;
  submit.spec = tiny_spec();
  const ServeResponse admitted = client.call(submit);
  ASSERT_TRUE(admitted.ok) << admitted.message;
  const std::int64_t job = admitted.find("job")->as_int();

  std::ostringstream streamed;
  const ServeResponse end = client.stream(job, streamed);
  EXPECT_EQ(end.find("state")->as_string(), "done");
  EXPECT_EQ(end.find("measured")->as_int(), 16);
  EXPECT_GT(end.find("best_gflops")->as_double(), 0.0);

  // The standalone equivalent of the daemon job (CLI derivations, jobs=1).
  const Graph g = parse_model_file(model_path_);
  ModelTuneOptions options;
  options.tune.budget = 16;
  options.tune.early_stopping = 0;
  options.tune.seed = 1;
  options.device_seed = options.tune.seed * 1009 + 7;
  options.jobs = 1;
  MemoryTraceSink sink;
  options.trace = &sink;
  tune_model(g, make_target("gpu-pascal"),
             tuner_factory_by_name("bted+bao"), options);

  EXPECT_EQ(streamed.str(), sink.to_jsonl());
  EXPECT_EQ(end.find("trace_steps")->as_int(),
            static_cast<std::int64_t>(sink.events().size()));
}

TEST_F(ServeSocketTest, StreamOfUnknownJobFailsTyped) {
  ServeClient client = connect();
  std::ostringstream sink;
  try {
    (void)client.stream(1234, sink);
    FAIL() << "expected unknown_job";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kUnknownJob);
  }
  EXPECT_TRUE(sink.str().empty());
}

TEST_F(ServeSocketTest, CancelOverTheWireIsAcknowledged) {
  ServeClient client = connect();
  ServeRequest submit;
  submit.id = 1;
  submit.op = ServeOp::kSubmit;
  submit.spec = tiny_spec(/*budget=*/100000);
  const std::int64_t job = client.call(submit).find("job")->as_int();

  server_->wait_progress(job, 2, milliseconds(10000));
  ServeRequest cancel;
  cancel.id = 2;
  cancel.op = ServeOp::kCancel;
  cancel.job = job;
  const ServeResponse resp = client.call(cancel);
  ASSERT_TRUE(resp.ok);
  EXPECT_TRUE(resp.find("changed")->as_bool());

  const JobInfo info = server_->wait_job(job);
  EXPECT_EQ(info.state, JobState::kCancelled);

  ServeRequest status;
  status.id = 3;
  status.op = ServeOp::kStatus;
  status.job = job;
  EXPECT_EQ(client.call(status).find("state")->as_string(), "cancelled");
}

TEST_F(ServeSocketTest, OversizeRequestLineIsRejectedAndTheDaemonLivesOn) {
  // One byte past the limit and no newline: the daemon must stop buffering,
  // answer with a typed bad_request frame and close the connection.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_server_->socket_path().c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // A daemon that kept buffering would never answer; time out instead.
  const timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  LineChannel channel(fd);
  const std::string oversize(kMaxRequestLineBytes + 1, 'x');
  std::size_t sent = 0;
  while (sent < oversize.size()) {
    const ssize_t n = ::send(fd, oversize.data() + sent,
                             oversize.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "daemon closed before reading the whole line";
    sent += static_cast<std::size_t>(n);
  }
  const std::optional<std::string> line = channel.recv_line();
  ASSERT_TRUE(line.has_value());
  const ServeResponse reject = ServeResponse::parse(*line);
  EXPECT_FALSE(reject.ok);
  EXPECT_EQ(reject.error, ServeErrorCode::kBadRequest);
  EXPECT_EQ(reject.id, -1);
  // The daemon hangs up: end-of-file, well inside a short receive timeout
  // (a connection left open would fail recv with EAGAIN instead).
  const timeval short_timeout{2, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &short_timeout,
                         sizeof(short_timeout)),
            0);
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "connection left open";

  // The daemon still serves a new connection.
  ServeClient client = connect();
  ServeRequest hello;
  hello.id = 7;
  hello.op = ServeOp::kHello;
  hello.version = kServeProtocolVersion;
  const ServeResponse resp = client.call(hello);
  EXPECT_TRUE(resp.ok);
  EXPECT_EQ(resp.id, 7);
}

TEST_F(ServeSocketTest, RequestLineAtTheLimitIsRead) {
  // A line of exactly the limit is still read as a request (here one with
  // an unknown padding field, which earns the ordinary typed rejection),
  // and the connection stays open for the next request.
  const std::string head =
      std::string("{\"id\":3,\"op\":\"hello\",\"version\":\"") +
      kServeProtocolVersion + "\",\"pad\":\"";
  const std::string tail = "\"}";
  std::string line = head;
  line.append(kMaxRequestLineBytes - head.size() - tail.size(), 'p');
  line += tail;
  ASSERT_EQ(line.size(), kMaxRequestLineBytes);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_server_->socket_path().c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  LineChannel channel(fd);
  ASSERT_TRUE(channel.send_line(line));
  const std::optional<std::string> answer = channel.recv_line();
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(ServeResponse::parse(*answer).message.find("longer than"),
            std::string::npos)
      << *answer;

  ServeRequest hello;
  hello.id = 4;
  hello.op = ServeOp::kHello;
  hello.version = kServeProtocolVersion;
  ASSERT_TRUE(channel.send_line(hello.to_line()));
  const std::optional<std::string> second = channel.recv_line();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(ServeResponse::parse(*second).ok) << *second;
}

TEST_F(ServeSocketTest, ShutdownRequestDrainsTheDaemon) {
  ServeClient client = connect();
  ServeRequest submit;
  submit.id = 1;
  submit.op = ServeOp::kSubmit;
  submit.spec = tiny_spec();
  const std::int64_t job = client.call(submit).find("job")->as_int();

  ServeRequest shutdown;
  shutdown.id = 2;
  shutdown.op = ServeOp::kShutdown;
  ASSERT_TRUE(client.call(shutdown).ok);

  // serve_forever notices the shutdown, drains the job, and returns.
  serve_thread_.join();
  serve_thread_ = std::thread([] {});  // keep TearDown's join() valid
  EXPECT_EQ(server_->status(job).state, JobState::kDone);
  try {
    (void)server_->submit(tiny_spec());
    FAIL() << "expected shutdown rejection";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kShuttingDown);
  }
}

/// The number of threads this process runs now.
std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// This process's mapped address space in KiB (VmSize): a connection
/// thread that has exited but was never joined keeps its stack mapped.
std::size_t mapped_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      std::size_t kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0;
}

TEST_F(ServeSocketTest, DestroyingTheServerWithAClientStillConnectedReturns) {
  ServeClient client = connect();
  ServeRequest hello;
  hello.id = 1;
  hello.op = ServeOp::kHello;
  hello.version = kServeProtocolVersion;
  ASSERT_TRUE(client.call(hello).ok);  // its thread now waits in recv

  socket_server_->stop();
  serve_thread_.join();
  serve_thread_ = std::thread([] {});  // keep TearDown's join() valid
  std::promise<void> destroyed;
  std::future<void> done = destroyed.get_future();
  std::thread destroyer([&] {
    socket_server_.reset();
    destroyed.set_value();
  });
  const bool returned =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(returned) << "~ServeSocketServer waited on an idle client";
  if (!returned) {
    // Closing the client is what used to release the join.
    ServeClient gone = std::move(client);
  }
  destroyer.join();
}

TEST_F(ServeSocketTest, FinishedConnectionThreadsAreReaped) {
  const std::size_t threads_before = live_threads();
  const std::size_t kib_before = mapped_kib();
  for (int i = 0; i < 50; ++i) {
    {
      ServeClient client = connect();
      ServeRequest hello;
      hello.id = i;
      hello.op = ServeOp::kHello;
      hello.version = kServeProtocolVersion;
      ASSERT_TRUE(client.call(hello).ok);
      EXPECT_EQ(live_threads(), threads_before + 1);
    }
    // The client hung up: its connection thread ends on its own.
    const auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
    while (live_threads() > threads_before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    ASSERT_EQ(live_threads(), threads_before) << "connection " << i;
  }
  // An ended thread that is never joined keeps its stack mapped; each
  // accept joins the ended ones, so fifty connections leave at most one.
  EXPECT_LT(mapped_kib(), kib_before + 20 * 8192)
      << "exited connection threads kept their stacks";
}

}  // namespace
}  // namespace aal
