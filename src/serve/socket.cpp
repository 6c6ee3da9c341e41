#include "serve/socket.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "support/common.hpp"

namespace aal {

namespace {

int make_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  AAL_CHECK(fd >= 0, "socket() failed: " << std::strerror(errno));
  return fd;
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  AAL_CHECK(path.size() < sizeof(addr.sun_path),
            "socket path too long (" << path.size() << " bytes, max "
                                     << sizeof(addr.sun_path) - 1
                                     << "): " << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Probes `path` before the daemon binds it. A socket that accepts a
/// connection (or whose backlog is full) belongs to a live daemon: throw
/// rather than steal it. A socket that refuses is stale and is removed.
/// Anything else at the path is left alone for bind() to report.
void remove_stale_socket(const std::string& path, const sockaddr_un& addr) {
  struct stat st {};
  if (::lstat(path.c_str(), &st) != 0 || !S_ISSOCK(st.st_mode)) return;
  const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  AAL_CHECK(probe >= 0, "socket() failed: " << std::strerror(errno));
  const int rc = ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
  const int err = errno;
  ::close(probe);
  if (rc == 0 || err == EAGAIN) throw SocketInUseError(path);
  if (err == ECONNREFUSED) ::unlink(path.c_str());
}

}  // namespace

LineChannel::~LineChannel() { close(); }

LineChannel::LineChannel(LineChannel&& other) noexcept
    : fd_(other.fd_),
      max_line_(other.max_line_),
      too_long_(other.too_long_),
      buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

void LineChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool LineChannel::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string framed = line;
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, not a process kill.
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> LineChannel::recv_line() {
  // Bytes already searched for '\n': each received chunk is scanned once.
  std::size_t scanned = 0;
  while (true) {
    const std::size_t pos = buffer_.find('\n', scanned);
    if (pos != std::string::npos) {
      if (pos > max_line_) break;
      std::string line = buffer_.substr(0, pos);
      buffer_.erase(0, pos + 1);
      return line;
    }
    scanned = buffer_.size();
    if (scanned > max_line_) break;
    if (fd_ < 0) return std::nullopt;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (n == 0) return std::nullopt;  // EOF; a partial tail line is dropped
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  too_long_ = true;
  buffer_.clear();
  return std::nullopt;
}

ServeSocketServer::ServeSocketServer(TuneServer& server,
                                     std::string socket_path)
    : server_(server), path_(std::move(socket_path)) {
  const sockaddr_un addr = make_address(path_);
  remove_stale_socket(path_, addr);
  listen_fd_ = make_socket();
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    // The destructor does not run for a throwing constructor.
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    throw InvalidArgument("cannot listen on " + path_ + ": " + reason);
  }
}

ServeSocketServer::~ServeSocketServer() {
  stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // A client may keep its connection open after its last request, its
  // thread blocked in recv. Shutting the read side down gives every such
  // thread end-of-file, so the joins below cannot wait on a client. A
  // thread still sending (say, the tail of a stream) finishes its frames:
  // only reads are cut.
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& c : connections_) {
      if (!c->done) ::shutdown(c->fd, SHUT_RD);
    }
    connections.swap(connections_);
  }
  for (const auto& c : connections) c->thread.join();
  ::unlink(path_.c_str());
}

void ServeSocketServer::reap_finished_locked() {
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
    if (!c->done) return false;
    c->thread.join();
    return true;
  });
}

void ServeSocketServer::stop() { stop_.store(true); }

void ServeSocketServer::serve_forever() {
  while (!stop_.load() && !server_.shutting_down()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    std::lock_guard<std::mutex> lock(connections_mutex_);
    reap_finished_locked();
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* c = connection.get();
    connection->thread = std::thread([this, c] {
      LineChannel channel(c->fd, kMaxRequestLineBytes);
      handle_connection(channel);
      // Closing the socket here, as the connection ends, is what gives the
      // client end-of-file when the daemon hangs up first.
      std::lock_guard<std::mutex> lock(connections_mutex_);
      channel.close();
      c->done = true;
    });
    connections_.push_back(std::move(connection));
  }
  // Graceful path: drain queued + running jobs before returning, so a
  // `shutdown` op means "finish what was admitted, then exit".
  if (!stop_.load()) server_.wait_idle();
}

void ServeSocketServer::handle_connection(LineChannel& channel) {
  while (std::optional<std::string> line = channel.recv_line()) {
    ServeRequest req;
    bool is_stream = false;
    try {
      req = ServeRequest::parse(*line);
      is_stream = req.op == ServeOp::kStream;
    } catch (const std::exception&) {
      // handle_line re-parses and produces the typed error frame.
    }
    if (!is_stream) {
      for (const std::string& frame : server_.handle_line(*line)) {
        if (!channel.send_line(frame)) return;
      }
      continue;
    }
    try {
      (void)server_.status(req.job);  // surface unknown_job before streaming
      std::int64_t cursor = req.from;
      bool finished = false;
      while (!finished && !stop_.load()) {
        const std::vector<std::string> lines =
            server_.stream_lines(req.job, &cursor, &finished);
        for (const std::string& trace_line : lines) {
          const std::string frame = serve_ok_line(
              req.id, {{"frame", TraceValue("trace")},
                       {"job", TraceValue(req.job)},
                       {"line", TraceValue(trace_line)}});
          if (!channel.send_line(frame)) return;
        }
        if (!finished) {
          server_.wait_progress(req.job, cursor,
                                std::chrono::milliseconds(50));
        }
      }
      const JobInfo info = server_.status(req.job);
      const std::string end_frame = serve_ok_line(
          req.id, {{"frame", TraceValue("end")},
                   {"job", TraceValue(info.id)},
                   {"state", TraceValue(info.state_name())},
                   {"measured", TraceValue(info.measured)},
                   {"trace_steps", TraceValue(info.trace_steps)},
                   {"best_gflops", TraceValue(info.best_gflops)}});
      if (!channel.send_line(end_frame)) return;
    } catch (const ServeError& e) {
      if (!channel.send_line(serve_error_line(req.id, e.code(), e.what()))) {
        return;
      }
    }
  }
  if (channel.line_too_long()) {
    // The request's id was never read, so the frame carries -1, as for any
    // request whose id cannot be parsed; the connection then closes.
    channel.send_line(serve_error_line(
        -1, ServeErrorCode::kBadRequest,
        "request line longer than " + std::to_string(kMaxRequestLineBytes) +
            " bytes"));
  }
}

namespace {

int connect_client(const std::string& path,
                   std::chrono::milliseconds timeout) {
  const sockaddr_un addr = make_address(path);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    const int fd = make_socket();
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    const int err = errno;
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) {
      throw InvalidArgument("connect(" + path +
                            ") failed: " + std::strerror(err));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace

ServeClient::ServeClient(const std::string& socket_path,
                         std::chrono::milliseconds connect_timeout)
    : channel_(connect_client(socket_path, connect_timeout)) {}

ServeResponse ServeClient::recv_response() {
  std::optional<std::string> line = channel_.recv_line();
  AAL_CHECK(line.has_value(), "server closed the connection mid-response");
  return ServeResponse::parse(*line);
}

ServeResponse ServeClient::call(const ServeRequest& req) {
  AAL_CHECK(channel_.send_line(req.to_line()),
            "server closed the connection");
  return recv_response();
}

std::vector<ServeResponse> ServeClient::call_frames(const ServeRequest& req) {
  AAL_CHECK(channel_.send_line(req.to_line()),
            "server closed the connection");
  std::vector<ServeResponse> frames;
  while (true) {
    frames.push_back(recv_response());
    const ServeResponse& last = frames.back();
    if (!last.ok || last.frame.empty() || last.frame == "end") break;
  }
  return frames;
}

ServeResponse ServeClient::stream(std::int64_t job, std::ostream& out,
                                  std::int64_t request_id) {
  ServeRequest req;
  req.id = request_id;
  req.op = ServeOp::kStream;
  req.job = job;
  AAL_CHECK(channel_.send_line(req.to_line()),
            "server closed the connection");
  while (true) {
    const ServeResponse resp = recv_response();
    if (!resp.ok) throw ServeError(resp.error, resp.message);
    if (resp.frame == "trace") {
      const TraceValue* line = resp.find("line");
      AAL_CHECK(line != nullptr &&
                    line->kind() == TraceValue::Kind::kString,
                "trace frame without a \"line\" field");
      out << line->as_string() << '\n';
      continue;
    }
    if (resp.frame == "end") return resp;
    AAL_CHECK(false, "unexpected stream frame \"" << resp.frame << "\"");
  }
}

}  // namespace aal
