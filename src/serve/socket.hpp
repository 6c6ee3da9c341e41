// Unix-domain socket transport for the serve protocol.
//
// The daemon side (ServeSocketServer) accepts connections on a filesystem
// socket path and services each connection on its own thread: every
// request line is answered through TuneServer::handle_line, except the
// `stream` op, which the connection thread serves incrementally —
// stream_lines() drains new trace events into "frame":"trace" response
// lines as they appear, wait_progress() blocks between drains, and a
// "frame":"end" line closes the stream once the job is terminal.
//
// The client side (ServeClient) is the blocking convenience the CLI's
// `serve` subcommand and the tests use: connect, send a request line,
// read response frames.
//
// Unix-domain sockets (not TCP) on purpose: the daemon is a host-local
// tool, filesystem permissions are the access control, and tests get
// collision-free endpoints from temp directories.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"

namespace aal {

/// Longest request line the daemon reads, without its '\n'. A peer that
/// sends more before a newline gets a bad_request frame and is
/// disconnected, so one connection cannot grow the daemon's buffer without
/// bound.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

/// Blocking '\n'-delimited line channel over a connected socket fd. Owns
/// the fd; movable, not copyable.
class LineChannel {
 public:
  /// `max_line_bytes` bounds a received line (its '\n' not counted).
  explicit LineChannel(int fd, std::size_t max_line_bytes = SIZE_MAX)
      : fd_(fd), max_line_(max_line_bytes) {}
  ~LineChannel();

  LineChannel(LineChannel&& other) noexcept;
  LineChannel& operator=(LineChannel&&) = delete;
  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;

  /// Sends `line` plus '\n'. Returns false once the peer is gone.
  bool send_line(const std::string& line);

  /// Next line without its '\n'; nullopt on EOF/reset, and also once the
  /// pending line exceeds the channel's maximum (line_too_long() is then
  /// true and the buffered bytes are dropped).
  std::optional<std::string> recv_line();

  /// True once recv_line gave up on a line longer than the maximum.
  bool line_too_long() const { return too_long_; }

  void close();
  bool open() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  std::size_t max_line_ = SIZE_MAX;
  bool too_long_ = false;
  std::string buffer_;
};

/// Thrown when a live daemon already listens on the requested socket path.
class SocketInUseError : public Error {
 public:
  explicit SocketInUseError(const std::string& path)
      : Error("socket " + path + " is in use by a live daemon"), path_(path) {}

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The daemon's accept loop: one service thread per connection.
class ServeSocketServer {
 public:
  /// Binds and listens on `socket_path`. A stale socket file there (one
  /// that refuses connections, left by a daemon that died) is replaced; a
  /// socket a live daemon still accepts on is not: that throws
  /// SocketInUseError. Throws InvalidArgument when the path cannot be
  /// bound, including when a non-socket file occupies it.
  ServeSocketServer(TuneServer& server, std::string socket_path);
  ~ServeSocketServer();

  const std::string& socket_path() const { return path_; }

  /// Accepts and services connections until stop() is called or the
  /// TuneServer begins shutdown; then drains running jobs (wait_idle) and
  /// joins the connection threads before returning.
  void serve_forever();

  /// Async stop: makes serve_forever return without draining jobs.
  void stop();

 private:
  /// One accepted connection and the thread that services it. The thread
  /// closes `fd` and sets `done` together under connections_mutex_, so an
  /// fd the destructor shuts down is never one already closed (or reused).
  struct Connection {
    int fd = -1;
    bool done = false;  // connections_mutex_
    std::thread thread;
  };

  void handle_connection(LineChannel& channel);
  /// Joins the threads of connections that have ended. connections_mutex_.
  void reap_finished_locked();

  TuneServer& server_;
  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

/// Blocking protocol client over one connection.
class ServeClient {
 public:
  /// Connects to `socket_path`, retrying until `connect_timeout` elapses
  /// (0 = single attempt) — the retry window covers "daemon still
  /// binding" races in scripted use. Throws InvalidArgument on failure.
  explicit ServeClient(
      const std::string& socket_path,
      std::chrono::milliseconds connect_timeout = std::chrono::milliseconds(0));

  /// Sends the request, returns the single response frame.
  ServeResponse call(const ServeRequest& req);

  /// Sends the request, collects frames through the "end" frame (single-
  /// frame responses and error frames return one element).
  std::vector<ServeResponse> call_frames(const ServeRequest& req);

  /// Streams job `job`'s trace into `out` as raw JSONL (byte-identical to
  /// the standalone run's trace file) and returns the "end" frame.
  /// Throws ServeError when the server answers with an error frame.
  ServeResponse stream(std::int64_t job, std::ostream& out,
                       std::int64_t request_id = 0);

 private:
  ServeResponse recv_response();

  LineChannel channel_;
};

}  // namespace aal
