// aaltune_serve: the tuning-as-a-service daemon.
//
//   aaltune_serve --socket /run/aaltune.sock --workers 4
//                 --measure-threads 8 --store /var/lib/aaltune/store
//                                                  (one command line)
//
// Accepts tuning jobs over a Unix-domain socket speaking the line-
// delimited JSON protocol documented in docs/SERVING.md, multiplexes them
// over shared measurement lanes and one shared record store, and streams
// each job's trace live. Submit jobs with `aaltune_cli serve submit` or
// any client that writes protocol lines.
//
// Shutdown: a `shutdown` protocol request (or SIGINT/SIGTERM) stops
// admission; the daemon drains queued and running jobs, then exits.
#include <csignal>
#include <cstdio>
#include <string>

#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "support/arg_parser.hpp"
#include "support/logging.hpp"

namespace {

aal::ServeSocketServer* g_socket_server = nullptr;
aal::TuneServer* g_server = nullptr;

void on_signal(int) {
  // Both calls only flip atomics / set a flag under a mutex the handler
  // thread context can take; the accept loop notices within its poll tick.
  if (g_server != nullptr) g_server->begin_shutdown();
  if (g_socket_server != nullptr) g_socket_server->stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aal;
  set_log_threshold(LogLevel::kWarn);
  ArgParser args(
      "Tuning-as-a-service daemon: accepts jobs over a Unix-domain socket "
      "speaking the aaltune-serve/v1 protocol (docs/SERVING.md).");
  args.add_flag("socket", "Unix-domain socket path to listen on",
                "aaltune.sock");
  args.add_int_flag("workers", "concurrent tuning jobs", 2);
  args.add_int_flag("measure-threads",
                    "shared measurement pool all jobs multiplex over, "
                    "each job's own thread included (0 = each job "
                    "measures serially)", 0);
  args.add_int_flag("max-queued", "server-wide queued-job bound", 256);
  args.add_int_flag("tenant-quota", "max queued+running jobs per tenant", 8);
  args.add_int_flag("max-budget", "per-job measurement-budget ceiling",
                    1 << 20);
  args.add_flag("store",
                "shared record store directory: every job preloads prior "
                "records for free and flushes fresh ones back", "");
  args.add_switch("store-readonly", "open --store read-only");
  try {
    args.parse(argc - 1, argv + 1);
    if (args.help_requested()) {
      std::printf("%s", args.usage(argv[0]).c_str());
      return 0;
    }
    TuneServerOptions options;
    options.workers = static_cast<int>(args.get_int("workers"));
    options.measure_threads =
        static_cast<int>(args.get_int("measure-threads"));
    options.max_queued =
        static_cast<std::size_t>(args.get_int("max-queued"));
    options.tenant_quota = static_cast<int>(args.get_int("tenant-quota"));
    options.max_budget = args.get_int("max-budget");
    options.store_dir = args.get("store");
    options.store_readonly = args.get_switch("store-readonly");
    if (options.store_readonly && options.store_dir.empty()) {
      throw InvalidArgument("--store-readonly requires --store <dir>");
    }

    TuneServer server(options);
    ServeSocketServer socket_server(server, args.get("socket"));
    g_server = &server;
    g_socket_server = &socket_server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    std::printf("aaltune_serve listening on %s (%d workers, %d measurement "
                "lanes%s%s)\n",
                socket_server.socket_path().c_str(), options.workers,
                options.measure_threads,
                options.store_dir.empty() ? "" : ", store ",
                options.store_dir.c_str());
    std::fflush(stdout);

    socket_server.serve_forever();

    g_socket_server = nullptr;
    g_server = nullptr;
    std::printf("aaltune_serve drained; exiting\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
