// roclk_sweepd — the sweep-service daemon.
//
// Listens on a Unix-domain socket (or serves a single session over
// stdin/stdout with --stdio), wraps a SweepService in the frame protocol,
// and serves scenario queries until a client sends a shutdown frame.
// docs/service.md is the operations runbook.
//
// Typical use:
//   roclk_sweepd --socket /tmp/roclk.sock --threads 4 &
//   roclk_sweep  --socket /tmp/roclk.sock corner --tclk-over-c 1.5
//   roclk_sweep  --socket /tmp/roclk.sock --shutdown

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "roclk/common/flags.hpp"
#include "roclk/common/thread_pool.hpp"
#include "roclk/service/server.hpp"
#include "roclk/service/session.hpp"
#include "roclk/service/transport.hpp"

namespace {

using namespace roclk;
using namespace roclk::service;

int serve_stdio(SweepService& sweep_service) {
  // fd 0 carries requests, fd 1 responses (two pipes, or one socket on
  // both); logs go to stderr so framing stays clean.
  std::fprintf(stderr, "[roclk_sweepd] serving one session on stdio\n");
  FdByteStream stdio{0, 1};
  const SessionEnd end = run_server_session(stdio, sweep_service);
  std::fprintf(stderr, "[roclk_sweepd] session ended (%u)\n",
               static_cast<unsigned>(end));
  return end == SessionEnd::kTransportError ? 1 : 0;
}

int serve_socket(SweepService& sweep_service, const std::string& path) {
  UnixListener listener;
  if (const Status status = listener.listen(path); !status.is_ok()) {
    std::fprintf(stderr, "[roclk_sweepd] %s\n",
                 status.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "[roclk_sweepd] listening on %s\n", path.c_str());

  std::atomic<bool> stop{false};
  std::mutex sessions_mutex;
  std::vector<std::thread> sessions;

  for (;;) {
    FdStream conn = listener.accept();
    if (!conn.valid()) {
      if (stop.load()) break;  // woken by a shutdown session
      if (!listener.listening()) break;
      continue;  // transient accept failure
    }
    const std::lock_guard lock{sessions_mutex};
    sessions.emplace_back(
        [&sweep_service, &stop, &listener, fd = conn.release()]() mutable {
          FdStream owned{fd};
          const SessionEnd end =
              run_server_session(owned.fd(), sweep_service);
          if (end == SessionEnd::kShutdownRequested) {
            stop.store(true);
            listener.wake();
          }
        });
  }

  for (std::thread& t : sessions) t.join();
  std::fprintf(stderr, "[roclk_sweepd] drained, exiting\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags{
      "roclk_sweepd: sweep-service daemon serving scenario queries "
      "(corner / grid / yield) over the roclk frame protocol."};
  flags.add_string("socket", "", "Unix socket path to listen on")
      .add_bool("stdio", false,
                "serve exactly one session over stdin/stdout instead")
      .add_int("max-in-flight", 64,
               "admission bound: concurrent simulating+waiting requests")
      .add_int("cache-capacity", 1024,
               "result-cache entries (LRU evicted, 0 disables)")
      .add_int("deadline-ms", 0,
               "default deadline for requests that carry none (0 = none)")
      .add_int("threads", 0,
               "simulation pool threads (0 = sequential execution)")
      .add_string("journal", "",
                  "cache journal path: warm-start from it on boot, append "
                  "every result to it (crash-safe; empty disables)")
      .add_int("journal-compact-every", 4096,
               "appended records between journal compactions");

  if (const Status status = flags.parse(argc, argv); !status.is_ok()) {
    std::fprintf(stderr, "%s\n%s", status.message().c_str(),
                 flags.help_text().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.help_text().c_str());
    return 0;
  }

  const std::string socket_path = flags.get_string("socket");
  const bool stdio = flags.get_bool("stdio");
  if (stdio == !socket_path.empty()) {
    std::fprintf(stderr,
                 "exactly one of --socket PATH or --stdio is required\n");
    return 2;
  }

  const std::int64_t threads = flags.get_int("threads");
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(threads));
  }

  ServiceConfig config;
  config.max_in_flight =
      static_cast<std::size_t>(flags.get_int("max-in-flight"));
  config.cache_capacity =
      static_cast<std::size_t>(flags.get_int("cache-capacity"));
  config.default_deadline_ms =
      static_cast<std::uint32_t>(flags.get_int("deadline-ms"));
  config.sim_pool = pool.get();
  config.journal_path = flags.get_string("journal");
  config.journal_compact_every =
      static_cast<std::uint64_t>(flags.get_int("journal-compact-every"));
  SweepService sweep_service{config};
  if (!config.journal_path.empty()) {
    const ServiceStats warm = sweep_service.stats();
    std::fprintf(stderr,
                 "[roclk_sweepd] journal warm start: recovered=%llu "
                 "dropped_words=%llu\n",
                 static_cast<unsigned long long>(warm.journal_recovered),
                 static_cast<unsigned long long>(warm.journal_dropped_words));
  }

  const int exit_code = stdio ? serve_stdio(sweep_service)
                              : serve_socket(sweep_service, socket_path);

  const ServiceStats stats = sweep_service.stats();
  std::fprintf(stderr,
               "[roclk_sweepd] accepted=%llu cache_hits=%llu "
               "coalesced=%llu simulations=%llu shed=%llu "
               "deadline_exceeded=%llu invalid=%llu completed=%llu "
               "journal_recovered=%llu journal_appends=%llu "
               "journal_compactions=%llu journal_errors=%llu\n",
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.coalesced),
               static_cast<unsigned long long>(stats.simulations),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.deadline_exceeded),
               static_cast<unsigned long long>(stats.invalid),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.journal_recovered),
               static_cast<unsigned long long>(stats.journal_appends),
               static_cast<unsigned long long>(stats.journal_compactions),
               static_cast<unsigned long long>(stats.journal_errors));
  return exit_code;
}
