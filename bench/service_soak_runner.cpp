// S1 — sweep-service soak + dedup gate.
//
// Two phases:
//  * Dedup gate: N identical corner queries fired concurrently at one
//    SweepService must coalesce onto EXACTLY one simulation and every
//    client must receive a bitwise-identical value vector.  The run
//    aborts without recording if either claim fails — the soak numbers
//    are meaningless if the service re-simulates what it should share.
//  * Soak: multi-client request mix over real socketpair transport (one
//    server session thread per client, the daemon's exact frame path):
//    a hot set of repeated scenarios (cache hits) plus per-client cold
//    scenarios (misses).  Records throughput and p50/p95/p99 latency
//    into BENCH_sweeps.json.
//
//  * Fault soak: the same multi-client mix with a deterministic
//    FaultyStream on every client connection (short ops, EINTR storms,
//    connection resets) and ResilientClient retry/reconnect on top.
//    The gate is ZERO lost requests: every query must resolve OK
//    despite the injected failures.  Retry/recovery counters land in
//    BENCH_sweeps.json.
//
// Usage: run from the repository root; argv[1] overrides the output
// path; --smoke shrinks the client count and workload for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "roclk/service/client.hpp"
#include "roclk/service/fault_injector.hpp"
#include "roclk/service/retry.hpp"
#include "roclk/service/server.hpp"
#include "roclk/service/session.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace roclk;
using namespace roclk::service;

Request corner_request(double tclk_over_c, double te_over_c) {
  Request request;
  request.kind = QueryKind::kCornerMargin;
  request.corner.tclk_over_c = tclk_over_c;
  request.corner.te_over_c = te_over_c;
  request.corner.cycles = 2000;
  request.corner.skip = 200;
  return request;
}

/// Fires `clients` identical queries concurrently; true iff the service
/// ran exactly one simulation and every response matched bitwise.
bool dedup_gate(std::size_t clients) {
  SweepService service{{}};
  const Request request = corner_request(1.25, 30.0);

  std::vector<Response> responses(clients);
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t i = 0; i < clients; ++i) {
      threads.emplace_back([&service, &request, &responses, i] {
        responses[i] = service.handle(request);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  const ServiceStats stats = service.stats();
  bool ok = stats.simulations == 1;
  if (!ok) {
    std::fprintf(stderr, "expected 1 simulation, ran %llu\n",
                 static_cast<unsigned long long>(stats.simulations));
  }
  for (const Response& r : responses) {
    if (!r.ok() || r.values != responses.front().values) {
      std::fprintf(stderr, "response mismatch (status %s)\n",
                   to_string(r.status));
      ok = false;
    }
  }
  std::printf("[dedup] %zu concurrent identical queries -> %llu "
              "simulation(s), %llu coalesced, %llu cache hit(s)\n",
              clients, static_cast<unsigned long long>(stats.simulations),
              static_cast<unsigned long long>(stats.coalesced),
              static_cast<unsigned long long>(stats.cache_hits));
  return ok;
}

struct SoakResult {
  double seconds{0.0};
  std::size_t requests{0};
  double p50_us{0.0};
  double p95_us{0.0};
  double p99_us{0.0};
  bool ok{true};
};

double percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted_us.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_us.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_us[lo] + (sorted_us[hi] - sorted_us[lo]) * frac;
}

/// Multi-client soak over socketpair transport: every client interleaves
/// queries from a shared hot set with its own cold scenarios.
SoakResult run_soak(std::size_t clients, std::size_t requests_per_client,
                    std::size_t hot_scenarios) {
  SweepService service{{}};

  std::vector<FdStream> client_ends(clients);
  std::vector<std::thread> servers;
  servers.reserve(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    FdStream server_end;
    if (const Status status = make_stream_pair(client_ends[i], server_end);
        !status.is_ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      return {.ok = false};
    }
    servers.emplace_back([&service, fd = server_end.release()] {
      FdStream owned{fd};
      (void)run_server_session(owned.fd(), service);
    });
  }

  std::vector<std::vector<double>> latencies_us(clients);
  std::vector<bool> worker_ok(clients, true);
  const auto start = Clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (std::size_t i = 0; i < clients; ++i) {
      workers.emplace_back([&, i] {
        Client client{std::move(client_ends[i])};
        latencies_us[i].reserve(requests_per_client);
        for (std::size_t r = 0; r < requests_per_client; ++r) {
          // 3 of 4 requests hit the shared hot set; the rest are unique
          // to this client (guaranteed cold on first sight).
          const bool hot = r % 4 != 3;
          const Request request =
              hot ? corner_request(
                        1.0 + 0.05 * static_cast<double>(r % hot_scenarios),
                        25.0)
                  : corner_request(
                        2.0 + 0.01 * static_cast<double>(i * 1024 + r),
                        25.0);
          const auto t0 = Clock::now();
          const Result<Response> response = client.query(request);
          const double us =
              std::chrono::duration<double, std::micro>(Clock::now() - t0)
                  .count();
          if (!response.is_ok() || !response.value().ok()) {
            worker_ok[i] = false;
            return;
          }
          latencies_us[i].push_back(us);
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  for (std::thread& t : servers) t.join();  // clients closed -> sessions end

  SoakResult result;
  result.seconds = seconds;
  std::vector<double> all_us;
  for (std::size_t i = 0; i < clients; ++i) {
    result.ok = result.ok && worker_ok[i];
    all_us.insert(all_us.end(), latencies_us[i].begin(),
                  latencies_us[i].end());
  }
  std::sort(all_us.begin(), all_us.end());
  result.requests = all_us.size();
  result.p50_us = percentile(all_us, 0.50);
  result.p95_us = percentile(all_us, 0.95);
  result.p99_us = percentile(all_us, 0.99);
  return result;
}

struct FaultSoakResult {
  double seconds{0.0};
  std::size_t requests{0};
  std::size_t lost{0};  // queries that did not resolve OK — the gate
  RetryStats retry;     // summed across all clients
  bool ok{true};
};

/// The soak mix again, but every client connection is wrapped in a
/// deterministic FaultyStream (short ops, EINTR storms, and a byte
/// budget after which the connection resets) with a ResilientClient
/// dialing fresh connections on top.  Backoff is scheduled through a
/// no-op sleep hook so the phase measures recovery work, not waiting.
FaultSoakResult run_fault_soak(std::size_t clients,
                               std::size_t requests_per_client,
                               std::size_t hot_scenarios) {
  SweepService service{{}};

  std::vector<RetryStats> retry_stats(clients);
  std::vector<std::size_t> lost(clients, 0);
  const auto start = Clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (std::size_t i = 0; i < clients; ++i) {
      workers.emplace_back([&, i] {
        std::vector<std::thread> sessions;
        std::uint64_t dials = 0;
        ResilientClientConfig config;
        config.retry.max_attempts = 8;
        // The gate is total delivery, so local shedding is disabled;
        // the breaker is exercised by its own unit tests.
        config.breaker.failure_threshold = 0;
        config.jitter_key = StreamKey{20260809}.at(i);
        config.sleep_ms = [](std::uint32_t) {};
        config.connect = [&service, &sessions, &dials,
                          i]() -> Result<Client> {
          FdStream client_end, server_end;
          if (Status status = make_stream_pair(client_end, server_end);
              !status.is_ok()) {
            return status;
          }
          sessions.emplace_back([&service, fd = server_end.release()] {
            FdStream owned{fd};
            (void)run_server_session(owned.fd(), service);
          });
          TransportFaultConfig faults;
          faults.short_op_rate = 0.3;
          faults.eintr_rate = 0.2;
          // Every connection dies after ~a few round trips, usually
          // mid-flight — each dial replays its own schedule from the
          // (client, dial) key, so a failing run replays bit-for-bit.
          faults.reset_after_bytes = 4096;
          return Client{make_faulty_stream(std::move(client_end),
                                           StreamKey{0xFA17}.at(i).at(dials++),
                                           faults)};
        };
        {
          ResilientClient client{config};
          for (std::size_t r = 0; r < requests_per_client; ++r) {
            const bool hot = r % 4 != 3;
            const Request request =
                hot ? corner_request(
                          1.0 + 0.05 * static_cast<double>(r % hot_scenarios),
                          25.0)
                    : corner_request(
                          3.0 + 0.01 * static_cast<double>(i * 1024 + r),
                          25.0);
            const Result<Response> response = client.query(request);
            if (!response.is_ok() || !response.value().ok()) ++lost[i];
          }
          retry_stats[i] = client.stats();
        }  // client destroyed -> last connection closes -> sessions end
        for (std::thread& t : sessions) t.join();
      });
    }
    for (std::thread& t : workers) t.join();
  }

  FaultSoakResult result;
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  result.requests = clients * requests_per_client;
  for (std::size_t i = 0; i < clients; ++i) {
    result.lost += lost[i];
    result.retry.queries += retry_stats[i].queries;
    result.retry.attempts += retry_stats[i].attempts;
    result.retry.retries += retry_stats[i].retries;
    result.retry.reconnects += retry_stats[i].reconnects;
    result.retry.transport_errors += retry_stats[i].transport_errors;
    result.retry.retryable_statuses += retry_stats[i].retryable_statuses;
    result.retry.backoff_ms_total += retry_stats[i].backoff_ms_total;
    result.retry.exhausted += retry_stats[i].exhausted;
  }
  result.ok = result.lost == 0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_sweeps.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const std::size_t dedup_clients = smoke ? 8 : 16;
  const std::size_t soak_clients = smoke ? 4 : 8;
  const std::size_t requests_per_client = smoke ? 24 : 200;
  const std::size_t hot_scenarios = 4;

  roclk::bench::print_header(
      "S1 — sweep-service soak",
      "request coalescing gate + multi-client latency/throughput soak");

  const bool dedup_ok = dedup_gate(dedup_clients);
  roclk::bench::shape_check(
      dedup_ok, "N identical concurrent queries ran exactly one simulation "
                "and every client saw bitwise-identical values");
  if (!dedup_ok) return 1;

  const SoakResult soak =
      run_soak(soak_clients, requests_per_client, hot_scenarios);
  if (!soak.ok) {
    std::fprintf(stderr, "soak phase failed\n");
    return 1;
  }
  const double throughput =
      static_cast<double>(soak.requests) / soak.seconds;
  std::printf("[soak] %zu clients x %zu requests: %.2f req/s, "
              "p50=%.0fus p95=%.0fus p99=%.0fus\n",
              soak_clients, requests_per_client, throughput, soak.p50_us,
              soak.p95_us, soak.p99_us);

  const FaultSoakResult faulted =
      run_fault_soak(soak_clients, requests_per_client, hot_scenarios);
  roclk::bench::shape_check(
      faulted.ok, "fault-injected soak delivered every request (0 lost) "
                  "through retry/reconnect");
  if (!faulted.ok) {
    std::fprintf(stderr, "fault soak lost %zu of %zu requests\n",
                 faulted.lost, faulted.requests);
    return 1;
  }
  std::printf(
      "[fault-soak] %zu requests, 0 lost: %llu attempts, %llu retries, "
      "%llu reconnects, %llu transport errors, %llu ms backoff scheduled\n",
      faulted.requests,
      static_cast<unsigned long long>(faulted.retry.attempts),
      static_cast<unsigned long long>(faulted.retry.retries),
      static_cast<unsigned long long>(faulted.retry.reconnects),
      static_cast<unsigned long long>(faulted.retry.transport_errors),
      static_cast<unsigned long long>(faulted.retry.backoff_ms_total));

  const int hw_threads =
      static_cast<int>(roclk::ThreadPool::shared().size()) + 1;
  const std::string suffix = smoke ? "_smoke" : "";
  std::vector<roclk::bench::PerfEntry> entries;
  roclk::bench::PerfEntry entry;
  entry.name = "service_soak" + suffix;
  entry.unit = "requests";
  // before = single-client sequential baseline, after = the soak itself.
  const SoakResult baseline = run_soak(1, requests_per_client, hot_scenarios);
  if (!baseline.ok) {
    std::fprintf(stderr, "baseline phase failed\n");
    return 1;
  }
  entry.before_items_per_sec =
      static_cast<double>(baseline.requests) / baseline.seconds;
  entry.after_items_per_sec = throughput;
  entry.threads = static_cast<int>(soak_clients);
  entry.simd_backend = "scalar";
  entry.p50_us = soak.p50_us;
  entry.p95_us = soak.p95_us;
  entry.p99_us = soak.p99_us;
  entries.push_back(entry);

  roclk::bench::PerfEntry fault_entry;
  fault_entry.name = "service_fault_soak" + suffix;
  fault_entry.unit = "requests";
  // before = the healthy soak, after = the same mix under injected
  // transport faults with retry/reconnect recovering every request.
  fault_entry.before_items_per_sec = throughput;
  fault_entry.after_items_per_sec =
      static_cast<double>(faulted.requests) / faulted.seconds;
  fault_entry.threads = static_cast<int>(soak_clients);
  fault_entry.simd_backend = "scalar";
  entries.push_back(fault_entry);

  char fault_notes[256];
  std::snprintf(fault_notes, sizeof fault_notes,
                " fault-soak recovery counters: lost=%zu attempts=%llu "
                "retries=%llu reconnects=%llu transport_errors=%llu "
                "backoff_ms=%llu.",
                faulted.lost,
                static_cast<unsigned long long>(faulted.retry.attempts),
                static_cast<unsigned long long>(faulted.retry.retries),
                static_cast<unsigned long long>(faulted.retry.reconnects),
                static_cast<unsigned long long>(faulted.retry.transport_errors),
                static_cast<unsigned long long>(faulted.retry.backoff_ms_total));

  std::string notes =
      "Sweep-service soak over socketpair transport, fresh service per "
      "phase, 3:1 hot(shared)/cold(per-client) scenario mix. before: 1 "
      "sequential client; after: N concurrent clients (threads = N), with "
      "request latency percentiles. On a 1-core host the concurrent run "
      "is expected to be slower per request (client+session thread "
      "oversubscription); the entry records contention honestly, not a "
      "speedup.";
  notes += fault_notes;
  if (smoke) notes = "(smoke) " + notes;
  if (!roclk::bench::append_perf_run(out_path, "service_soak_runner", notes,
                                     entries)) {
    std::fprintf(stderr, "failed to append perf run to %s\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("[json] appended run to %s\n", out_path.c_str());
  return roclk::bench::shape_exit_code();
}
