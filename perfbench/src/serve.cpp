// serve_hot / serve_cold: closed-loop clients, each over its own socketpair
// into run_server_session, against one SweepService with the daemon's
// defaults.  Also the fresh-process verifier of served answers and the
// service ladder rungs (execute, handle, session) of the traced run.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "roclk/analysis/sweep_cache.hpp"
#include "roclk/common/math.hpp"
#include "roclk/service/client.hpp"
#include "roclk/service/execute.hpp"
#include "roclk/service/server.hpp"
#include "roclk/service/session.hpp"
#include "roclk/service/transport.hpp"

namespace perfbench {

namespace {

using roclk::Result;
using roclk::analysis::SweepMemo;
using roclk::service::ByteStream;
using roclk::service::Client;
using roclk::service::FdByteStream;
using roclk::service::FdStream;
using roclk::service::IoResult;
using roclk::service::QueryKind;
using roclk::service::Request;
using roclk::service::Response;
using roclk::service::ServiceConfig;
using roclk::service::ServiceStats;
using roclk::service::SweepService;

/// Length of the ladder stream the rungs run.
constexpr std::uint64_t kLadderRequests = 256;

std::uint64_t fingerprint(const Response& response) {
  Digest d;
  d.add(static_cast<std::uint64_t>(response.status));
  d.add(response.values.size());
  for (const double v : response.values) d.add_double(v);
  return d.value();
}

/// Lane-cycles an answer stands for: a corner simulates `cycles` cycles of
/// one loop, a grid one lane per point; a yield curve samples chips, not
/// cycles, and counts 0.
double answered_lane_cycles(const Request& normalized) {
  switch (normalized.kind) {
    case QueryKind::kCornerMargin:
      return static_cast<double>(normalized.corner.cycles);
    case QueryKind::kGridSweep:
      return static_cast<double>(normalized.grid.points) *
             static_cast<double>(normalized.grid.base.cycles);
    case QueryKind::kYieldCurve:
      return 0.0;
  }
  return 0.0;
}

// -------------------------------------------------------------- probe
//
// Bench-owned ByteStream decorator that timestamps the frame exchange of a
// traced run, on either end of a connection.  Sessions and clients run in
// lockstep (a whole frame is read before the answer is written, and the
// other way round), so the first write after a run of reads starts a
// frame, and the last read before it completed the peer's frame.  Only
// every `every`-th frame is recorded, which bounds the span memory of fast
// workloads.

class Probe final : public ByteStream {
 public:
  Probe(FdStream stream, std::size_t every)
      : inner_{std::move(stream)}, every_{every} {}

  IoResult read_some(void* buffer, std::size_t bytes) override {
    const IoResult r = inner_.read_some(buffer, bytes);
    writing_ = false;
    if (r.kind == IoResult::Kind::kOk && r.bytes > 0) last_read_ns_ = now_ns();
    return r;
  }
  IoResult write_some(const void* buffer, std::size_t bytes) override {
    if (!writing_) {
      writing_ = true;
      if (frames_++ % every_ == 0) {
        read_done.push_back(last_read_ns_);
        write_start.push_back(now_ns());
      }
    }
    return inner_.write_some(buffer, bytes);
  }
  void close() override { inner_.close(); }
  [[nodiscard]] bool valid() const override { return inner_.valid(); }

  std::vector<std::int64_t> read_done;    // peer's frame fully read
  std::vector<std::int64_t> write_start;  // first byte of our frame written

 private:
  FdByteStream inner_;
  std::size_t every_;
  std::uint64_t frames_{0};
  std::int64_t last_read_ns_{0};
  bool writing_{false};
};

// --------------------------------------------------------- deployment

struct Connection {
  std::unique_ptr<ByteStream> server_stream;
  Probe* server_probe{nullptr};
  Client client;
  Probe* client_probe{nullptr};
  std::thread session;
};

/// One SweepService and `clients` connections, each served by its own
/// session thread.  close() (and the destructor) closes the client ends,
/// which ends every session, and joins the threads.
class Deployment {
 public:
  Deployment(ServiceConfig config, std::size_t clients,
             std::size_t trace_every)
      : service_{std::make_unique<SweepService>(std::move(config))} {
    try {
      for (std::size_t c = 0; c < clients; ++c) open_connection(trace_every);
    } catch (...) {
      close();
      throw;
    }
  }
  ~Deployment() { close(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  Deployment(Deployment&&) = delete;
  Deployment& operator=(Deployment&&) = delete;

  [[nodiscard]] SweepService& service() { return *service_; }
  [[nodiscard]] std::size_t size() const { return connections_.size(); }
  [[nodiscard]] Connection& connection(std::size_t c) {
    return *connections_[c];
  }

  void close() {
    for (auto& c : connections_) c->client = Client{};
    for (auto& c : connections_) {
      if (c->session.joinable()) c->session.join();
    }
  }

 private:
  void open_connection(std::size_t trace_every) {
    FdStream client_end;
    FdStream server_end;
    if (const roclk::Status status =
            roclk::service::make_stream_pair(client_end, server_end);
        !status.is_ok()) {
      throw std::runtime_error(status.message());
    }
    auto conn = std::make_unique<Connection>();
    if (trace_every > 0) {
      auto server = std::make_unique<Probe>(std::move(server_end), trace_every);
      conn->server_probe = server.get();
      conn->server_stream = std::move(server);
      auto client = std::make_unique<Probe>(std::move(client_end), trace_every);
      conn->client_probe = client.get();
      conn->client = Client{std::unique_ptr<ByteStream>{std::move(client)}};
    } else {
      conn->server_stream = std::make_unique<FdByteStream>(std::move(server_end));
      conn->client = Client{std::move(client_end)};
    }
    conn->session = std::thread([stream = conn->server_stream.get(),
                                 service = service_.get()] {
      (void)roclk::service::run_server_session(*stream, *service);
    });
    connections_.push_back(std::move(conn));
  }

  std::unique_ptr<SweepService> service_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

// ---------------------------------------------------------- closed loop

using Source = std::function<StreamRequest(std::uint64_t)>;

/// The answers to one scenario: the first request that got one, its
/// fingerprint, and how many OK answers arrived.
struct Answer {
  std::uint64_t first_request{0};
  std::uint64_t fingerprint{0};
  std::uint64_t count{0};
};

/// The timed window is cut into parts of about a second.  Throughput and
/// the latency percentiles are medians over groups of consecutive parts,
/// each group holding at least this many queries (so its p99 has twenty
/// beyond it) unless the whole run holds fewer: a host stall then moves
/// the groups it hits, not the result.
constexpr std::uint64_t kMinGroupQueries = 2000;

/// What one client keeps of the timed window.  Its size does not grow with
/// the number of requests, except by one Answer per distinct scenario and
/// by the sampled spans of a traced run, so peak_rss_mb measures the
/// service, not this log.
struct ClientLog {
  /// Per part of the window: every query that started in it, and how many
  /// of those were answered OK.
  std::vector<LatencyHistogram> latency;
  std::vector<std::uint64_t> answered_in;
  std::unordered_map<std::uint64_t, Answer> answers; // by scenario
  std::vector<std::uint64_t> prefix;  // first queries' fingerprints, 0 = none
  std::uint64_t issued{0};
  std::uint64_t answered{0};
  std::uint64_t disagreements{0};     // answers differing from the first
  std::vector<std::int64_t> start_ns; // sampled queries (traced runs)
  std::vector<std::int64_t> done_ns;
  std::vector<std::int64_t> send_ns;  // from the client probe
  std::uint64_t transport_failed{0};
  std::uint64_t refused{0};           // OVERLOADED, deadline, ...
};

struct LoopResult {
  std::vector<ClientLog> logs;
  double wall_s{0.0};
  double part_s{0.0};  // length of one part of the window
};

/// Runs every connection's client on its own thread: client c issues
/// requests c, c + n, c + 2n, ... of its source, each only after the
/// previous answer arrived, until `deadline` or `max_per_client`.  With no
/// deadline the window is one part.
LoopResult drive(Deployment& deployment,
                 const std::function<Source()>& make_source,
                 Clock::time_point deadline, std::uint64_t max_per_client,
                 std::size_t trace_every) {
  const std::size_t n = deployment.size();
  const auto start = Clock::now();
  const bool timed = deadline != Clock::time_point::max();
  const double window_s =
      timed ? std::chrono::duration<double>(deadline - start).count() : 0.0;
  const auto parts = static_cast<std::size_t>(
      std::max<std::int64_t>(1, roclk::llround_ties_away(window_s)));
  const Clock::duration part_length =
      timed ? std::max(Clock::duration{1},
                       (deadline - start) / static_cast<int>(parts))
            : Clock::duration::max();
  LoopResult result;
  result.logs.resize(n);
  result.part_s = std::chrono::duration<double>(part_length).count();
  std::vector<Source> sources;
  for (std::size_t c = 0; c < n; ++c) {
    sources.push_back(make_source());
    result.logs[c].prefix.reserve(kDigestRequests);
    result.logs[c].latency.resize(parts);
    result.logs[c].answered_in.resize(parts);
  }
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        Client& client = deployment.connection(c).client;
        ClientLog& log = result.logs[c];
        for (std::uint64_t j = 0; max_per_client == 0 || j < max_per_client;
             ++j) {
          const std::uint64_t i = c + j * n;
          const StreamRequest sr = sources[c](i);
          const auto t0 = Clock::now();
          if (t0 >= deadline) break;
          const Result<Response> response = client.query(sr.request);
          const auto t1 = Clock::now();
          ++log.issued;
          const auto part = std::min<std::size_t>(
              parts - 1, static_cast<std::size_t>((t0 - start) / part_length));
          log.latency[part].record_ns(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
          std::uint64_t fp = 0;
          if (!response.is_ok()) {
            ++log.transport_failed;
          } else if (!response.value().ok()) {
            ++log.refused;
          } else {
            fp = fingerprint(response.value());
            ++log.answered;
            ++log.answered_in[part];
            const auto [it, inserted] =
                log.answers.try_emplace(sr.scenario, Answer{i, fp, 0});
            if (!inserted && it->second.fingerprint != fp) ++log.disagreements;
            ++it->second.count;
          }
          if (log.prefix.size() < kDigestRequests) log.prefix.push_back(fp);
          if (!response.is_ok()) break;
          if (trace_every > 0 && j % trace_every == 0) {
            log.start_ns.push_back(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t0.time_since_epoch())
                    .count());
            log.done_ns.push_back(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1.time_since_epoch())
                    .count());
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  result.wall_s = seconds_since(start);
  for (std::size_t c = 0; c < n; ++c) {
    if (Probe* probe = deployment.connection(c).client_probe) {
      result.logs[c].send_ns = std::move(probe->write_start);
    }
  }
  return result;
}

/// The spans of each sampled request: service.query (Client::query call to
/// return) with children service.transport.request (client send to server
/// frame read), service.session.serve (to the first response byte
/// written) and service.transport.response (to the query's return).
/// Call after the sessions have ended.
SpanLog request_spans(const LoopResult& loop, Deployment& deployment,
                      std::size_t trace_every) {
  SpanLog spans;
  const std::size_t n = deployment.size();
  for (std::size_t c = 0; c < n; ++c) {
    const ClientLog& log = loop.logs[c];
    const Probe& server = *deployment.connection(c).server_probe;
    const std::size_t count =
        std::min({log.start_ns.size(), log.send_ns.size(),
                  server.read_done.size(), server.write_start.size()});
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint64_t id = c + k * trace_every * n;
      const std::int64_t q = spans.add("service.query", id, -1,
                                       {log.start_ns[k], log.done_ns[k]});
      spans.add("service.transport.request", id, q,
                {log.send_ns[k], server.read_done[k]});
      spans.add("service.session.serve", id, q,
                {server.read_done[k], server.write_start[k]});
      spans.add("service.transport.response", id, q,
                {server.write_start[k], log.done_ns[k]});
    }
  }
  return spans;
}

void add_span_stats(JsonLine& json, const SpanLog& spans) {
  const std::vector<double> query = spans.self_times_us("service.query");
  std::vector<double> total;
  for (const Span& s : spans.spans()) {
    if (s.name == "service.query") {
      total.push_back(static_cast<double>(s.time.end - s.time.start) / 1e3);
    }
  }
  json.num("service_transport_request_us",
           median(spans.self_times_us("service.transport.request")))
      .num("service_session_serve_us",
           median(spans.self_times_us("service.session.serve")))
      .num("service_transport_response_us",
           median(spans.self_times_us("service.transport.response")))
      .num("service_client_self_us", median(query))
      .num("service_query_us", median(total))
      .count("traced_requests", total.size());
}

void add_service_stats(JsonLine& json, const ServiceStats& before,
                       const ServiceStats& after) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) { return b - a; };
  const std::uint64_t accepted = delta(before.accepted, after.accepted);
  const std::uint64_t hits = delta(before.cache_hits, after.cache_hits);
  json.num("service_cache_hit_ratio",
           accepted == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(accepted))
      .count("service_accepted", accepted)
      .count("service_cache_hits", hits)
      .count("service_simulations",
             delta(before.simulations, after.simulations))
      .count("service_coalesced", delta(before.coalesced, after.coalesced))
      .count("service_shed", delta(before.shed, after.shed))
      .count("service_deadline_exceeded",
             delta(before.deadline_exceeded, after.deadline_exceeded))
      .count("service_journal_appends", after.journal_appends)
      .count("service_journal_compactions", after.journal_compactions)
      .count("service_journal_errors", after.journal_errors);
}

std::function<Source()> stream_sources(Workload workload, std::uint64_t seed) {
  return [workload, seed] {
    auto stream = std::make_shared<RequestStream>(workload, seed);
    return Source{[stream](std::uint64_t i) { return stream->at(i); }};
  };
}

}  // namespace

int run_serve(const Options& options) {
  const bool hot = options.workload == Workload::kServeHot;
  // serve_hot answers ~10^5 queries/s; tracing one in 16 keeps its span
  // log small without thinning the much slower serve_cold stream.
  const std::size_t trace_every = options.trace ? (hot ? 16 : 1) : 0;
  const RequestStream prototype{options.workload, options.seed};

  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  for (int r = 0; r < kSetupRepeats; ++r) {
    deployment.reset();
    SweepMemo::global().clear();
    const auto start = Clock::now();
    ServiceConfig config;  // the daemon's defaults: cache 1024, no sim pool
    if (!hot) {
      config.journal_path =
          options.workdir + "/journal-" + std::to_string(r) + ".bin";
    }
    deployment =
        std::make_unique<Deployment>(std::move(config), kClients, trace_every);
    for (const Request& scenario : prototype.hot_scenarios()) {
      if (!deployment->service().handle(scenario).ok()) {
        std::fprintf(stderr, "pre-warm query failed\n");
        return 1;
      }
    }
    setup_s.push_back(seconds_since(start));
  }
  if (options.mode == "setup") {
    JsonLine json = record_header(options, 2 * kClients);
    json.num("setup_s", interquartile_mean(setup_s))
        .array("setup_samples_s", setup_s);
    json.print();
    return 0;
  }
  const ServiceStats before = deployment->service().stats();

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  LoopResult loop = drive(*deployment, stream_sources(options.workload,
                                                      options.seed),
                          deadline, 0, trace_every);
  const double peak_rss = peak_rss_mib().value_or(0.0);
  deployment->close();
  const ServiceStats after = deployment->service().stats();

  // Outside the timed window: merge the clients' answers by scenario (one
  // answer per question), total the answered lane-cycles, digest the first
  // kDigestRequests answers, and hand one representative per scenario to
  // the fresh-process verifier.
  std::map<std::uint64_t, Answer> answers;
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  std::uint64_t transport_failed = 0;
  std::uint64_t refused = 0;
  std::uint64_t disagreements = 0;
  for (const ClientLog& log : loop.logs) {
    attempted += log.issued;
    answered += log.answered;
    transport_failed += log.transport_failed;
    refused += log.refused;
    disagreements += log.disagreements;
    for (const auto& [scenario, answer] : log.answers) {
      const auto [it, inserted] = answers.try_emplace(scenario, answer);
      if (inserted) continue;
      if (it->second.fingerprint != answer.fingerprint) ++disagreements;
      it->second.count += answer.count;
      if (answer.first_request < it->second.first_request) {
        it->second.first_request = answer.first_request;
        it->second.fingerprint = answer.fingerprint;
      }
    }
  }
  // Throughput and latency per group of consecutive parts of the window: a
  // group closes once it holds kMinGroupQueries queries, and a short tail
  // joins the last group.
  const std::size_t parts = loop.logs[0].latency.size();
  std::vector<std::size_t> bounds{0};  // group g: parts [bounds[g], bounds[g+1])
  std::uint64_t in_group = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    for (const ClientLog& log : loop.logs) in_group += log.latency[p].count();
    if (in_group >= kMinGroupQueries) {
      bounds.push_back(p + 1);
      in_group = 0;
    }
  }
  if (bounds.size() == 1) bounds.push_back(parts);
  bounds.back() = parts;
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::size_t p99_beyond = ~std::size_t{0};  // over the groups, the fewest
  for (std::size_t g = 0; g + 1 < bounds.size(); ++g) {
    LatencyHistogram group;
    std::uint64_t group_answered = 0;
    const std::size_t first = bounds[g];
    const std::size_t last = bounds[g + 1];
    for (const ClientLog& log : loop.logs) {
      for (std::size_t p = first; p < last; ++p) {
        group.merge(log.latency[p]);
        group_answered += log.answered_in[p];
      }
    }
    const Quantile p99 = group.quantile_us(99, 100);
    rates.push_back(static_cast<double>(group_answered) /
                    (static_cast<double>(last - first) * loop.part_s));
    p50s.push_back(group.quantile_us(1, 2).value);
    p99s.push_back(p99.value);
    p99_beyond = std::min(p99_beyond, p99.beyond);
  }
  RequestStream stream{options.workload, options.seed};
  double lane_cycles = 0.0;
  for (const auto& [scenario, answer] : answers) {
    const Result<Request> normalized =
        roclk::service::normalize(stream.at(answer.first_request).request);
    if (normalized.is_ok()) {
      lane_cycles += static_cast<double>(answer.count) *
                     answered_lane_cycles(normalized.value());
    }
  }
  Digest digest;
  bool digest_complete = true;
  for (std::uint64_t i = 0; i < kDigestRequests; ++i) {
    const ClientLog& log = loop.logs[i % kClients];
    const std::uint64_t j = i / kClients;
    if (j >= log.prefix.size() || log.prefix[j] == 0) {
      digest_complete = false;
      break;
    }
    digest.add(log.prefix[j]);
  }
  if (std::FILE* f = std::fopen(options.fingerprints_path.c_str(), "w")) {
    for (const auto& [scenario, answer] : answers) {
      std::fprintf(f, "%llu %llu\n",
                   static_cast<unsigned long long>(answer.first_request),
                   static_cast<unsigned long long>(answer.fingerprint));
    }
    if (std::fclose(f) != 0) return 1;
  } else {
    std::fprintf(stderr, "cannot write %s\n",
                 options.fingerprints_path.c_str());
    return 1;
  }

  JsonLine json = record_header(options, 2 * kClients);
  // lane_cycles_per_s: the answered lane-cycles per answer, at the median
  // group's rate.
  const double throughput = median(rates);
  json.num("setup_s", interquartile_mean(setup_s))
      .num("lane_cycles_per_s",
           answered == 0 ? 0.0
                         : lane_cycles / static_cast<double>(answered) *
                               throughput)
      .num("throughput_rps", throughput)
      .num("latency_p50_us", median(p50s))
      .num("latency_p99_us", median(p99s))
      .count("latency_samples", attempted)
      .count("latency_p99_beyond", p99_beyond)
      .array("throughput_by_group", rates)
      .array("latency_p99_by_group_us", p99s)
      .num("peak_rss_mb", peak_rss)
      .count("attempted", attempted)
      .count("failed", transport_failed + refused + disagreements)
      .count("transport_failed", transport_failed)
      .count("refused", refused)
      .count("disagreements", disagreements)
      .count("scenarios_to_verify", answers.size())
      .str("digest", hex64(digest.value()))
      .flag("digest_complete", digest_complete)
      .num("wall_s", loop.wall_s)
      .array("setup_samples_s", setup_s);
  add_service_stats(json, before, after);
  add_memo_stats(json);
  if (options.trace) {
    const SpanLog spans = request_spans(loop, *deployment, trace_every);
    add_span_stats(json, spans);
    if (!spans.write(options.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   options.spans_path.c_str());
      return 1;
    }
  }
  json.print();
  return 0;
}

int verify_serve(const Options& options) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  std::FILE* f = std::fopen(options.fingerprints_path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read %s\n", options.fingerprints_path.c_str());
    return 1;
  }
  unsigned long long index = 0;
  unsigned long long fp = 0;
  while (std::fscanf(f, "%llu %llu", &index, &fp) == 2) {
    entries.emplace_back(index, fp);
  }
  std::fclose(f);

  // Every served answer must equal a fresh execute() of its normalized
  // request, bit for bit, with no memo in between.
  SweepMemo::global().set_enabled(false);
  const auto start = Clock::now();
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> mismatches{0};
  const std::size_t threads =
      std::max<std::size_t>(1, std::min(host_threads(), entries.size()));
  {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        RequestStream stream{options.workload, options.seed};
        for (std::size_t k = next++; k < entries.size(); k = next++) {
          const Result<Request> normalized =
              roclk::service::normalize(stream.at(entries[k].first).request);
          if (!normalized.is_ok()) {
            ++mismatches;
            continue;
          }
          const Response expected =
              roclk::service::execute(normalized.value(), nullptr);
          if (!expected.ok() || fingerprint(expected) != entries[k].second) {
            ++mismatches;
          }
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  JsonLine json = record_header(options, threads);
  json.count("checked", entries.size())
      .count("mismatches", mismatches.load())
      .num("verify_s", seconds_since(start));
  json.print();
  return 0;
}

int run_rung(const Options& options) {
  // The ladder stream: the first kLadderRequests serve_cold requests, which
  // mix corners, grids and yield curves, with the caches empty at the start.
  RequestStream stream{Workload::kServeCold, options.seed};
  std::vector<Request> requests;
  std::vector<Request> normalized;
  for (std::uint64_t i = 0; i < kLadderRequests; ++i) {
    requests.push_back(stream.at(i).request);
    const Result<Request> n = roclk::service::normalize(requests.back());
    if (!n.is_ok()) {
      std::fprintf(stderr, "ladder request %llu invalid: %s\n",
                   static_cast<unsigned long long>(i),
                   n.status().message().c_str());
      return 1;
    }
    normalized.push_back(n.value());
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto check = [&](bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  };
  Options ladder = options;
  ladder.workload = Workload::kServeCold;
  JsonLine json = record_header(ladder, 1);
  json.str("rung", options.rung);

  const auto timed = [](auto&& fn, std::vector<double>& out_us) {
    const auto t0 = Clock::now();
    const Response r = fn();
    out_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    return r;
  };

  if (options.rung == "execute") {
    std::vector<double> us;
    std::vector<double> by_kind[4];
    for (const Request& n : normalized) {
      const Response r =
          timed([&] { return roclk::service::execute(n, nullptr); }, us);
      check(r.ok());
      by_kind[static_cast<std::size_t>(n.kind)].push_back(us.back());
    }
    json.num("service_execute_corner_us",
             median(by_kind[static_cast<int>(QueryKind::kCornerMargin)]))
        .num("service_execute_grid_us",
             median(by_kind[static_cast<int>(QueryKind::kGridSweep)]))
        .num("service_execute_yield_us",
             median(by_kind[static_cast<int>(QueryKind::kYieldCurve)]));
  } else if (options.rung == "handle") {
    // Miss overhead: every corner and grid request is answered by a bare
    // execute() and by handle() missing its cache, back to back in
    // alternating order, with the memo off so both simulate; the paired
    // difference is what handle adds.  Yield requests are left out: the
    // second call would reuse the first one's chip samples, which a
    // process-global memo keeps.  Then every request again: cache hits.
    SweepMemo::global().set_enabled(false);
    SweepService service{ServiceConfig{}};
    std::vector<double> execute_us;
    std::vector<double> miss_us;
    std::vector<double> overhead_us;
    std::vector<double> hit_us;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].kind == QueryKind::kYieldCurve) continue;
      const auto run_execute = [&] {
        check(timed([&] { return roclk::service::execute(normalized[i]); },
                     execute_us)
                  .ok());
      };
      const auto run_handle = [&] {
        const Response r =
            timed([&] { return service.handle(requests[i]); }, miss_us);
        check(r.ok() && !r.from_cache);
      };
      if (i % 2 == 0) {
        run_execute();
        run_handle();
      } else {
        run_handle();
        run_execute();
      }
      overhead_us.push_back(miss_us.back() - execute_us.back());
    }
    for (const Request& r : requests) {
      if (r.kind == QueryKind::kYieldCurve) continue;
      const Response response = timed([&] { return service.handle(r); }, hit_us);
      check(response.ok() && response.from_cache);
    }
    json.num("service_handle_miss_overhead_us", median(overhead_us))
        .num("service_handle_hit_us", median(hit_us));
  } else if (options.rung == "session") {
    // One traced client over a socketpair session, every answer cached:
    // what the transport and session layers cost per request.
    constexpr std::uint64_t kPasses = 8;
    Deployment deployment{ServiceConfig{}, 1, 1};
    for (const Request& r : requests) {
      check(deployment.service().handle(r).ok());
    }
    const auto source = [&requests] {
      return Source{[&requests](std::uint64_t i) {
        return StreamRequest{requests[i % requests.size()], i % requests.size()};
      }};
    };
    LoopResult loop = drive(deployment, source, Clock::time_point::max(),
                            kPasses * requests.size(), 1);
    deployment.close();
    const ClientLog& log = loop.logs[0];
    attempted += log.issued;
    failed += log.issued - log.answered + log.disagreements;
    add_span_stats(json, request_spans(loop, deployment, 1));
  } else {
    std::fprintf(stderr, "unknown rung '%s'\n", options.rung.c_str());
    return 2;
  }
  add_memo_stats(json);
  json.count("attempted", attempted).count("failed", failed);
  json.print();
  return 0;
}

}  // namespace perfbench
