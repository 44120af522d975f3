#include "roclk/service/retry.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "roclk/service/fault_injector.hpp"
#include "roclk/service/server.hpp"
#include "roclk/service/session.hpp"

namespace roclk::service {
namespace {

Request corner_request() {
  Request request;
  request.kind = QueryKind::kCornerMargin;
  request.corner.cycles = 2000;
  request.corner.skip = 200;
  return request;
}

TEST(RetryPolicy, OnlyIdempotentSafeStatusesAreRetryable) {
  EXPECT_TRUE(retryable_status(ResponseStatus::kOverloaded));
  EXPECT_TRUE(retryable_status(ResponseStatus::kShuttingDown));
  EXPECT_FALSE(retryable_status(ResponseStatus::kOk));
  EXPECT_FALSE(retryable_status(ResponseStatus::kInvalidRequest));
  EXPECT_FALSE(retryable_status(ResponseStatus::kDeadlineExceeded));
  EXPECT_FALSE(retryable_status(ResponseStatus::kMalformedFrame));
  EXPECT_FALSE(retryable_status(ResponseStatus::kUnsupportedVersion));
  EXPECT_FALSE(retryable_status(ResponseStatus::kInternalError));
}

TEST(RetryPolicy, BackoffIsDeterministicCappedAndJittered) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 100;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 450;
  policy.jitter_frac = 0.5;
  const StreamKey key{77};

  EXPECT_EQ(backoff_ms(policy, 0, key), 0u);
  for (std::uint32_t attempt = 1; attempt <= 8; ++attempt) {
    const std::uint32_t wait = backoff_ms(policy, attempt, key);
    EXPECT_EQ(wait, backoff_ms(policy, attempt, key));  // pure function
    EXPECT_LE(wait, policy.max_backoff_ms);
  }
  // attempt 1 jitters around 100ms within [50, 150).
  const std::uint32_t first = backoff_ms(policy, 1, key);
  EXPECT_GE(first, 50u);
  EXPECT_LT(first, 150u);

  policy.jitter_frac = 0.0;
  EXPECT_EQ(backoff_ms(policy, 1, key), 100u);
  EXPECT_EQ(backoff_ms(policy, 2, key), 200u);
  EXPECT_EQ(backoff_ms(policy, 3, key), 400u);
  EXPECT_EQ(backoff_ms(policy, 4, key), 450u);  // capped
}

TEST(CircuitBreaker, TripsHalfOpensAndRecloses) {
  std::uint64_t now = 0;
  CircuitBreakerConfig config;
  config.failure_threshold = 2;
  config.open_ms = 1000;
  config.now_ms = [&now] { return now; };
  CircuitBreaker breaker{config};

  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();
  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow());

  now += 999;
  EXPECT_FALSE(breaker.allow());
  now += 1;
  EXPECT_TRUE(breaker.allow());  // the half-open probe
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.allow());  // only one probe at a time

  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow());

  // A failed probe reopens immediately, without reaching the threshold.
  breaker.record_failure();
  breaker.record_failure();
  now += 1000;
  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

/// Dials socketpair connections into `service`, each served by its own
/// session thread; optionally wraps the client end in a FaultyStream.
class LoopbackDialer {
 public:
  explicit LoopbackDialer(SweepService& service) : service_{&service} {}
  ~LoopbackDialer() {
    for (std::thread& t : sessions_) t.join();
  }

  [[nodiscard]] Result<Client> dial(TransportFaultConfig faults = {},
                                    StreamKey key = StreamKey{0}) {
    FdStream client_end, server_end;
    if (Status s = make_stream_pair(client_end, server_end); !s.is_ok()) {
      return s;
    }
    sessions_.emplace_back([service = service_, fd = server_end.release()] {
      FdStream owned{fd};
      (void)run_server_session(owned.fd(), *service);
    });
    ++dials_;
    return Client{make_faulty_stream(std::move(client_end), key, faults)};
  }

  [[nodiscard]] int dials() const { return dials_; }

 private:
  SweepService* service_;
  std::vector<std::thread> sessions_;
  int dials_{0};
};

ResilientClientConfig no_sleep_config(std::vector<std::uint32_t>* slept) {
  ResilientClientConfig config;
  config.jitter_key = StreamKey{123};
  config.sleep_ms = [slept](std::uint32_t ms) {
    if (slept != nullptr) slept->push_back(ms);
  };
  return config;
}

TEST(ResilientClient, ReconnectsAfterAMidQueryConnectionReset) {
  SweepService service{{}};
  LoopbackDialer dialer{service};

  ResilientClientConfig config = no_sleep_config(nullptr);
  config.connect = [&dialer, first = true]() mutable -> Result<Client> {
    if (first) {
      first = false;
      // The first connection dies after its first transferred byte: the
      // request goes out, the stream resets before the response.
      TransportFaultConfig faults;
      faults.reset_after_bytes = 1;
      return dialer.dial(faults, StreamKey{1});
    }
    return dialer.dial();
  };
  ResilientClient client{config};

  const Result<Response> reply = client.query(corner_request());
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().status, ResponseStatus::kOk);
  EXPECT_EQ(client.stats().attempts, 2u);
  EXPECT_EQ(client.stats().transport_errors, 1u);
  EXPECT_EQ(client.stats().reconnects, 1u);
  EXPECT_EQ(dialer.dials(), 2);
}

TEST(ResilientClient, ShuttingDownAnswerRetriesAgainstAFreshConnection) {
  SweepService draining{{}};
  draining.begin_shutdown();
  SweepService healthy{{}};
  LoopbackDialer drain_dialer{draining};
  LoopbackDialer healthy_dialer{healthy};

  std::vector<std::uint32_t> slept;
  ResilientClientConfig config = no_sleep_config(&slept);
  config.connect = [&, first = true]() mutable -> Result<Client> {
    if (first) {
      first = false;
      return drain_dialer.dial();
    }
    return healthy_dialer.dial();
  };
  ResilientClient client{config};

  const Result<Response> reply = client.query(corner_request());
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().status, ResponseStatus::kOk);
  EXPECT_EQ(client.stats().retryable_statuses, 1u);
  EXPECT_EQ(client.stats().retries, 1u);
  // A draining daemon is abandoned: the retry dialed a fresh connection.
  EXPECT_EQ(healthy_dialer.dials(), 1);
  // The recorded wait is exactly the deterministic schedule.
  ASSERT_EQ(slept.size(), 1u);
  EXPECT_EQ(slept[0], backoff_ms(config.retry, 1, StreamKey{123}.at(0)));
}

TEST(ResilientClient, MalformedRequestsAreNeverRetried) {
  SweepService service{{}};
  LoopbackDialer dialer{service};

  ResilientClientConfig config = no_sleep_config(nullptr);
  config.connect = [&dialer] { return dialer.dial(); };
  ResilientClient client{config};

  Request invalid = corner_request();
  invalid.corner.setpoint_c = -1.0;
  const Result<Response> reply = client.query(invalid);
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().status, ResponseStatus::kInvalidRequest);
  EXPECT_EQ(client.stats().attempts, 1u);
  EXPECT_EQ(client.stats().retries, 0u);
}

TEST(ResilientClient, ExhaustionReturnsTheLastTypedOutcome) {
  SweepService draining{{}};
  draining.begin_shutdown();
  LoopbackDialer dialer{draining};

  std::vector<std::uint32_t> slept;
  ResilientClientConfig config = no_sleep_config(&slept);
  config.retry.max_attempts = 3;
  config.connect = [&dialer] { return dialer.dial(); };
  ResilientClient client{config};

  const Result<Response> reply = client.query(corner_request());
  // The budget ran out, but the caller still sees the *typed* outcome —
  // "the service said not now", not "the wire never answered".
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().status, ResponseStatus::kShuttingDown);
  EXPECT_EQ(client.stats().attempts, 3u);
  EXPECT_EQ(client.stats().exhausted, 1u);
  EXPECT_EQ(slept.size(), 2u);
}

TEST(ResilientClient, BackoffBudgetBoundsTheRetryLoop) {
  SweepService draining{{}};
  draining.begin_shutdown();
  LoopbackDialer dialer{draining};

  std::vector<std::uint32_t> slept;
  ResilientClientConfig config = no_sleep_config(&slept);
  config.retry.max_attempts = 10;
  config.retry.jitter_frac = 0.0;
  config.retry.initial_backoff_ms = 100;
  config.retry.total_backoff_budget_ms = 250;  // 100 + 200 > 250
  config.connect = [&dialer] { return dialer.dial(); };
  ResilientClient client{config};

  const Result<Response> reply = client.query(corner_request());
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().status, ResponseStatus::kShuttingDown);
  EXPECT_EQ(client.stats().attempts, 2u);  // first try + one 100ms retry
  EXPECT_EQ(slept, (std::vector<std::uint32_t>{100}));
}

/// Query `r` of soak client `client`: 3 of 4 hit a corner shared by every
/// client, the 4th is a corner only this client asks for.
Request soak_request(std::size_t client, std::size_t r) {
  Request request = corner_request();
  request.corner.te_over_c = 25.0;
  request.corner.tclk_over_c =
      r % 4 != 3 ? 1.0 + 0.05 * static_cast<double>(r % 4)
                 : 3.0 + 0.01 * static_cast<double>(client * 1024 + r);
  return request;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(ResilientClient, FaultInjectedSoakLosesNoQuery) {
  // 8 concurrent clients, each dialing socketpair sessions into one
  // service through a FaultyStream that interrupts, shortens and finally
  // resets every connection.  Every fault schedule is keyed by (client,
  // dial), nothing is shed (max_in_flight exceeds the client count) and
  // backoff never sleeps, so the recovery counters are exact.
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kQueries = 200;
  SweepService service{{}};

  std::vector<std::vector<Result<Response>>> replies(kClients);
  std::vector<RetryStats> stats(kClients);
  {
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < kClients; ++c) {
      workers.emplace_back([&service, &replies, &stats, c] {
        // Declared first, so the client closes its last connection before
        // the dialer joins the session threads.
        LoopbackDialer dialer{service};
        ResilientClientConfig config = no_sleep_config(nullptr);
        config.retry.max_attempts = 8;
        config.breaker.failure_threshold = 0;
        config.jitter_key = StreamKey{20260809}.at(c);
        config.connect = [&dialer, c] {
          TransportFaultConfig faults;
          faults.short_op_rate = 0.3;
          faults.eintr_rate = 0.2;
          faults.reset_after_bytes = 4096;
          const auto dial = static_cast<std::uint64_t>(dialer.dials());
          return dialer.dial(faults, StreamKey{0xFA17}.at(c).at(dial));
        };
        ResilientClient client{config};
        for (std::size_t r = 0; r < kQueries; ++r) {
          replies[c].push_back(client.query(soak_request(c, r)));
        }
        stats[c] = client.stats();
      });
    }
    for (std::thread& t : workers) t.join();
  }

  SweepService reference{{}};
  RetryStats total;
  for (std::size_t c = 0; c < kClients; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    for (std::size_t r = 0; r < kQueries; ++r) {
      const Result<Response>& reply = replies[c][r];
      ASSERT_TRUE(reply.is_ok()) << "query " << r << " lost";
      ASSERT_EQ(reply.value().status, ResponseStatus::kOk) << "query " << r;
      EXPECT_TRUE(bitwise_equal(reply.value().values,
                                reference.handle(soak_request(c, r)).values))
          << "query " << r;
    }
    EXPECT_GE(stats[c].reconnects, 1u);
    total.attempts += stats[c].attempts;
    total.retries += stats[c].retries;
    total.reconnects += stats[c].reconnects;
    total.transport_errors += stats[c].transport_errors;
    total.retryable_statuses += stats[c].retryable_statuses;
    total.backoff_ms_total += stats[c].backoff_ms_total;
  }
  EXPECT_EQ(total.attempts, 1688u);
  EXPECT_EQ(total.retries, 88u);
  EXPECT_EQ(total.reconnects, 88u);
  EXPECT_EQ(total.transport_errors, 88u);
  EXPECT_EQ(total.retryable_statuses, 0u);
  EXPECT_EQ(total.backoff_ms_total, 822u);
}

TEST(ResilientClient, BreakerShedsQueriesLocallyAfterRepeatedFailures) {
  std::uint64_t now = 0;
  std::vector<std::uint32_t> slept;
  ResilientClientConfig config = no_sleep_config(&slept);
  config.retry.max_attempts = 2;
  config.breaker.failure_threshold = 2;
  config.breaker.open_ms = 1000;
  config.breaker.now_ms = [&now] { return now; };
  config.connect = [] { return Client::connect("no_such_socket.sock"); };
  ResilientClient client{config};

  const Result<Response> first = client.query(corner_request());
  EXPECT_FALSE(first.is_ok());  // both dials failed
  EXPECT_EQ(client.breaker().state(), BreakerState::kOpen);

  const Result<Response> second = client.query(corner_request());
  EXPECT_FALSE(second.is_ok());
  EXPECT_EQ(client.stats().breaker_rejections, 1u);
  EXPECT_EQ(client.stats().attempts, 2u);  // the shed query never dialed

  now += 1000;  // the breaker half-opens and admits a probe again
  const Result<Response> third = client.query(corner_request());
  EXPECT_FALSE(third.is_ok());
  EXPECT_EQ(client.stats().breaker_rejections, 1u);
  EXPECT_GT(client.stats().attempts, 2u);
}

}  // namespace
}  // namespace roclk::service
