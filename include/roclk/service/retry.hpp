// Resilient client layer: retry policy, deterministic backoff, circuit
// breaker, and a reconnecting ResilientClient.
//
// The raw Client (client.hpp) is one connection in lockstep: any
// transport failure spends the stream and surfaces as a Status error,
// and a typed OVERLOADED / SHUTTING_DOWN answer is the caller's problem.
// ResilientClient turns those into what the status comments promise —
// "retry elsewhere/later" — under an explicit budget:
//
//   retry        only idempotent-safe outcomes are retried: transport
//                errors (the scenario query is idempotent and content-
//                addressed, so a lost response costs at most a cache
//                hit), OVERLOADED (the service shed us) and
//                SHUTTING_DOWN (this daemon is draining; another — or
//                the same one restarted from its journal — can answer).
//                INVALID_REQUEST / MALFORMED_FRAME mean the *request*
//                is wrong and retrying would loop forever; DEADLINE_
//                EXCEEDED means the caller's patience, not the server,
//                ran out.  Neither is retried.
//   backoff      capped exponential with deterministic jitter: the
//                delay for attempt k is a pure function of (jitter key,
//                query index, k) via CounterRng, so a recovery trace
//                replays bit-for-bit.  The actual wait goes through an
//                injectable sleep hook — tests pass a recorder and
//                never block (the roclk_lint `sleep` rule confines real
//                sleeping to this module's TU and the transport TU).
//   reconnect    transport failures drop the spent connection and dial
//                a fresh one through the caller's connector.
//   breaker      a small circuit breaker sheds queries locally after
//                `failure_threshold` consecutive failures, then
//                half-opens after `open_ms` (injectable clock) to probe
//                with a single query — a drained or dead daemon costs
//                one probe per window instead of a retry storm.
//
// docs/service.md §6 is the operational runbook for these knobs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "roclk/common/stream_key.hpp"
#include "roclk/service/client.hpp"

namespace roclk::service {

/// Capped exponential backoff with deterministic jitter.
struct RetryPolicy {
  /// Total tries including the first; 1 disables retrying.
  std::uint32_t max_attempts{4};
  std::uint32_t initial_backoff_ms{10};
  double backoff_multiplier{2.0};
  std::uint32_t max_backoff_ms{2000};
  /// Backoff is scaled by a factor uniform in [1 - jitter, 1 + jitter).
  double jitter_frac{0.5};
  /// Cumulative scheduled-backoff budget; once the next wait would
  /// exceed it the client stops retrying.  0 = unlimited.
  std::uint32_t total_backoff_budget_ms{0};
  /// Deadline stamped onto attempts whose request carries none (0 =
  /// leave the request's own deadline, which may be "none").
  std::uint32_t per_attempt_deadline_ms{0};
};

/// True for response statuses that are idempotent-safe to retry:
/// OVERLOADED and SHUTTING_DOWN.  Malformed-request rejections
/// (INVALID_REQUEST, MALFORMED_FRAME, UNSUPPORTED_VERSION), deadline
/// expiry and internal simulation errors are not.
[[nodiscard]] bool retryable_status(ResponseStatus status);

/// Backoff before attempt `attempt` (1-based: the wait after the first
/// failure is attempt 1).  Pure function of (key, attempt) — callers
/// derive `key` per query so independent queries jitter independently.
[[nodiscard]] std::uint32_t backoff_ms(const RetryPolicy& policy,
                                       std::uint32_t attempt,
                                       const StreamKey& key);

/// Circuit breaker state machine (closed -> open -> half-open).
struct CircuitBreakerConfig {
  /// Consecutive failures that trip the breaker open.  0 disables it.
  std::uint32_t failure_threshold{8};
  /// How long the breaker stays open before half-opening for a probe.
  std::uint32_t open_ms{1000};
  /// Millisecond clock; injectable so tests advance time explicitly.
  /// Defaults (in retry.cpp) to steady_clock.
  std::function<std::uint64_t()> now_ms;
};

enum class BreakerState : std::uint32_t { kClosed, kOpen, kHalfOpen };

[[nodiscard]] constexpr const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerConfig config);

  /// True if a call may proceed.  While open, flips to half-open once
  /// `open_ms` has elapsed and admits exactly one probe.
  [[nodiscard]] bool allow();
  void record_success();
  void record_failure();

  [[nodiscard]] BreakerState state() const { return state_; }
  [[nodiscard]] std::uint32_t consecutive_failures() const {
    return consecutive_failures_;
  }

 private:
  CircuitBreakerConfig config_;
  BreakerState state_{BreakerState::kClosed};
  std::uint32_t consecutive_failures_{0};
  std::uint64_t opened_at_ms_{0};
  bool probe_in_flight_{false};
};

/// Counters a resilient client accumulates; tests assert exact values,
/// summed over 8 clients in ResilientClient.FaultInjectedSoakLosesNoQuery.
struct RetryStats {
  std::uint64_t queries{0};
  std::uint64_t attempts{0};
  std::uint64_t retries{0};
  std::uint64_t reconnects{0};
  std::uint64_t transport_errors{0};
  std::uint64_t retryable_statuses{0};  // OVERLOADED / SHUTTING_DOWN seen
  std::uint64_t backoff_ms_total{0};    // scheduled, not measured
  std::uint64_t breaker_rejections{0};
  std::uint64_t exhausted{0};  // queries that ran out of retry budget
};

struct ResilientClientConfig {
  RetryPolicy retry;
  CircuitBreakerConfig breaker;
  /// Root of the jitter derivation; query q / attempt k draws from
  /// jitter_key.at(q).at(k).
  StreamKey jitter_key{0};
  /// Dials a fresh connection; required.  Called for the first attempt
  /// and after every transport failure.
  std::function<Result<Client>()> connect;
  /// Waits between attempts.  Defaults to a real sleep; tests inject a
  /// recorder to keep the suite wall-clock free.
  std::function<void(std::uint32_t)> sleep_ms;
};

/// A Client wrapper that retries, reconnects, backs off and sheds.
/// Not internally synchronized — one per thread, like Client.
class ResilientClient {
 public:
  explicit ResilientClient(ResilientClientConfig config);

  /// Runs one scenario query with retry/backoff/reconnect.  Returns the
  /// final Response (which may be a typed non-OK if the budget ran out)
  /// or a Status when the transport never yielded a decodable response
  /// or the breaker refused the query.
  [[nodiscard]] Result<Response> query(const Request& request);

  [[nodiscard]] const RetryStats& stats() const { return stats_; }
  [[nodiscard]] const CircuitBreaker& breaker() const { return breaker_; }

 private:
  ResilientClientConfig config_;
  CircuitBreaker breaker_;
  std::optional<Client> client_;
  RetryStats stats_;
  bool dialed_once_{false};
};

}  // namespace roclk::service
