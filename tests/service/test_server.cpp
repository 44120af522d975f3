#include "roclk/service/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "roclk/analysis/experiments.hpp"
#include "roclk/analysis/metrics.hpp"
#include "roclk/analysis/sweep_cache.hpp"
#include "roclk/analysis/yield.hpp"
#include "roclk/common/thread_pool.hpp"

namespace roclk::service {
namespace {

using namespace std::chrono_literals;

Request corner_request(double tclk_over_c = 1.0) {
  Request request;
  request.kind = QueryKind::kCornerMargin;
  request.corner.tclk_over_c = tclk_over_c;
  request.corner.cycles = 2000;
  request.corner.skip = 200;
  return request;
}

/// Spins until `predicate` holds (bounded); keeps deterministic-ordering
/// tests honest on a single-core host.
template <class Pred>
bool wait_for(Pred&& predicate, std::chrono::milliseconds budget = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(SweepService, ServesACornerQuery) {
  SweepService service{{}};
  const Response response = service.handle(corner_request());
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.values.size(), 5u);
  EXPECT_FALSE(response.from_cache);
  EXPECT_FALSE(response.coalesced);
  EXPECT_NE(response.content_hash, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.simulations, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(SweepService, RejectsInvalidRequestsWithTypedStatus) {
  SweepService service{{}};
  Request request = corner_request();
  request.corner.setpoint_c = -1.0;
  const Response response = service.handle(request);
  EXPECT_EQ(response.status, ResponseStatus::kInvalidRequest);
  EXPECT_FALSE(response.message.empty());
  EXPECT_EQ(service.stats().invalid, 1u);
  EXPECT_EQ(service.stats().accepted, 0u);
}

TEST(SweepService, SecondIdenticalQueryHitsTheCache) {
  SweepService service{{}};
  const Response first = service.handle(corner_request());
  const Response second = service.handle(corner_request());
  ASSERT_EQ(second.status, ResponseStatus::kOk);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.values, first.values);
  EXPECT_EQ(second.content_hash, first.content_hash);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.simulations, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(SweepService, ZeroCacheCapacityForcesResimulation) {
  ServiceConfig config;
  config.cache_capacity = 0;
  SweepService service{config};
  (void)service.handle(corner_request());
  const Response second = service.handle(corner_request());
  EXPECT_EQ(second.status, ResponseStatus::kOk);
  EXPECT_FALSE(second.from_cache);
  EXPECT_EQ(service.stats().simulations, 2u);
}

TEST(SweepService, CacheCapacityBoundsTheWorkingSet) {
  ServiceConfig config;
  config.cache_capacity = 1;
  SweepService service{config};
  (void)service.handle(corner_request(1.0));
  (void)service.handle(corner_request(1.25));  // evicts the 1.0 entry
  const Response again = service.handle(corner_request(1.0));
  EXPECT_FALSE(again.from_cache);
  EXPECT_EQ(service.stats().simulations, 3u);
}

TEST(SweepService, ShutdownDrainsNewRequests) {
  SweepService service{{}};
  EXPECT_FALSE(service.shutting_down());
  service.begin_shutdown();
  EXPECT_TRUE(service.shutting_down());
  const Response response = service.handle(corner_request());
  EXPECT_EQ(response.status, ResponseStatus::kShuttingDown);
}

TEST(SweepService, ShutdownDrainsInFlightCoalescedRequests) {
  SweepService* service_ptr = nullptr;
  ServiceConfig config;
  // The owner's simulation is held until two waiters have coalesced onto
  // it AND shutdown has begun: the drain guarantee is then exercised with
  // requests genuinely in flight, not as a scheduling accident.
  config.before_execute = [&service_ptr] {
    (void)wait_for([&] {
      return service_ptr->stats().coalesced >= 2 &&
             service_ptr->shutting_down();
    });
  };
  SweepService service{config};
  service_ptr = &service;

  Response owner_response;
  std::thread owner{[&] { owner_response = service.handle(corner_request()); }};
  ASSERT_TRUE(wait_for([&] { return service.stats().simulations == 1; }));

  Response waiter_responses[2];
  std::thread waiters[2];
  for (int i = 0; i < 2; ++i) {
    waiters[i] = std::thread{[&service, &waiter_responses, i] {
      waiter_responses[i] = service.handle(corner_request());
    }};
  }
  ASSERT_TRUE(wait_for([&] { return service.stats().coalesced == 2; }));

  service.begin_shutdown();
  // A newcomer is refused immediately with the typed draining status...
  const Response refused = service.handle(corner_request());
  EXPECT_EQ(refused.status, ResponseStatus::kShuttingDown);

  owner.join();
  for (std::thread& t : waiters) t.join();

  // ...but everyone already in flight is served the real answer.
  ASSERT_EQ(owner_response.status, ResponseStatus::kOk);
  for (const Response& response : waiter_responses) {
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_TRUE(response.coalesced);
    EXPECT_EQ(response.values, owner_response.values);
  }
  EXPECT_EQ(service.stats().completed, 3u);
}

TEST(SweepService, InternalErrorsSurfaceAsTypedStatus) {
  ServiceConfig config;
  // The simulator layer is defensively robust, so inject the failure at
  // the seam the contract actually protects: anything thrown between
  // admission and publish must surface as a typed status instead of
  // tearing down the daemon, and must never be cached.
  config.before_execute = [] {
    throw std::runtime_error("synthetic simulator fault");
  };
  SweepService service{config};
  const Request request = corner_request();
  const Response response = service.handle(request);
  EXPECT_EQ(response.status, ResponseStatus::kInternalError);
  EXPECT_FALSE(response.message.empty());
  // Failures are not cached: the next identical ask re-executes.
  const Response again = service.handle(request);
  EXPECT_EQ(again.status, ResponseStatus::kInternalError);
  EXPECT_FALSE(again.from_cache);
  EXPECT_EQ(service.stats().simulations, 2u);
  EXPECT_EQ(service.stats().completed, 0u);
}

TEST(SweepService, ConcurrentIdenticalQueriesCoalesceOntoOneSimulation) {
  SweepService* service_ptr = nullptr;
  ServiceConfig config;
  // The owner holds its simulation until a second identical request has
  // been absorbed by the in-flight entry — coalescing is then guaranteed,
  // not a scheduling accident.
  config.before_execute = [&service_ptr] {
    (void)wait_for([&] { return service_ptr->stats().coalesced >= 1; });
  };
  SweepService service{config};
  service_ptr = &service;

  Response owner_response;
  std::thread owner{[&] { owner_response = service.handle(corner_request()); }};
  ASSERT_TRUE(wait_for([&] { return service.stats().simulations == 1; }));

  const Response waiter_response = service.handle(corner_request());
  owner.join();

  ASSERT_EQ(owner_response.status, ResponseStatus::kOk);
  ASSERT_EQ(waiter_response.status, ResponseStatus::kOk);
  EXPECT_TRUE(waiter_response.coalesced);
  EXPECT_EQ(waiter_response.values, owner_response.values);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.simulations, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(SweepService, AdmissionControlShedsExcessLoad) {
  std::atomic<bool> release{false};
  ServiceConfig config;
  config.max_in_flight = 1;
  config.before_execute = [&release] {
    while (!release.load()) std::this_thread::yield();
  };
  SweepService service{config};

  std::thread owner{[&] { (void)service.handle(corner_request(1.0)); }};
  ASSERT_TRUE(wait_for([&] { return service.stats().simulations == 1; }));

  // A DIFFERENT scenario cannot coalesce; the bound is reached -> shed.
  const Response shed = service.handle(corner_request(1.25));
  EXPECT_EQ(shed.status, ResponseStatus::kOverloaded);
  EXPECT_EQ(service.stats().shed, 1u);

  release.store(true);
  owner.join();

  // Capacity freed: the same scenario now executes.
  const Response after = service.handle(corner_request(1.25));
  EXPECT_EQ(after.status, ResponseStatus::kOk);
}

TEST(SweepService, CacheHitsBypassAdmissionControl) {
  std::atomic<bool> release{false};
  ServiceConfig config;
  config.max_in_flight = 1;
  config.before_execute = [&release] {
    while (!release.load()) std::this_thread::yield();
  };
  SweepService service{config};
  // Warm the cache before saturating admission.
  release.store(true);
  ASSERT_EQ(service.handle(corner_request(1.0)).status, ResponseStatus::kOk);
  release.store(false);

  std::thread owner{[&] { (void)service.handle(corner_request(1.25)); }};
  ASSERT_TRUE(wait_for([&] { return service.stats().simulations == 2; }));

  const Response hit = service.handle(corner_request(1.0));
  EXPECT_EQ(hit.status, ResponseStatus::kOk);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(service.stats().shed, 0u);

  release.store(true);
  owner.join();
}

TEST(SweepService, CoalescedWaiterTimesOutWithoutCancellingTheOwner) {
  SweepService* service_ptr = nullptr;
  ServiceConfig config;
  config.before_execute = [&service_ptr] {
    (void)wait_for([&] { return service_ptr->stats().deadline_exceeded >= 1; });
  };
  SweepService service{config};
  service_ptr = &service;

  Response owner_response;
  std::thread owner{[&] { owner_response = service.handle(corner_request()); }};
  ASSERT_TRUE(wait_for([&] { return service.stats().simulations == 1; }));

  Request impatient = corner_request();
  impatient.deadline_ms = 1;
  const Response timed_out = service.handle(impatient);
  owner.join();

  EXPECT_EQ(timed_out.status, ResponseStatus::kDeadlineExceeded);
  // The owner's simulation was NOT cancelled; its result landed in the
  // cache for the next asker.
  ASSERT_EQ(owner_response.status, ResponseStatus::kOk);
  const Response next = service.handle(corner_request());
  EXPECT_TRUE(next.from_cache);
  EXPECT_EQ(next.values, owner_response.values);
}

TEST(SweepService, DefaultDeadlineAppliesToRequestsCarryingNone) {
  SweepService* service_ptr = nullptr;
  ServiceConfig config;
  config.default_deadline_ms = 1;
  config.before_execute = [&service_ptr] {
    (void)wait_for([&] { return service_ptr->stats().deadline_exceeded >= 1; });
  };
  SweepService service{config};
  service_ptr = &service;

  std::thread owner{[&] { (void)service.handle(corner_request()); }};
  ASSERT_TRUE(wait_for([&] { return service.stats().simulations == 1; }));

  Request patientless = corner_request();  // deadline_ms == 0 -> inherits
  const Response timed_out = service.handle(patientless);
  owner.join();
  EXPECT_EQ(timed_out.status, ResponseStatus::kDeadlineExceeded);
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);
}

TEST(SweepService, ResultsAreBitwiseIdenticalAcrossSimPools) {
  Request grid;
  grid.kind = QueryKind::kGridSweep;
  grid.grid.axis = GridAxis::kTclkOverC;
  grid.grid.lo = 0.8;
  grid.grid.hi = 1.6;
  grid.grid.points = 5;
  grid.grid.base.cycles = 2000;
  grid.grid.base.skip = 200;

  std::vector<Response> responses;
  {
    SweepService sequential{{}};  // sim_pool == nullptr
    responses.push_back(sequential.handle(grid));
  }
  {
    ThreadPool one{1};
    ServiceConfig config;
    config.sim_pool = &one;
    SweepService service{config};
    responses.push_back(service.handle(grid));
  }
  {
    ServiceConfig config;
    config.sim_pool = &ThreadPool::shared();
    SweepService service{config};
    responses.push_back(service.handle(grid));
  }
  ASSERT_EQ(responses[0].status, ResponseStatus::kOk);
  EXPECT_EQ(responses[0].values.size(), 15u);
  // DESIGN.md §13: scheduling must never leak into results.
  EXPECT_EQ(responses[1].values, responses[0].values);
  EXPECT_EQ(responses[2].values, responses[0].values);
}

TEST(SweepService, ServesYieldCurveQueries) {
  Request request;
  request.kind = QueryKind::kYieldCurve;
  request.yield.chips = 32;
  request.yield.margin_points = 3;
  SweepService service{{}};
  const Response response = service.handle(request);
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.values.size(), 3u + 3u * 3u);
  // Yields are probabilities; adaptive beats fixed at every margin.
  for (std::size_t i = 3; i + 3 <= response.values.size(); i += 3) {
    EXPECT_GE(response.values[i + 1], 0.0);
    EXPECT_LE(response.values[i + 1], 1.0);
    EXPECT_GE(response.values[i + 2], response.values[i + 1]);
  }
}

Request grid_request(GridAxis axis, double lo, double hi,
                     std::uint64_t points) {
  Request request;
  request.kind = QueryKind::kGridSweep;
  request.grid.axis = axis;
  request.grid.lo = lo;
  request.grid.hi = hi;
  request.grid.points = points;
  request.grid.base.cycles = 2000;
  request.grid.base.skip = 200;
  return request;
}

/// The memo-backed library answer (measure_system*, yield_curve) to a
/// normalized request, in execute()'s value layout.  Grid and yield
/// answers take their x values from `served`, which carries them.
std::vector<double> memo_backed_values(const Request& n,
                                       const std::vector<double>& served) {
  using analysis::RunMetrics;
  using analysis::SystemKind;
  const CornerQuery& c =
      n.kind == QueryKind::kGridSweep ? n.grid.base : n.corner;
  const double sp = c.setpoint_c;
  const double fixed_period = analysis::fixed_clock_period(
      sp, c.amplitude_frac * sp, std::abs(c.mu_over_c) * sp);
  const auto kind = static_cast<SystemKind>(c.system);
  const auto quantization =
      static_cast<cdn::DelayQuantization>(c.quantization);
  const auto corner = [&](double tclk_over_c, double te_over_c) {
    return analysis::measure_system(
        kind, sp, tclk_over_c * sp, c.amplitude_frac * sp, te_over_c * sp,
        c.mu_over_c * sp, fixed_period, c.cycles, c.skip,
        c.free_ro_margin_frac * sp, quantization);
  };

  std::vector<double> values;
  if (n.kind == QueryKind::kCornerMargin) {
    const RunMetrics m = corner(c.tclk_over_c, c.te_over_c);
    return {m.safety_margin, m.mean_period, m.relative_adaptive_period,
            static_cast<double>(m.violations), m.tau_ripple};
  }
  if (n.kind == QueryKind::kYieldCurve) {
    const YieldQuery& y = n.yield;
    analysis::YieldConfig config;
    config.chips = y.chips;
    config.paths = y.paths;
    config.nominal_depth = y.nominal_depth;
    config.d2d_sigma = y.d2d_sigma;
    config.wid_sigma = y.wid_sigma;
    config.rnd_sigma = y.rnd_sigma;
    config.setpoint_c = y.setpoint_c;
    config.ro_max_length = y.ro_max_length;
    config.seed = y.seed;
    std::vector<double> margins;
    for (std::size_t i = 3; i < served.size(); i += 3) {
      margins.push_back(served[i]);
    }
    const analysis::YieldCurve curve = analysis::yield_curve(margins, config);
    values = {curve.mean_worst_path, curve.mean_adaptive_period,
              curve.p99_worst_path};
    for (const analysis::YieldPoint& p : curve.points) {
      values.insert(values.end(),
                    {p.margin_stages, p.fixed_yield, p.adaptive_yield});
    }
    return values;
  }

  std::vector<double> xs;
  for (std::size_t i = 0; i < served.size(); i += 3) xs.push_back(served[i]);
  std::vector<RunMetrics> metrics;
  if (n.grid.axis == GridAxis::kTeOverC) {
    for (const double te : xs) metrics.push_back(corner(c.tclk_over_c, te));
  } else {
    std::vector<double> tclks{c.tclk_over_c * sp};
    std::vector<double> mus{c.mu_over_c * sp};
    std::vector<double>& axis =
        n.grid.axis == GridAxis::kTclkOverC ? tclks : mus;
    axis.clear();
    for (const double x : xs) axis.push_back(x * sp);
    metrics = analysis::measure_system_ensemble(
        kind, sp, tclks, c.amplitude_frac * sp, c.te_over_c * sp, mus,
        fixed_period, c.cycles, c.skip, c.free_ro_margin_frac * sp,
        quantization);
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    values.insert(values.end(), {xs[i], metrics[i].relative_adaptive_period,
                                 metrics[i].safety_margin});
  }
  return values;
}

TEST(SweepService, MissesRunMemoFreeAndMatchTheMemoBackedPath) {
  // The service's bounded ResultCache and its journal are its only
  // caches: no kind of miss may read or grow the process-wide SweepMemo.
  analysis::SweepMemo& memo = analysis::SweepMemo::global();
  memo.clear();
  memo.set_enabled(true);

  std::vector<Request> requests;
  requests.push_back(corner_request(1.25));
  requests.back().corner.mu_over_c = 0.05;
  requests.push_back(grid_request(GridAxis::kTclkOverC, 0.8, 1.6, 4));
  requests.push_back(grid_request(GridAxis::kMuOverC, -0.1, 0.1, 3));
  requests.push_back(grid_request(GridAxis::kTeOverC, 10.0, 40.0, 3));
  requests.back().grid.scale = GridScale::kLog;
  requests.push_back(Request{});
  requests.back().kind = QueryKind::kYieldCurve;
  requests.back().yield.chips = 48;
  requests.back().yield.margin_points = 4;

  SweepService service{{}};
  std::vector<Response> responses;
  for (const Request& request : requests) {
    responses.push_back(service.handle(request));
    ASSERT_EQ(responses.back().status, ResponseStatus::kOk);
    EXPECT_FALSE(responses.back().from_cache);
  }
  const analysis::SweepMemoStats untouched = memo.stats();
  EXPECT_EQ(untouched.hits, 0u);
  EXPECT_EQ(untouched.misses, 0u);
  EXPECT_EQ(untouched.entries, 0u);
  EXPECT_EQ(service.stats().simulations, requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Result<Request> normalized = normalize(requests[i]);
    ASSERT_TRUE(normalized.is_ok());
    EXPECT_EQ(responses[i].values,
              memo_backed_values(normalized.value(), responses[i].values))
        << "request " << i;
  }
  // The references really went through the memo.
  EXPECT_GT(memo.stats().entries, 0u);
  memo.clear();
}

}  // namespace
}  // namespace roclk::service
