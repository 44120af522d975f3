// Allocation budgets of the sweep service's hot paths: a cache hit in
// SweepService::handle, a hot Client::query round trip through a framed
// session, and execute() of a corner miss and of a yield miss.  Each
// ceiling is the count on the reference toolchain (GCC 12, libstdc++),
// the same natively and with the scalar pack forced; lower it with any
// change that lowers the count.  docs/service.md states the four budgets.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>

#include "../support/counting_new.hpp"
#include "roclk/service/client.hpp"
#include "roclk/service/execute.hpp"
#include "roclk/service/server.hpp"
#include "roclk/service/session.hpp"
#include "roclk/service/transport.hpp"

namespace roclk::service {
namespace {

using testing::allocations_of;

Request corner_request() {
  Request request;
  request.kind = QueryKind::kCornerMargin;
  request.corner.tclk_over_c = 1.25;
  request.corner.te_over_c = 30.0;
  request.corner.cycles = 2000;
  request.corner.skip = 200;
  return request;
}

TEST(ServiceBudget, HandleCacheHitStaysUnderItsCeiling) {
  // A hit normalizes and hashes the request without a buffer; its one
  // allocation copies the stored answer out of the cache.
  constexpr std::uint64_t kCeiling = 1;
  SweepService service{{}};
  const Request request = corner_request();
  ASSERT_TRUE(service.handle(request).ok());  // the miss fills the cache
  ASSERT_TRUE(service.handle(request).ok());
  const std::uint64_t count =
      allocations_of([&] { (void)service.handle(request); });
  EXPECT_LE(count, kCeiling);
  EXPECT_EQ(service.stats().simulations, 1u);
  RecordProperty("allocations", std::to_string(count));
}

TEST(ServiceBudget, HotRoundTripStaysUnderItsCeiling) {
  // Client::query on a cache hit, over a socketpair into
  // run_server_session: encode and decode at both ends plus handle().
  // Each payload and frame writer is reserved to its word count, so a
  // query makes 8: per direction a payload, its frame and the read_frame
  // tail, plus the hit's copy of the answer and the decoded response.
  // The count covers both threads, and the session may still allocate
  // after it wrote the last reply, so the total can only read low.
  constexpr std::uint64_t kPerQuery = 8;
  constexpr std::uint64_t kQueries = 1000;
  SweepService service{{}};
  FdStream client_end, server_end;
  ASSERT_TRUE(make_stream_pair(client_end, server_end).is_ok());
  std::thread session{[&service, fd = server_end.release()] {
    FdStream owned{fd};
    (void)run_server_session(owned.fd(), service);
  }};
  std::uint64_t count = 0;
  {
    Client client{std::move(client_end)};
    const Request request = corner_request();
    for (int warm = 0; warm < 2; ++warm) {
      // Not ASSERT: returning early would leave the session unjoined.
      const Result<Response> reply = client.query(request);
      EXPECT_TRUE(reply.is_ok() && reply.value().ok());
    }
    count = allocations_of([&] {
      for (std::uint64_t q = 0; q < kQueries; ++q) {
        (void)client.query(request);
      }
    });
  }  // the client closes its end, so the session returns
  session.join();
  EXPECT_LE(count, kPerQuery * kQueries);
  EXPECT_EQ(service.stats().simulations, 1u);
  RecordProperty("allocations", std::to_string(count));
}

TEST(ServiceBudget, ExecuteCornerMissStaysUnderItsCeiling) {
  // One 2000-cycle corner: the one-lane ensemble simulate_system builds
  // (KernelBudget.SimulateSystemCornerStaysUnderItsCeiling) and the
  // response.
  constexpr std::uint64_t kCeiling = 9;
  const Result<Request> normalized = normalize(corner_request());
  ASSERT_TRUE(normalized.is_ok());
  ASSERT_TRUE(execute(normalized.value()).ok());
  const std::uint64_t count =
      allocations_of([&] { (void)execute(normalized.value()); });
  EXPECT_LE(count, kCeiling);
  RecordProperty("allocations", std::to_string(count));
}

TEST(ServiceBudget, ExecuteYieldMissStaysUnderItsCeiling) {
  // One yield curve of the default YieldQuery (500 chips of 64 paths, 9
  // margin points) without a pool: the miss serve_cold sends once per 32
  // requests.  Each chip builds its within-die SpatialMap, whose two
  // arrays grow once per octave (4 allocations, 2,000 in all); the curve
  // and its response make the other 10.
  constexpr std::uint64_t kCeiling = 2010;
  Request request;
  request.kind = QueryKind::kYieldCurve;
  const Result<Request> normalized = normalize(request);
  ASSERT_TRUE(normalized.is_ok());
  ASSERT_TRUE(execute(normalized.value()).ok());
  const std::uint64_t count =
      allocations_of([&] { (void)execute(normalized.value()); });
  EXPECT_LE(count, kCeiling);
  RecordProperty("allocations", std::to_string(count));
}

}  // namespace
}  // namespace roclk::service
