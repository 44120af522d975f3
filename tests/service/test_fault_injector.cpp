#include "roclk/service/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "roclk/service/client.hpp"
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

TransportFaultConfig aggressive() {
  TransportFaultConfig config;
  config.short_op_rate = 0.6;
  config.eintr_rate = 0.4;
  config.bitflip_rate = 0.3;
  return config;
}

/// Pushes a fixed word script through a FaultyStream into a socketpair
/// and drains the peer; returns (stats, bytes that reached the wire).
std::pair<FaultStats, std::vector<unsigned char>> run_write_script(
    StreamKey key, const TransportFaultConfig& config) {
  FdStream a, b;
  EXPECT_TRUE(make_stream_pair(a, b).is_ok());
  auto faulty = make_faulty_stream(std::move(a), key, config);

  std::vector<std::uint64_t> script(64);
  for (std::size_t i = 0; i < script.size(); ++i) {
    script[i] = 0x0101010101010101ULL * i;
  }
  std::vector<unsigned char> received;
  std::thread drain{[fd = b.fd(), &received] {
    FdByteStream peer{fd};
    unsigned char chunk[256];
    for (;;) {
      const IoResult r = peer.read_some(chunk, sizeof(chunk));
      if (r.kind == IoResult::Kind::kInterrupted) continue;
      if (r.kind != IoResult::Kind::kOk) break;
      received.insert(received.end(), chunk, chunk + r.bytes);
    }
  }};
  EXPECT_TRUE(write_words(*faulty, script));
  faulty->close();
  drain.join();
  b.close();
  return {faulty->stats(), received};
}

TEST(FaultyStream, ZeroRatesArePassThrough) {
  FdStream a, b;
  ASSERT_TRUE(make_stream_pair(a, b).is_ok());
  auto faulty_a = make_faulty_stream(std::move(a), StreamKey{7}, {});
  auto faulty_b = make_faulty_stream(std::move(b), StreamKey{8}, {});

  Frame frame;
  frame.type = FrameType::kRequest;
  frame.payload = {10, 20, 30};
  ASSERT_TRUE(write_frame(*faulty_a, frame));

  const FrameReadOutcome outcome = read_frame(*faulty_b);
  ASSERT_EQ(outcome.result, ReadFrameResult::kFrame);
  EXPECT_EQ(outcome.frame.payload, frame.payload);

  const FaultStats& stats = faulty_b->stats();
  EXPECT_EQ(stats.short_reads, 0u);
  EXPECT_EQ(stats.eintr_injected, 0u);
  EXPECT_EQ(stats.bit_flips, 0u);
  EXPECT_EQ(stats.resets, 0u);
  EXPECT_GT(stats.reads, 0u);
}

TEST(FaultyStream, SameKeyReplaysTheSameScheduleBitForBit) {
  const auto [stats_1, bytes_1] = run_write_script(StreamKey{42}, aggressive());
  const auto [stats_2, bytes_2] = run_write_script(StreamKey{42}, aggressive());
  // Identical fault decisions AND identical corrupted bytes on the wire:
  // the whole failure is replayable, not just its summary counters.
  EXPECT_EQ(stats_1, stats_2);
  EXPECT_EQ(bytes_1, bytes_2);
  EXPECT_GT(stats_1.short_writes + stats_1.eintr_injected + stats_1.bit_flips,
            0u);
}

TEST(FaultyStream, DifferentKeysDrawDifferentSchedules) {
  const auto [stats_1, bytes_1] = run_write_script(StreamKey{42}, aggressive());
  const auto [stats_2, bytes_2] = run_write_script(StreamKey{43}, aggressive());
  EXPECT_TRUE(!(stats_1 == stats_2) || bytes_1 != bytes_2);
}

TEST(FaultyStream, ShortOpsAndEintrStormsAreTransparentlyRecovered) {
  FdStream client_end, server_end;
  ASSERT_TRUE(make_stream_pair(client_end, server_end).is_ok());

  SweepService service{{}};
  std::thread server{[&service, fd = server_end.release()] {
    FdStream owned{fd};
    EXPECT_EQ(run_server_session(owned.fd(), service),
              SessionEnd::kClientClosed);
  }};

  TransportFaultConfig config;
  config.short_op_rate = 1.0;  // every op transfers a strict prefix
  config.eintr_rate = 0.5;
  auto faulty = make_faulty_stream(std::move(client_end), StreamKey{11}, config);
  FaultyStream* injector = faulty.get();
  {
    Client client{std::move(faulty)};
    const Result<Response> pong = client.ping();
    ASSERT_TRUE(pong.is_ok());
    EXPECT_EQ(pong.value().status, ResponseStatus::kOk);

    const Result<Response> reply = client.query(corner_request());
    ASSERT_TRUE(reply.is_ok());
    EXPECT_EQ(reply.value().status, ResponseStatus::kOk);

    // The faults actually fired; the resume loops absorbed all of them.
    EXPECT_GT(injector->stats().short_writes + injector->stats().short_reads,
              0u);
    EXPECT_GT(injector->stats().eintr_injected, 0u);
  }
  server.join();
}

TEST(FaultyStream, BitFlipsAreCaughtByFrameChecksums) {
  FdStream a, b;
  ASSERT_TRUE(make_stream_pair(a, b).is_ok());
  TransportFaultConfig config;
  config.bitflip_rate = 1.0;
  auto faulty = make_faulty_stream(std::move(a), StreamKey{5}, config);

  Frame frame;
  frame.type = FrameType::kRequest;
  frame.payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(write_frame(*faulty, frame));
  EXPECT_GT(faulty->stats().bit_flips, 0u);

  FdByteStream reader{b.fd()};
  const FrameReadOutcome outcome = read_frame(reader);
  EXPECT_EQ(outcome.result, ReadFrameResult::kMalformed);
}

TEST(FaultyStream, ResetAfterByteBudgetKillsTheStream) {
  FdStream a, b;
  ASSERT_TRUE(make_stream_pair(a, b).is_ok());
  TransportFaultConfig config;
  config.reset_after_bytes = 1;  // dies after the first transfer
  auto faulty = make_faulty_stream(std::move(a), StreamKey{3}, config);

  ASSERT_TRUE(write_frame(*faulty, {FrameType::kPing, {}}));
  EXPECT_FALSE(faulty->valid());
  EXPECT_FALSE(write_frame(*faulty, {FrameType::kPing, {}}));

  unsigned char byte = 0;
  EXPECT_EQ(faulty->read_some(&byte, 1).kind, IoResult::Kind::kEof);
  EXPECT_GE(faulty->stats().resets, 2u);
}

TEST(FaultyStream, StallsRunTheHookInsteadOfSleeping) {
  FdStream a, b;
  ASSERT_TRUE(make_stream_pair(a, b).is_ok());
  TransportFaultConfig config;
  config.stall_rate = 1.0;
  int hook_runs = 0;
  config.stall_hook = [&hook_runs] { ++hook_runs; };
  auto faulty = make_faulty_stream(std::move(a), StreamKey{9}, config);

  ASSERT_TRUE(write_frame(*faulty, {FrameType::kPing, {}}));
  EXPECT_EQ(faulty->stats().stalls, static_cast<std::uint64_t>(hook_runs));
  EXPECT_GT(hook_runs, 0);
}

}  // namespace
}  // namespace roclk::service
