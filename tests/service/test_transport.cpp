#include "roclk/service/transport.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
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

TEST(Transport, FramesRoundTripOverASocketPair) {
  FdStream a, b;
  ASSERT_TRUE(make_stream_pair(a, b).is_ok());
  FdByteStream writer{a.fd()};
  FdByteStream reader{b.fd()};

  Frame frame;
  frame.type = FrameType::kRequest;
  frame.payload = {10, 20, 30};
  ASSERT_TRUE(write_frame(writer, frame));

  const FrameReadOutcome outcome = read_frame(reader);
  ASSERT_EQ(outcome.result, ReadFrameResult::kFrame);
  EXPECT_EQ(outcome.frame.type, frame.type);
  EXPECT_EQ(outcome.frame.payload, frame.payload);
}

TEST(Transport, CleanCloseReadsAsClosed) {
  FdStream a, b;
  ASSERT_TRUE(make_stream_pair(a, b).is_ok());
  FdByteStream reader{b.fd()};
  a.close();
  EXPECT_EQ(read_frame(reader).result, ReadFrameResult::kClosed);
}

TEST(Transport, MidFrameCloseReadsAsTruncated) {
  FdStream a, b;
  ASSERT_TRUE(make_stream_pair(a, b).is_ok());
  FdByteStream writer{a.fd()};
  FdByteStream reader{b.fd()};
  const std::vector<std::uint64_t> whole =
      encode_frame({FrameType::kPing, {}});
  // Ship only the header, then hang up mid-frame.
  const std::vector<std::uint64_t> header{whole.begin(), whole.begin() + 3};
  ASSERT_TRUE(write_words(writer, header));
  a.close();
  const FrameReadOutcome outcome = read_frame(reader);
  EXPECT_EQ(outcome.result, ReadFrameResult::kMalformed);
  EXPECT_EQ(outcome.error, DecodeError::kTruncated);
}

TEST(Transport, BadMagicVersionAndChecksumAreTyped) {
  {
    FdStream a, b;
    ASSERT_TRUE(make_stream_pair(a, b).is_ok());
    FdByteStream writer{a.fd()};
    FdByteStream reader{b.fd()};
    ASSERT_TRUE(write_words(writer, {1, 2, 3, 4}));
    const FrameReadOutcome outcome = read_frame(reader);
    EXPECT_EQ(outcome.result, ReadFrameResult::kMalformed);
    EXPECT_EQ(outcome.error, DecodeError::kBadMagic);
  }
  {
    FdStream a, b;
    ASSERT_TRUE(make_stream_pair(a, b).is_ok());
    FdByteStream writer{a.fd()};
    FdByteStream reader{b.fd()};
    std::vector<std::uint64_t> words = encode_frame({FrameType::kPing, {}});
    words[1] = (std::uint64_t{9} << 32) |
               static_cast<std::uint64_t>(FrameType::kPing);
    ASSERT_TRUE(write_words(writer, words));
    const FrameReadOutcome outcome = read_frame(reader);
    EXPECT_EQ(outcome.result, ReadFrameResult::kMalformed);
    EXPECT_EQ(outcome.error, DecodeError::kBadVersion);
  }
  {
    FdStream a, b;
    ASSERT_TRUE(make_stream_pair(a, b).is_ok());
    FdByteStream writer{a.fd()};
    FdByteStream reader{b.fd()};
    std::vector<std::uint64_t> words =
        encode_frame({FrameType::kRequest, {5, 6}});
    words.back() ^= 1;
    ASSERT_TRUE(write_words(writer, words));
    const FrameReadOutcome outcome = read_frame(reader);
    EXPECT_EQ(outcome.result, ReadFrameResult::kMalformed);
    EXPECT_EQ(outcome.error, DecodeError::kBadChecksum);
  }
}

TEST(Transport, FramesSentInOneWriteReadBackOneByOne) {
  FdStream a, b;
  ASSERT_TRUE(make_stream_pair(a, b).is_ok());
  FdByteStream writer{a.fd()};
  FdByteStream reader{b.fd()};
  const std::vector<Frame> frames = {{FrameType::kRequest, {1, 2, 3}},
                                     {FrameType::kPing, {}},
                                     {FrameType::kResponse, {4, 5}}};
  std::vector<std::uint64_t> words;
  for (const Frame& frame : frames) {
    const std::vector<std::uint64_t> encoded = encode_frame(frame);
    words.insert(words.end(), encoded.begin(), encoded.end());
  }
  ASSERT_TRUE(write_words(writer, words));
  a.close();

  for (const Frame& frame : frames) {
    const FrameReadOutcome outcome = read_frame(reader);
    ASSERT_EQ(outcome.result, ReadFrameResult::kFrame);
    EXPECT_EQ(outcome.frame.type, frame.type);
    EXPECT_EQ(outcome.frame.payload, frame.payload);
  }
  EXPECT_EQ(read_frame(reader).result, ReadFrameResult::kClosed);
}

TEST(Transport, FrameWrittenByteByByteArrivesIntact) {
  FdStream a, b;
  ASSERT_TRUE(make_stream_pair(a, b).is_ok());
  const Frame frame{FrameType::kRequest, {7, 8, 9, 10}};
  const std::vector<std::uint64_t> words = encode_frame(frame);
  // The writer owns its end, so a reader that lost bytes sees EOF
  // instead of waiting for them.
  std::thread trickle{[fd = a.release(), &words] {
    FdByteStream writer{FdStream{fd}};
    const auto* bytes = reinterpret_cast<const unsigned char*>(words.data());
    for (std::size_t i = 0; i < words.size() * sizeof(std::uint64_t); ++i) {
      const IoResult r = writer.write_some(bytes + i, 1);
      EXPECT_TRUE(r.kind == IoResult::Kind::kOk && r.bytes == 1);
      // Every other byte comes after the reader's poll has given up, so
      // reads that poll and reads that block in read(2) both take part.
      if (i % 2 == 0) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds{200});
      }
    }
  }};
  FdByteStream reader{b.fd()};
  const FrameReadOutcome outcome = read_frame(reader);
  trickle.join();
  ASSERT_EQ(outcome.result, ReadFrameResult::kFrame);
  EXPECT_EQ(outcome.frame.type, frame.type);
  EXPECT_EQ(outcome.frame.payload, frame.payload);
}

TEST(Transport, PayloadLargerThanTheReadAheadRoundTrips) {
  FdStream a, b;
  ASSERT_TRUE(make_stream_pair(a, b).is_ok());
  Frame frame{FrameType::kResponse, {}};
  frame.payload.resize(3 * FdByteStream::kReadAheadBytes /
                           sizeof(std::uint64_t) + 5);
  for (std::size_t i = 0; i < frame.payload.size(); ++i) {
    frame.payload[i] = 0x9E3779B97F4A7C15ULL * (i + 1);
  }
  std::thread sender{[fd = a.release(), &frame] {
    FdByteStream writer{FdStream{fd}};
    EXPECT_TRUE(write_frame(writer, frame));
    EXPECT_TRUE(write_frame(writer, {FrameType::kPing, {}}));
  }};
  FdByteStream reader{b.fd()};
  const FrameReadOutcome big = read_frame(reader);
  const FrameReadOutcome after = read_frame(reader);
  sender.join();
  ASSERT_EQ(big.result, ReadFrameResult::kFrame);
  EXPECT_EQ(big.frame.payload, frame.payload);
  ASSERT_EQ(after.result, ReadFrameResult::kFrame);
  EXPECT_EQ(after.frame.type, FrameType::kPing);
}

TEST(Transport, BufferedBytesThenEofMidFrameReadAsTruncated) {
  FdStream a, b;
  ASSERT_TRUE(make_stream_pair(a, b).is_ok());
  FdByteStream writer{a.fd()};
  FdByteStream reader{b.fd()};
  // A whole frame and the first half of the next one in one write, so the
  // half frame is already in the reader's buffer when EOF comes.
  std::vector<std::uint64_t> words =
      encode_frame({FrameType::kRequest, {1, 2}});
  const std::vector<std::uint64_t> next =
      encode_frame({FrameType::kRequest, {3, 4, 5, 6}});
  words.insert(words.end(), next.begin(), next.begin() + 5);
  ASSERT_TRUE(write_words(writer, words));
  a.close();

  ASSERT_EQ(read_frame(reader).result, ReadFrameResult::kFrame);
  const FrameReadOutcome outcome = read_frame(reader);
  EXPECT_EQ(outcome.result, ReadFrameResult::kMalformed);
  EXPECT_EQ(outcome.error, DecodeError::kTruncated);
}

TEST(Transport, FramesRoundTripOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  FdStream read_end{fds[0]};
  FdStream write_end{fds[1]};
  FdByteStream writer{write_end.fd()};
  FdByteStream reader{read_end.fd()};
  for (std::uint64_t i = 0; i < 3; ++i) {
    const Frame frame{FrameType::kRequest, {i, i * i}};
    ASSERT_TRUE(write_frame(writer, frame));
    const FrameReadOutcome outcome = read_frame(reader);
    ASSERT_EQ(outcome.result, ReadFrameResult::kFrame);
    EXPECT_EQ(outcome.frame.payload, frame.payload);
  }
  write_end.close();
  EXPECT_EQ(read_frame(reader).result, ReadFrameResult::kClosed);
}

TEST(Session, ClientAndServiceRoundTripOverASocketPair) {
  FdStream client_end, server_end;
  ASSERT_TRUE(make_stream_pair(client_end, server_end).is_ok());

  SweepService service{{}};
  std::thread server{[&service, fd = server_end.release()] {
    FdStream owned{fd};
    EXPECT_EQ(run_server_session(owned.fd(), service),
              SessionEnd::kClientClosed);
  }};

  Client client{std::move(client_end)};
  const Result<Response> pong = client.ping();
  ASSERT_TRUE(pong.is_ok());
  EXPECT_EQ(pong.value().status, ResponseStatus::kOk);
  EXPECT_EQ(pong.value().message, "ready");

  const Result<Response> first = client.query(corner_request());
  ASSERT_TRUE(first.is_ok());
  ASSERT_EQ(first.value().status, ResponseStatus::kOk);
  EXPECT_FALSE(first.value().from_cache);

  const Result<Response> second = client.query(corner_request());
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(second.value().from_cache);
  EXPECT_EQ(second.value().values, first.value().values);

  Request invalid = corner_request();
  invalid.corner.setpoint_c = -1.0;
  const Result<Response> rejected = client.query(invalid);
  ASSERT_TRUE(rejected.is_ok());
  EXPECT_EQ(rejected.value().status, ResponseStatus::kInvalidRequest);

  // Closing the client ends the session cleanly.
  { const Client closer = std::move(client); }
  server.join();
  EXPECT_EQ(service.stats().simulations, 1u);
}

TEST(Session, StdioSessionAnswersOverTwoPipes) {
  // roclk_sweepd --stdio reads requests from one pipe and writes responses
  // to another, through the same stream and session calls.
  int requests[2];
  int responses[2];
  ASSERT_EQ(::pipe(requests), 0);
  ASSERT_EQ(::pipe(responses), 0);
  FdStream request_read{requests[0]};
  FdStream request_write{requests[1]};
  FdStream response_read{responses[0]};
  FdStream response_write{responses[1]};

  SweepService service{{}};
  std::thread server{[&] {
    FdByteStream stdio{request_read.fd(), response_write.fd()};
    EXPECT_EQ(run_server_session(stdio, service), SessionEnd::kClientClosed);
  }};

  FdByteStream to_server{request_write.fd()};
  FdByteStream from_server{response_read.fd()};
  const auto answer = [&](const Frame& frame) {
    EXPECT_TRUE(write_frame(to_server, frame));
    const FrameReadOutcome reply = read_frame(from_server);
    EXPECT_EQ(reply.result, ReadFrameResult::kFrame);
    EXPECT_EQ(reply.frame.type, FrameType::kResponse);
    WireReader reader{reply.frame.payload.data(), reply.frame.payload.size()};
    Result<Response> response = decode_response(reader);
    EXPECT_TRUE(response.is_ok());
    return response.is_ok() ? response.value() : Response{};
  };
  const Response pong = answer({FrameType::kPing, {}});
  EXPECT_EQ(pong.status, ResponseStatus::kOk);
  EXPECT_EQ(pong.message, "ready");
  WireWriter payload;
  encode_request(corner_request(), payload);
  const Response corner = answer({FrameType::kRequest, payload.words});
  EXPECT_EQ(corner.status, ResponseStatus::kOk);
  EXPECT_FALSE(corner.values.empty());

  request_write.close();  // end of stdin ends the session
  server.join();
  EXPECT_EQ(service.stats().simulations, 1u);
}

TEST(Session, MalformedFrameGetsTypedAnswerAndClosesTheSession) {
  FdStream client_end, server_end;
  ASSERT_TRUE(make_stream_pair(client_end, server_end).is_ok());

  SweepService service{{}};
  std::thread server{[&service, fd = server_end.release()] {
    FdStream owned{fd};
    EXPECT_EQ(run_server_session(owned.fd(), service),
              SessionEnd::kMalformed);
  }};

  Client client{std::move(client_end)};
  const Result<Response> reply =
      client.send_raw({0xBADBADBADBADBAD0ULL, 1, 2, 3});
  server.join();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().status, ResponseStatus::kMalformedFrame);
}

TEST(Session, WrongVersionGetsUnsupportedVersionAnswer) {
  FdStream client_end, server_end;
  ASSERT_TRUE(make_stream_pair(client_end, server_end).is_ok());

  SweepService service{{}};
  std::thread server{[&service, fd = server_end.release()] {
    FdStream owned{fd};
    EXPECT_EQ(run_server_session(owned.fd(), service),
              SessionEnd::kMalformed);
  }};

  std::vector<std::uint64_t> words = encode_frame({FrameType::kPing, {}});
  words[1] = (std::uint64_t{2} << 32) |
             static_cast<std::uint64_t>(FrameType::kPing);
  Client client{std::move(client_end)};
  const Result<Response> reply = client.send_raw(words);
  server.join();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().status, ResponseStatus::kUnsupportedVersion);
}

TEST(Session, ShutdownFrameDrainsTheService) {
  FdStream client_end, server_end;
  ASSERT_TRUE(make_stream_pair(client_end, server_end).is_ok());

  SweepService service{{}};
  std::thread server{[&service, fd = server_end.release()] {
    FdStream owned{fd};
    EXPECT_EQ(run_server_session(owned.fd(), service),
              SessionEnd::kShutdownRequested);
  }};

  Client client{std::move(client_end)};
  const Result<Response> ack = client.shutdown_server();
  server.join();
  ASSERT_TRUE(ack.is_ok());
  EXPECT_EQ(ack.value().status, ResponseStatus::kOk);
  EXPECT_TRUE(service.shutting_down());
}

TEST(Session, ResponseFrameFromClientIsAProtocolViolation) {
  FdStream client_end, server_end;
  ASSERT_TRUE(make_stream_pair(client_end, server_end).is_ok());

  SweepService service{{}};
  std::thread server{[&service, fd = server_end.release()] {
    FdStream owned{fd};
    EXPECT_EQ(run_server_session(owned.fd(), service),
              SessionEnd::kMalformed);
  }};

  Client client{std::move(client_end)};
  const Result<Response> reply =
      client.send_raw(encode_frame({FrameType::kResponse, {}}));
  server.join();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().status, ResponseStatus::kMalformedFrame);
}

TEST(Transport, UnixListenerAcceptsAndUnlinksItsSocket) {
  const std::string path = "test_transport_listener.sock";
  {
    UnixListener listener;
    ASSERT_TRUE(listener.listen(path).is_ok());
    ASSERT_TRUE(listener.listening());

    SweepService service{{}};
    std::thread server{[&] {
      FdStream conn = listener.accept();
      ASSERT_TRUE(conn.valid());
      (void)run_server_session(conn.fd(), service);
    }};

    Result<Client> client = Client::connect(path);
    ASSERT_TRUE(client.is_ok());
    const Result<Response> pong = client.value().ping();
    ASSERT_TRUE(pong.is_ok());
    EXPECT_EQ(pong.value().status, ResponseStatus::kOk);
    {
      Client done = std::move(client).value();
    }
    server.join();
  }
  // Listener destruction unlinks the socket path.
  EXPECT_FALSE(Client::connect(path).is_ok());
}

TEST(Transport, ConnectToMissingSocketFailsCleanly) {
  EXPECT_FALSE(Client::connect("no_such_socket.sock").is_ok());
}

}  // namespace
}  // namespace roclk::service
