#include "roclk/service/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "roclk/service/transport.hpp"

namespace roclk::service {
namespace {

/// Decodes `words` the way the daemon does: read_frame over a stream that
/// ends after them.
FrameReadOutcome read_words(const std::vector<std::uint64_t>& words) {
  FdStream a;
  FdStream b;
  EXPECT_TRUE(make_stream_pair(a, b).is_ok());
  FdByteStream writer{std::move(a)};
  EXPECT_TRUE(write_words(writer, words));
  writer.close();
  FdByteStream reader{std::move(b)};
  return read_frame(reader);
}

/// The structural error read_frame reports for `words`.
DecodeError read_error(const std::vector<std::uint64_t>& words) {
  const FrameReadOutcome outcome = read_words(words);
  return outcome.result == ReadFrameResult::kFrame ? DecodeError::kOk
                                                   : outcome.error;
}

Response sample_response() {
  Response response;
  response.status = ResponseStatus::kOk;
  response.from_cache = true;
  response.coalesced = true;
  response.content_hash = 0xABCDEF0123456789ULL;
  response.message = "a diagnostic string spanning words";
  response.values = {1.5, -2.25, 0.0, 1e-9};
  return response;
}

TEST(ProtocolResponse, RoundTripsAllFields) {
  const Response original = sample_response();
  WireWriter writer;
  encode_response(original, writer);
  WireReader reader{writer.words.data(), writer.words.size()};
  const Result<Response> decoded = decode_response(reader);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), original);
}

TEST(ProtocolResponse, RoundTripsEveryStatusCode) {
  for (const ResponseStatus status :
       {ResponseStatus::kOk, ResponseStatus::kInvalidRequest,
        ResponseStatus::kOverloaded, ResponseStatus::kDeadlineExceeded,
        ResponseStatus::kShuttingDown, ResponseStatus::kMalformedFrame,
        ResponseStatus::kUnsupportedVersion,
        ResponseStatus::kInternalError}) {
    Response response = Response::error(status, to_string(status));
    WireWriter writer;
    encode_response(response, writer);
    WireReader reader{writer.words.data(), writer.words.size()};
    const Result<Response> decoded = decode_response(reader);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value().status, status);
    EXPECT_EQ(decoded.value().message, to_string(status));
  }
}

TEST(ProtocolResponse, RejectsUnknownStatusAndTruncation) {
  WireWriter writer;
  encode_response(sample_response(), writer);

  std::vector<std::uint64_t> words = writer.words;
  words[0] = 99;  // unknown status code
  WireReader unknown{words.data(), words.size()};
  EXPECT_FALSE(decode_response(unknown).is_ok());

  WireReader truncated{writer.words.data(), writer.words.size() - 1};
  EXPECT_FALSE(decode_response(truncated).is_ok());
}

TEST(ProtocolFrame, RoundTripsThroughEncodeAndDecode) {
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.payload = {1, 2, 3, 0xFFFFFFFFFFFFFFFFULL};
  const FrameReadOutcome decoded = read_words(encode_frame(frame));
  ASSERT_EQ(decoded.result, ReadFrameResult::kFrame);
  EXPECT_EQ(decoded.frame.type, frame.type);
  EXPECT_EQ(decoded.frame.payload, frame.payload);
}

TEST(ProtocolFrame, EmptyPayloadFramesAreValid) {
  for (const FrameType type : {FrameType::kPing, FrameType::kShutdown}) {
    const FrameReadOutcome decoded = read_words(encode_frame({type, {}}));
    ASSERT_EQ(decoded.result, ReadFrameResult::kFrame);
    EXPECT_EQ(decoded.frame.type, type);
    EXPECT_TRUE(decoded.frame.payload.empty());
  }
}

TEST(ProtocolFrame, DetectsEveryStructuralFailure) {
  const std::vector<std::uint64_t> good =
      encode_frame({FrameType::kRequest, {7, 8, 9}});

  std::vector<std::uint64_t> bad_magic = good;
  bad_magic[0] = 0x1111111111111111ULL;
  EXPECT_EQ(read_error(bad_magic), DecodeError::kBadMagic);

  std::vector<std::uint64_t> bad_version = good;
  bad_version[1] = (std::uint64_t{99} << 32) |
                   static_cast<std::uint64_t>(FrameType::kRequest);
  EXPECT_EQ(read_error(bad_version), DecodeError::kBadVersion);

  std::vector<std::uint64_t> bad_type = good;
  bad_type[1] = (std::uint64_t{kProtocolVersion} << 32) | 200;
  EXPECT_EQ(read_error(bad_type), DecodeError::kBadType);

  std::vector<std::uint64_t> oversized = good;
  oversized[2] = kMaxPayloadWords + 1;
  EXPECT_EQ(read_error(oversized), DecodeError::kOversized);

  // The stream ends inside the tail, then inside the header.
  EXPECT_EQ(read_error({good.begin(), good.end() - 1}),
            DecodeError::kTruncated);
  EXPECT_EQ(read_error({good.begin(), good.begin() + 2}),
            DecodeError::kTruncated);

  std::vector<std::uint64_t> corrupt = good;
  corrupt[3] ^= 1;  // flip a payload bit; checksum must catch it
  EXPECT_EQ(read_error(corrupt), DecodeError::kBadChecksum);
}

TEST(ProtocolFrame, MapsDecodeErrorsToTypedStatuses) {
  EXPECT_EQ(to_response_status(DecodeError::kBadVersion),
            ResponseStatus::kUnsupportedVersion);
  for (const DecodeError err :
       {DecodeError::kBadMagic, DecodeError::kBadType,
        DecodeError::kOversized, DecodeError::kTruncated,
        DecodeError::kBadChecksum}) {
    EXPECT_EQ(to_response_status(err), ResponseStatus::kMalformedFrame);
  }
}

TEST(ProtocolFrame, ValidateHeaderMatchesFullDecode) {
  const std::vector<std::uint64_t> words =
      encode_frame({FrameType::kResponse, {11, 22}});
  FrameType type{};
  std::uint64_t payload_words = 0;
  ASSERT_EQ(validate_header(words.data(), type, payload_words),
            DecodeError::kOk);
  EXPECT_EQ(type, FrameType::kResponse);
  EXPECT_EQ(payload_words, 2u);
}

}  // namespace
}  // namespace roclk::service
