// Length-prefixed frame protocol and response schema for the sweep
// service.
//
// Wire layout (all 64-bit words, native byte order — the protocol is
// same-machine IPC over a Unix socket or a pipe, never a network format):
//
//   word 0   magic       0x524F434C4B465231 ("ROCLKFR1")
//   word 1   (version << 32) | frame type
//   word 2   payload word count  (<= kMaxPayloadWords)
//   word 3+  payload words
//   last     checksum    wire_mix chain over words 0..n-1
//
// The receiver rejects a frame on bad magic, unsupported version, unknown
// type, oversized payload, truncation, or checksum mismatch — each maps to
// a typed ResponseStatus so clients see *why* instead of a dropped
// connection.  After a malformed frame the stream cannot be resynced
// (length framing is gone), so servers answer kMalformedFrame and close.
//
// docs/service.md is the normative protocol description.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "roclk/common/status.hpp"
#include "roclk/service/wire.hpp"

namespace roclk::service {

inline constexpr std::uint64_t kFrameMagic = 0x524F434C4B465231ULL;
inline constexpr std::uint32_t kProtocolVersion = 1;
/// Bounds decode-side allocation: 1 MiW = 8 MiB per frame.
inline constexpr std::uint64_t kMaxPayloadWords = 1ULL << 20;

enum class FrameType : std::uint32_t {
  kRequest = 1,   // payload: encode_request words
  kResponse = 2,  // payload: encode_response words
  kShutdown = 3,  // payload: empty; server acks with an OK response frame
  kPing = 4,      // payload: empty; server acks with an OK response frame
};

/// Typed outcome of a scenario query.  Every code is observable by
/// clients and exercised by at least one test (docs/service.md).
enum class ResponseStatus : std::uint32_t {
  kOk = 0,
  kInvalidRequest = 1,      // normalize() rejected the scenario
  kOverloaded = 2,          // admission control shed the request
  kDeadlineExceeded = 3,    // deadline elapsed before a result was ready
  kShuttingDown = 4,        // server is draining; retry elsewhere/later
  kMalformedFrame = 5,      // frame failed structural validation
  kUnsupportedVersion = 6,  // protocol version mismatch
  kInternalError = 7,       // simulation failed after admission
};

[[nodiscard]] constexpr const char* to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk:
      return "OK";
    case ResponseStatus::kInvalidRequest:
      return "INVALID_REQUEST";
    case ResponseStatus::kOverloaded:
      return "OVERLOADED";
    case ResponseStatus::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case ResponseStatus::kShuttingDown:
      return "SHUTTING_DOWN";
    case ResponseStatus::kMalformedFrame:
      return "MALFORMED_FRAME";
    case ResponseStatus::kUnsupportedVersion:
      return "UNSUPPORTED_VERSION";
    case ResponseStatus::kInternalError:
      return "INTERNAL_ERROR";
  }
  return "?";
}

/// Result of one scenario query.  `values` is the flat payload whose
/// layout depends on the query kind (see execute.hpp / docs/service.md).
struct Response {
  ResponseStatus status{ResponseStatus::kOk};
  bool from_cache{false};
  bool coalesced{false};
  std::uint64_t content_hash{0};
  std::string message;  // human-readable detail for non-OK statuses
  std::vector<double> values;

  [[nodiscard]] bool ok() const { return status == ResponseStatus::kOk; }
  [[nodiscard]] bool operator==(const Response&) const = default;

  static Response error(ResponseStatus status, std::string message) {
    Response r;
    r.status = status;
    r.message = std::move(message);
    return r;
  }
};

void encode_response(const Response& response, WireWriter& out);
[[nodiscard]] Result<Response> decode_response(WireReader& in);

/// One decoded frame.
struct Frame {
  FrameType type{FrameType::kRequest};
  std::vector<std::uint64_t> payload;
};

/// Serializes a frame (header + payload + checksum) into raw words ready
/// for a single write.
[[nodiscard]] std::vector<std::uint64_t> encode_frame(const Frame& frame);

/// Structural decode outcome; kOk means `frame` is valid.
enum class DecodeError : std::uint32_t {
  kOk = 0,
  kBadMagic,
  kBadVersion,
  kBadType,
  kOversized,
  kTruncated,
  kBadChecksum,
};

/// Maps a structural decode failure to the response status a server
/// should answer with before closing the stream.
[[nodiscard]] constexpr ResponseStatus to_response_status(DecodeError err) {
  return err == DecodeError::kBadVersion
             ? ResponseStatus::kUnsupportedVersion
             : ResponseStatus::kMalformedFrame;
}

/// Header-only validation for the transport's incremental read
/// (read_frame in transport.hpp, the one frame decoder): checks words 0..2
/// and extracts type + payload count without touching the payload, so a
/// hostile length never drives an unbounded read.
[[nodiscard]] DecodeError validate_header(const std::uint64_t header[3],
                                          FrameType& type,
                                          std::uint64_t& payload_words);

}  // namespace roclk::service
