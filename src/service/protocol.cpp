#include "roclk/service/protocol.hpp"

#include <algorithm>
#include <cstring>

namespace roclk::service {

namespace {

/// Message strings pack 8 chars per word; a length word leads.
void put_string(const std::string& s, WireWriter& out) {
  out.put(s.size());
  for (std::size_t i = 0; i < s.size(); i += 8) {
    std::uint64_t word = 0;
    const std::size_t n = std::min<std::size_t>(8, s.size() - i);
    std::memcpy(&word, s.data() + i, n);
    out.put(word);
  }
}

bool take_string(WireReader& in, std::string& s) {
  const std::uint64_t len = in.take();
  if (!in.ok() || len > 8 * in.remaining()) return false;
  s.clear();
  s.reserve(len);
  for (std::uint64_t i = 0; i < len; i += 8) {
    const std::uint64_t word = in.take();
    const std::size_t n = std::min<std::uint64_t>(8, len - i);
    char chars[8];
    std::memcpy(chars, &word, 8);
    s.append(chars, n);
  }
  return in.ok();
}

}  // namespace

void encode_response(const Response& response, WireWriter& out) {
  // status, flags, hash, message length and words, value count, values.
  out.words.reserve(out.words.size() + 5 + (response.message.size() + 7) / 8 +
                    response.values.size());
  out.put(static_cast<std::uint64_t>(response.status));
  out.put((response.from_cache ? 1ULL : 0ULL) |
          (response.coalesced ? 2ULL : 0ULL));
  out.put(response.content_hash);
  put_string(response.message, out);
  out.put(response.values.size());
  for (const double v : response.values) out.put_double(v);
}

Result<Response> decode_response(WireReader& in) {
  Response response;
  response.status = static_cast<ResponseStatus>(in.take());
  const std::uint64_t flags = in.take();
  response.from_cache = (flags & 1) != 0;
  response.coalesced = (flags & 2) != 0;
  response.content_hash = in.take();
  if (!take_string(in, response.message)) {
    return Status::invalid_argument("response message truncated");
  }
  const std::uint64_t count = in.take();
  if (!in.ok() || count > in.remaining()) {
    return Status::invalid_argument("response value count truncated");
  }
  response.values.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    response.values[i] = in.take_double();
  }
  if (!in.ok()) {
    return Status::invalid_argument("response payload truncated");
  }
  if (response.status > ResponseStatus::kInternalError) {
    return Status::invalid_argument("unknown response status on wire");
  }
  return response;
}

std::vector<std::uint64_t> encode_frame(const Frame& frame) {
  WireWriter out;
  out.words.reserve(3 + frame.payload.size() + 1);
  out.put(kFrameMagic);
  out.put((static_cast<std::uint64_t>(kProtocolVersion) << 32) |
          static_cast<std::uint64_t>(frame.type));
  out.put(frame.payload.size());
  for (const std::uint64_t w : frame.payload) out.put(w);
  out.words.push_back(out.checksum);
  return std::move(out.words);
}

DecodeError validate_header(const std::uint64_t header[3], FrameType& type,
                            std::uint64_t& payload_words) {
  if (header[0] != kFrameMagic) return DecodeError::kBadMagic;
  const auto version = static_cast<std::uint32_t>(header[1] >> 32);
  const auto raw_type =
      static_cast<std::uint32_t>(header[1] & 0xFFFFFFFFULL);
  if (version != kProtocolVersion) return DecodeError::kBadVersion;
  if (raw_type < 1 ||
      raw_type > static_cast<std::uint32_t>(FrameType::kPing)) {
    return DecodeError::kBadType;
  }
  if (header[2] > kMaxPayloadWords) return DecodeError::kOversized;
  type = static_cast<FrameType>(raw_type);
  payload_words = header[2];
  return DecodeError::kOk;
}

}  // namespace roclk::service
