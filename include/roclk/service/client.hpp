// Client side of the sweep-service protocol.
//
// A Client owns one connected stream (Unix socket or one end of a
// socketpair) and runs the request/response lockstep: every call writes
// one frame and reads one response frame.  Transport failures surface as
// Status errors; protocol-level failures (overload, deadline, malformed)
// arrive as ordinary Response values with their typed status, so callers
// distinguish "the wire broke" from "the service said no".
#pragma once

#include <memory>
#include <string>

#include "roclk/service/request.hpp"
#include "roclk/service/transport.hpp"

namespace roclk::service {

class Client {
 public:
  Client() = default;
  explicit Client(FdStream stream)
      : stream_{std::make_unique<FdByteStream>(std::move(stream))} {}
  /// Speaks through any ByteStream — tests hand in a FaultyStream to
  /// exercise client recovery deterministically.
  explicit Client(std::unique_ptr<ByteStream> stream)
      : stream_{std::move(stream)} {}

  /// Connects to a daemon's Unix socket.
  [[nodiscard]] static Result<Client> connect(const std::string& path);

  [[nodiscard]] bool connected() const {
    return stream_ != nullptr && stream_->valid();
  }

  /// Runs one scenario query end to end.
  [[nodiscard]] Result<Response> query(const Request& request);

  /// Liveness probe; the response message reports "ready" or "draining".
  [[nodiscard]] Result<Response> ping();

  /// Asks the daemon to drain and exit.  The connection is spent
  /// afterwards (the server closes its end after acking).
  [[nodiscard]] Result<Response> shutdown_server();

  /// Writes `words` verbatim — NOT framed — then reads the server's
  /// reply.  Exists so smoke tests can prove malformed bytes get a typed
  /// kMalformedFrame answer instead of a hang or a dropped connection.
  [[nodiscard]] Result<Response> send_raw(
      const std::vector<std::uint64_t>& words);

 private:
  [[nodiscard]] Result<Response> round_trip(const Frame& frame);

  std::unique_ptr<ByteStream> stream_;
};

}  // namespace roclk::service
