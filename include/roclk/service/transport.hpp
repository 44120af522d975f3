// Frame transport: length-prefixed frames over file descriptors, plus the
// Unix-domain-socket plumbing the daemon and client share.
//
// This header and transport.cpp are the ONLY files in the repo allowed to
// use raw socket APIs — the roclk_lint `socket-include` rule confines
// <sys/socket.h> and friends here, so every other layer (server, client
// logic, tools) speaks Frame values and can be tested over socketpairs or
// in memory.
//
// Reading is incremental and bounded: the fixed 3-word header is read and
// validated first (magic, version, type, payload count <=
// kMaxPayloadWords), THEN payload + checksum — a hostile length can never
// drive an unbounded allocation or read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "roclk/common/status.hpp"
#include "roclk/service/protocol.hpp"

namespace roclk::service {

/// Outcome of one low-level stream operation.  The typed kinds replace
/// errno inspection so decorators (fault_injector.hpp) can inject EINTR
/// storms and resets without touching OS state, and so callers retry the
/// same way over a real fd and over an in-test fault schedule.
struct IoResult {
  enum class Kind : std::uint32_t {
    kOk = 0,           // `bytes` were transferred (may be fewer than asked)
    kEof = 1,          // peer closed (reads only)
    kInterrupted = 2,  // EINTR-equivalent; retry the operation
    kError = 3,        // unrecoverable stream failure
  };
  Kind kind{Kind::kError};
  std::size_t bytes{0};  // valid when kind == kOk

  static IoResult ok(std::size_t bytes) { return {Kind::kOk, bytes}; }
  static IoResult eof() { return {Kind::kEof, 0}; }
  static IoResult interrupted() { return {Kind::kInterrupted, 0}; }
  static IoResult error() { return {Kind::kError, 0}; }
};

/// Minimal byte-stream interface the frame layer reads and writes
/// through.  Implementations: FdByteStream (a real fd) and FaultyStream
/// (a deterministic fault-injecting decorator, fault_injector.hpp).
/// Operations may transfer fewer bytes than asked; callers loop.
class ByteStream {
 public:
  virtual ~ByteStream() = default;
  [[nodiscard]] virtual IoResult read_some(void* buffer,
                                           std::size_t bytes) = 0;
  [[nodiscard]] virtual IoResult write_some(const void* buffer,
                                            std::size_t bytes) = 0;
  /// Releases the underlying resource; reads/writes fail afterwards.
  virtual void close() = 0;
  [[nodiscard]] virtual bool valid() const = 0;
};

/// Owns one stream file descriptor (socket or pipe end); closes on
/// destruction.  Move-only.
class FdStream {
 public:
  FdStream() = default;
  explicit FdStream(int fd) : fd_{fd} {}
  ~FdStream();
  FdStream(FdStream&& other) noexcept;
  FdStream& operator=(FdStream&& other) noexcept;
  FdStream(const FdStream&) = delete;
  FdStream& operator=(const FdStream&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Releases ownership without closing.
  int release();
  void close();

 private:
  int fd_{-1};
};

/// ByteStream over a file descriptor.  Either owns the fd (FdStream
/// constructor) or borrows one owned elsewhere (int constructor — the
/// server session path, where the accept loop keeps ownership).  A
/// borrowing stream may also read one fd and write another (the daemon's
/// --stdio session: requests on fd 0, responses on fd 1).
///
/// Reads go through a read-ahead buffer inside the object: one read(2)
/// takes whatever the peer has sent, up to kReadAheadBytes, so a frame
/// that arrived whole costs one system call, and the bytes past it wait
/// here for the next read.  So a stream must be the ONLY reader of its fd
/// for its whole lifetime: bytes it has buffered are invisible to any
/// other reader of the same fd, and lost when the stream goes away.
///
/// A socket read that would block first polls: a non-blocking recv,
/// retried with the CPU yielded in between, for at most a fixed bound
/// (kPollBound in transport.cpp), and only while this stream's previous
/// wait ended within that bound.  A peer that answers that fast costs
/// less to poll for than to sleep on; one that did not is waited for in
/// read(2) at once.  A fd that is not a socket (the daemon's --stdio
/// pipes) never polls.
class FdByteStream final : public ByteStream {
 public:
  /// Read-ahead capacity.
  static constexpr std::size_t kReadAheadBytes = 4096;

  explicit FdByteStream(FdStream stream)
      : owned_{std::move(stream)}, fd_{owned_.fd()}, write_fd_{fd_} {}
  explicit FdByteStream(int fd) : FdByteStream{fd, fd} {}
  FdByteStream(int read_fd, int write_fd)
      : fd_{read_fd}, write_fd_{write_fd} {}

  [[nodiscard]] IoResult read_some(void* buffer,
                                   std::size_t bytes) override;
  [[nodiscard]] IoResult write_some(const void* buffer,
                                    std::size_t bytes) override;
  void close() override;
  [[nodiscard]] bool valid() const override {
    return fd_ >= 0 && write_fd_ >= 0;
  }

 private:
  /// One read from the fd into `buffer`, polling first as described.
  IoResult receive(void* buffer, std::size_t bytes);

  FdStream owned_;
  int fd_{-1};        // read from
  int write_fd_{-1};  // written to: fd_ unless the stream borrows two
  bool poll_{true};  // the previous wait ended within the poll bound
  // The unread bytes are ahead_[ahead_begin_, ahead_end_).
  std::size_t ahead_begin_{0};
  std::size_t ahead_end_{0};
  unsigned char ahead_[kReadAheadBytes]{};
};

/// Outcome of reading one frame from a stream.
enum class ReadFrameResult : std::uint32_t {
  kFrame = 0,     // `frame` holds a valid frame
  kClosed = 1,    // clean EOF at a frame boundary
  kMalformed = 2, // structural failure; see `error` (stream unusable)
  kIoError = 3,   // read(2) failed
};

struct FrameReadOutcome {
  ReadFrameResult result{ReadFrameResult::kIoError};
  DecodeError error{DecodeError::kOk};  // set when result == kMalformed
  Frame frame;
};

/// Blocking read of one frame.  EOF mid-frame reports kMalformed
/// (truncated), EOF before any byte reports kClosed.  Interrupted
/// operations (EINTR storms included) are retried transparently.
[[nodiscard]] FrameReadOutcome read_frame(ByteStream& stream);

/// Blocking write of one encoded frame; false on a short write or error.
[[nodiscard]] bool write_frame(ByteStream& stream, const Frame& frame);

/// Blocking write of raw words with no framing — the malformed-frame
/// smoke path uses it to ship deliberately broken bytes.
[[nodiscard]] bool write_words(ByteStream& stream,
                               const std::vector<std::uint64_t>& words);

/// Creates a connected pair of local stream sockets (socketpair) — the
/// in-process loopback tests and perfbench's serve workloads use it to
/// exercise the exact bytes the daemon ships.
[[nodiscard]] Status make_stream_pair(FdStream& a, FdStream& b);

/// Listening Unix-domain socket bound to `path` (unlinked first, and
/// unlinked again on destruction).
class UnixListener {
 public:
  UnixListener() = default;
  ~UnixListener();
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  [[nodiscard]] Status listen(const std::string& path, int backlog = 16);

  /// Blocks for the next connection.  Returns an invalid stream after
  /// wake() or on listener teardown.
  [[nodiscard]] FdStream accept();

  /// Unblocks a pending accept() (shutdown(2) on the listening socket) —
  /// the daemon's clean-exit path.
  void wake();

  [[nodiscard]] bool listening() const { return fd_.valid(); }

 private:
  FdStream fd_;
  std::string path_;
};

/// Connects to a daemon's Unix socket.
[[nodiscard]] Result<FdStream> connect_unix(const std::string& path);

}  // namespace roclk::service
