#include "roclk/service/transport.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

namespace roclk::service {

namespace {

/// Longest a socket read polls before it blocks.  One leg of a hot round
/// trip takes ~3 us polled and ~8 us through a blocked read(2) on the
/// reference host, and a cache miss ~300 us (docs/service.md §1): 30 us
/// keeps a hot stream polling and bounds what a slow peer costs.
constexpr std::chrono::microseconds kPollBound{30};

/// Reads exactly `bytes`; 0 = clean EOF before any byte, -1 = error or
/// mid-buffer EOF, 1 = success.  Interrupted operations are retried —
/// over a real fd that is EINTR, over a FaultyStream an injected storm.
int read_exact(ByteStream& stream, void* buffer, std::size_t bytes) {
  auto* out = static_cast<char*>(buffer);
  std::size_t got = 0;
  while (got < bytes) {
    const IoResult r = stream.read_some(out + got, bytes - got);
    switch (r.kind) {
      case IoResult::Kind::kOk:
        got += r.bytes;
        break;
      case IoResult::Kind::kEof:
        return got == 0 ? 0 : -1;
      case IoResult::Kind::kInterrupted:
        continue;
      case IoResult::Kind::kError:
        return -1;
    }
  }
  return 1;
}

/// Maps a read(2)/recv(2) return value and errno onto an IoResult.
IoResult read_result(ssize_t n) {
  if (n > 0) return IoResult::ok(static_cast<std::size_t>(n));
  if (n == 0) return IoResult::eof();
  return errno == EINTR ? IoResult::interrupted() : IoResult::error();
}

/// True when a non-blocking recv(2) found nothing to read yet.
bool would_block(ssize_t n) {
  return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
}

bool write_all(ByteStream& stream, const void* buffer, std::size_t bytes) {
  const auto* in = static_cast<const char*>(buffer);
  std::size_t sent = 0;
  while (sent < bytes) {
    const IoResult r = stream.write_some(in + sent, bytes - sent);
    switch (r.kind) {
      case IoResult::Kind::kOk:
        sent += r.bytes;
        break;
      case IoResult::Kind::kInterrupted:
        continue;
      case IoResult::Kind::kEof:
      case IoResult::Kind::kError:
        return false;
    }
  }
  return true;
}

}  // namespace

IoResult FdByteStream::read_some(void* buffer, std::size_t bytes) {
  if (fd_ < 0) return IoResult::error();
  if (ahead_begin_ == ahead_end_) {
    const IoResult r = receive(ahead_, kReadAheadBytes);
    if (r.kind != IoResult::Kind::kOk) return r;
    ahead_begin_ = 0;
    ahead_end_ = r.bytes;
  }
  const std::size_t n = std::min(bytes, ahead_end_ - ahead_begin_);
  std::memcpy(buffer, ahead_ + ahead_begin_, n);
  ahead_begin_ += n;
  return IoResult::ok(n);
}

IoResult FdByteStream::receive(void* buffer, std::size_t bytes) {
  ssize_t n = ::recv(fd_, buffer, bytes, MSG_DONTWAIT);
  // Non-socket fds (the daemon's --stdio pipes) report ENOTSOCK and fall
  // back to a blocking read(2), so they never poll.
  if (n < 0 && errno == ENOTSOCK) {
    return read_result(::read(fd_, buffer, bytes));
  }
  if (!would_block(n)) {
    poll_ = true;  // no wait at all
    return read_result(n);
  }
  // The peer has not sent yet.  Poll while it answered fast last time,
  // then sleep in read(2); how long this wait took decides the next one.
  const auto start = std::chrono::steady_clock::now();
  bool waiting = true;
  while (poll_ && waiting &&
         std::chrono::steady_clock::now() - start < kPollBound) {
    std::this_thread::yield();
    n = ::recv(fd_, buffer, bytes, MSG_DONTWAIT);
    waiting = would_block(n);
  }
  if (waiting) n = ::read(fd_, buffer, bytes);
  const IoResult r = read_result(n);
  poll_ = std::chrono::steady_clock::now() - start <= kPollBound;
  return r;
}

IoResult FdByteStream::write_some(const void* buffer, std::size_t bytes) {
  if (write_fd_ < 0) return IoResult::error();
  // MSG_NOSIGNAL: a peer that hung up mid-session must surface as a typed
  // kError the session loop can handle, not a process-killing SIGPIPE.
  // Non-socket fds (the daemon's --stdio pipes) report ENOTSOCK and fall
  // back to write(2).
  ssize_t n = ::send(write_fd_, buffer, bytes, MSG_NOSIGNAL);
  if (n < 0 && errno == ENOTSOCK) n = ::write(write_fd_, buffer, bytes);
  if (n >= 0) return IoResult::ok(static_cast<std::size_t>(n));
  return errno == EINTR ? IoResult::interrupted() : IoResult::error();
}

void FdByteStream::close() {
  if (owned_.valid()) {
    owned_.close();  // owning mode: really release the fd
  }
  fd_ = -1;  // borrowing mode: just stop using it
  write_fd_ = -1;
}

FdStream::~FdStream() { close(); }

FdStream::FdStream(FdStream&& other) noexcept
    : fd_{std::exchange(other.fd_, -1)} {}

FdStream& FdStream::operator=(FdStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

int FdStream::release() { return std::exchange(fd_, -1); }

void FdStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FrameReadOutcome read_frame(ByteStream& stream) {
  FrameReadOutcome outcome;
  std::uint64_t header[3];
  const int header_read = read_exact(stream, header, sizeof header);
  if (header_read == 0) {
    outcome.result = ReadFrameResult::kClosed;
    return outcome;
  }
  if (header_read < 0) {
    outcome.result = ReadFrameResult::kMalformed;
    outcome.error = DecodeError::kTruncated;
    return outcome;
  }
  FrameType type{};
  std::uint64_t payload_words = 0;
  if (const DecodeError err = validate_header(header, type, payload_words);
      err != DecodeError::kOk) {
    outcome.result = ReadFrameResult::kMalformed;
    outcome.error = err;
    return outcome;
  }
  std::vector<std::uint64_t> tail(payload_words + 1);
  if (read_exact(stream, tail.data(),
                 tail.size() * sizeof(std::uint64_t)) != 1) {
    outcome.result = ReadFrameResult::kMalformed;
    outcome.error = DecodeError::kTruncated;
    return outcome;
  }
  std::uint64_t checksum = kWireSeed;
  for (const std::uint64_t w : header) checksum = wire_mix(checksum, w);
  for (std::size_t i = 0; i + 1 < tail.size(); ++i) {
    checksum = wire_mix(checksum, tail[i]);
  }
  if (checksum != tail.back()) {
    outcome.result = ReadFrameResult::kMalformed;
    outcome.error = DecodeError::kBadChecksum;
    return outcome;
  }
  outcome.result = ReadFrameResult::kFrame;
  outcome.frame.type = type;
  tail.pop_back();
  outcome.frame.payload = std::move(tail);
  return outcome;
}

bool write_frame(ByteStream& stream, const Frame& frame) {
  const std::vector<std::uint64_t> words = encode_frame(frame);
  return write_all(stream, words.data(),
                   words.size() * sizeof(std::uint64_t));
}

bool write_words(ByteStream& stream,
                 const std::vector<std::uint64_t>& words) {
  return write_all(stream, words.data(),
                   words.size() * sizeof(std::uint64_t));
}

Status make_stream_pair(FdStream& a, FdStream& b) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::internal(std::string{"socketpair: "} +
                            std::strerror(errno));
  }
  a = FdStream{fds[0]};
  b = FdStream{fds[1]};
  return Status::ok();
}

UnixListener::~UnixListener() {
  if (!path_.empty()) ::unlink(path_.c_str());
}

Status UnixListener::listen(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    return Status::invalid_argument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  FdStream fd{::socket(AF_UNIX, SOCK_STREAM, 0)};
  if (!fd.valid()) {
    return Status::internal(std::string{"socket: "} + std::strerror(errno));
  }
  ::unlink(path.c_str());
  if (::bind(fd.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    return Status::internal("bind " + path + ": " + std::strerror(errno));
  }
  if (::listen(fd.fd(), backlog) != 0) {
    return Status::internal("listen " + path + ": " + std::strerror(errno));
  }
  fd_ = std::move(fd);
  path_ = path;
  return Status::ok();
}

FdStream UnixListener::accept() {
  if (!fd_.valid()) return {};
  const int conn = ::accept(fd_.fd(), nullptr, nullptr);
  return FdStream{conn};
}

void UnixListener::wake() {
  if (fd_.valid()) ::shutdown(fd_.fd(), SHUT_RDWR);
}

Result<FdStream> connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    return Status::invalid_argument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  FdStream fd{::socket(AF_UNIX, SOCK_STREAM, 0)};
  if (!fd.valid()) {
    return Status::internal(std::string{"socket: "} + std::strerror(errno));
  }
  if (::connect(fd.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    return Status::not_found("connect " + path + ": " +
                             std::strerror(errno));
  }
  return fd;
}

}  // namespace roclk::service
