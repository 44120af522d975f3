// Crash-safe persistence for the content-addressed result cache.
//
// The journal is an append-only file of checksummed, length-prefixed
// records in the service's 64-bit wire-word format (wire.hpp — the same
// wire_mix chain the frame protocol and content hashes use):
//
//   header   word 0  magic      0x524F434C4B4A4C31 ("ROCLKJL1")
//            word 1  version    1
//            word 2  checksum   wire_mix chain over words 0..1
//   record   word 0  magic      0x524F434C4B4A4531 ("ROCLKJE1")
//            word 1  payload word count N (<= kMaxPayloadWords)
//            word 2  content hash of the cached request
//            word 3..2+N-1      encode_response words (OK responses only)
//            word 3+N-1+1       checksum over words 0..2+N-1
//
// Crash-safety contract (torn-write recovery for an append-only log):
//
//   * every append is one buffered write + flush of a whole record, so
//     a crash — kill -9 included — can only tear the LAST record;
//   * load() keeps every intact prefix record and drops the first
//     structurally-broken record AND everything after it (a corrupt
//     length prefix poisons all later framing, exactly like a malformed
//     frame on a socket);
//   * a missing / empty / corrupt-header file loads zero entries with a
//     non-ok Status — a broken journal can only DEGRADE a warm start,
//     never fail it;
//   * compaction writes a fresh snapshot to `path.tmp`, flushes, then
//     renames over the journal — readers see the old file or the new
//     one, never a half-written hybrid.
//
// The service appends one record per cache store and compacts once the
// file holds `compact_every` records more than the cache holds entries
// (evicted and re-stored hashes make the log grow past the live set).
// `roclk_sweepd --journal` replays the journal into the cache on boot,
// so a restarted daemon answers everything it had already simulated
// from the cache, bitwise-identically, with zero re-simulations
// (tools/journal_smoke.sh proves this across a kill -9).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "roclk/common/status.hpp"
#include "roclk/service/protocol.hpp"

namespace roclk::service {

inline constexpr std::uint64_t kJournalMagic = 0x524F434C4B4A4C31ULL;
inline constexpr std::uint64_t kJournalRecordMagic = 0x524F434C4B4A4531ULL;
inline constexpr std::uint64_t kJournalVersion = 1;

/// One recovered cache entry.
struct JournalEntry {
  std::uint64_t hash{0};
  Response response;
};

/// What load() found; `dropped_tail_words` > 0 means the file ended in
/// a torn or corrupt record that recovery truncated away.
struct JournalLoadResult {
  std::vector<JournalEntry> entries;
  std::uint64_t records_loaded{0};
  std::uint64_t dropped_tail_words{0};
  bool header_ok{false};
};

class CacheJournal {
 public:
  CacheJournal() = default;
  ~CacheJournal();
  CacheJournal(const CacheJournal&) = delete;
  CacheJournal& operator=(const CacheJournal&) = delete;

  /// Parses the journal at `path`, keeping every intact prefix record.
  /// Missing or corrupt files yield an empty/partial result plus a
  /// non-ok Status describing why — callers warm-start with whatever
  /// survived.
  [[nodiscard]] static JournalLoadResult load(const std::string& path,
                                              Status* status = nullptr);

  /// Opens `path` for appending, creating it (with a header) if absent.
  [[nodiscard]] Status open_for_append(const std::string& path);

  /// Appends one record and flushes it to the OS.  Whole-record
  /// buffering keeps a crash from tearing anything but the tail.
  [[nodiscard]] Status append(std::uint64_t hash, const Response& response);

  /// Atomically replaces the journal with a snapshot of `entries`
  /// (written in the given order) and re-opens it for appending.
  [[nodiscard]] Status compact(
      const std::vector<JournalEntry>& entries);

  [[nodiscard]] bool open() const { return file_ != nullptr; }
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Records appended since open_for_append()/compact() — the
  /// service's compaction trigger input.
  [[nodiscard]] std::uint64_t appended_records() const {
    return appended_records_;
  }

  void close();

  /// Serializes one record to words (exposed for tests that build
  /// corrupt journals byte-surgically).
  [[nodiscard]] static std::vector<std::uint64_t> encode_record(
      std::uint64_t hash, const Response& response);

 private:
  std::FILE* file_{nullptr};
  std::string path_;
  std::uint64_t appended_records_{0};
};

}  // namespace roclk::service
