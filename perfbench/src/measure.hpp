// Measurement arithmetic shared by every workload: timestamps, nearest-rank
// percentiles (over samples or a fixed-size latency histogram), output
// digests, peak-RSS parsing, span self time, and the
// one-line JSON record each benchmark process prints.  Header-only so the
// self-tests (tests/test_perfbench.cpp) check exactly this code.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "roclk/common/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock; one epoch for every thread of a run, so
/// span endpoints taken on different threads subtract meaningfully.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Order-sensitive 64-bit digest over whole words.  Each step is a
/// bijection of the next word given the prefix (odd multiply, xor, then
/// the splitmix finaliser), so equal digests mean equal word streams up to
/// a 2^-64 accident.  Doubles are digested by their bit patterns: two
/// outputs agree only if they are bitwise equal.
class Digest {
 public:
  void add(std::uint64_t word) {
    state_ = roclk::hash64((state_ * 0x9E3779B97F4A7C15ULL) ^ word);
  }
  void add_double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_{0x243F6A8885A308D3ULL};
};

inline std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// One order statistic of a sample, with how many samples lie beyond it.
struct Quantile {
  double value{0.0};
  std::size_t samples{0};
  std::size_t beyond{0};  // samples strictly after the chosen rank
  /// A tail percentile is only reported when at least ten samples lie
  /// beyond it; fewer and it is the luck of a handful of requests.
  [[nodiscard]] bool resolved() const { return beyond >= 10; }
};

/// Nearest-rank quantile num/den of `values` (sorted in place): the sample
/// at 1-based rank ceil(n * num / den), computed in integers so p99 of 1000
/// samples is exactly rank 990 with 10 beyond.
inline Quantile nearest_rank(std::vector<double>& values, std::size_t num,
                             std::size_t den) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0 || den == 0) return {};
  std::size_t rank = (n * num + den - 1) / den;
  rank = std::clamp<std::size_t>(rank, 1, n);
  return {values[rank - 1], n, n - rank};
}

/// The tail percentile num/den when at least ten samples lie beyond it;
/// otherwise the highest order statistic that has ten beyond it, so a
/// short sample reports a tail it can resolve instead of its maximum.
/// With ten samples or fewer, nearest_rank()'s unresolved answer.
inline Quantile resolved_tail(std::vector<double>& values, std::size_t num,
                              std::size_t den) {
  const Quantile q = nearest_rank(values, num, den);
  if (q.resolved() || q.samples <= 10) return q;
  return {values[q.samples - 11], q.samples, 10};
}

inline double median(std::vector<double> values) {
  return nearest_rank(values, 1, 2).value;
}

/// Mean of the middle half of `values` (the samples between the first and
/// the third quartile rank).  Set-up times come in runs of a fast and a slow
/// mode (the thread's core is shared or not); the median jumps between the
/// modes, a plain mean follows the rare millisecond outlier, and this does
/// neither.
inline double interquartile_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  const std::size_t lo = n / 4;
  const std::size_t hi = n - n / 4;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

/// Latency histogram of fixed size (34 KiB), so recording latencies costs
/// the same memory at any request rate: exact below 256 ns, then 256
/// buckets per power of two (relative width at most 1/256) up to 2^41 ns.
/// quantile_us() applies nearest_rank()'s rule to the bucketed samples and
/// reports the midpoint of the bucket that holds the chosen rank.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 8;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr int kMaxExponent = 40;  // larger values are clamped
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExponent - kSubBits + 2) * kSub;

  static std::size_t bucket_of(std::uint64_t ns) {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    ns = std::min(ns, (std::uint64_t{2} << kMaxExponent) - 1);
    const int e = std::bit_width(ns) - 1;
    return static_cast<std::size_t>(e - kSubBits + 1) * kSub +
           static_cast<std::size_t>((ns >> (e - kSubBits)) - kSub);
  }
  /// Smallest value in `bucket`, and how many values it holds.
  static std::uint64_t lower_ns(std::size_t bucket) {
    if (bucket < kSub) return bucket;
    const int shift = static_cast<int>(bucket / kSub) - 1;
    return (bucket % kSub + kSub) << shift;
  }
  static std::uint64_t width_ns(std::size_t bucket) {
    if (bucket < kSub) return 1;
    return std::uint64_t{1} << (bucket / kSub - 1);
  }

  /// Each bucket counts up to 2^32 - 1 samples (over an hour of 10^6
  /// requests/s); a histogram covers one second of a run.
  void record_ns(std::int64_t ns) {
    ++counts_[bucket_of(static_cast<std::uint64_t>(std::max<std::int64_t>(0, ns)))];
    ++total_;
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    total_ += other.total_;
  }
  [[nodiscard]] std::uint64_t count() const { return total_; }

  [[nodiscard]] Quantile quantile_us(std::size_t num, std::size_t den) const {
    if (total_ == 0 || den == 0) return {};
    const auto n = static_cast<std::size_t>(total_);
    const std::size_t rank = std::clamp<std::size_t>((n * num + den - 1) / den, 1, n);
    std::size_t seen = 0;
    std::size_t b = 0;
    for (; b + 1 < kBuckets; ++b) {
      seen += static_cast<std::size_t>(counts_[b]);
      if (seen >= rank) break;
    }
    const double mid = static_cast<double>(lower_ns(b)) +
                       static_cast<double>(width_ns(b) - 1) / 2.0;
    return {mid / 1e3, n, n - rank};
  }

 private:
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(kBuckets);
  std::uint64_t total_{0};
};

/// Peak resident set in MiB from the text of /proc/<pid>/status (the
/// VmHWM line, reported in kB).  nullopt when the line is missing or
/// malformed.
inline std::optional<double> parse_vm_hwm_mib(std::string_view status) {
  constexpr std::string_view kKey = "VmHWM:";
  std::size_t pos = 0;
  while (pos < status.size()) {
    const std::size_t eol = std::min(status.find('\n', pos), status.size());
    const std::string_view line = status.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.substr(0, kKey.size()) != kKey) continue;
    std::string_view rest = line.substr(kKey.size());
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
      rest.remove_prefix(1);
    }
    std::uint64_t kib = 0;
    std::size_t digits = 0;
    while (digits < rest.size() && rest[digits] >= '0' &&
           rest[digits] <= '9') {
      kib = kib * 10 + static_cast<std::uint64_t>(rest[digits] - '0');
      ++digits;
    }
    if (digits == 0 || rest.substr(digits).find("kB") == std::string_view::npos) {
      return std::nullopt;
    }
    return static_cast<double>(kib) / 1024.0;
  }
  return std::nullopt;
}

inline std::optional<double> peak_rss_mib() {
  std::ifstream in{"/proc/self/status"};
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return parse_vm_hwm_mib(text.str());
}

/// A half-open time interval [start, end) in nanoseconds.
struct Interval {
  std::int64_t start{0};
  std::int64_t end{0};
};

/// Self time of a span: its duration minus the part of it that its child
/// spans cover.  Children are clipped to the parent and overlapping
/// children are counted once.
inline std::int64_t self_time_ns(Interval parent,
                                 std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::int64_t covered = 0;
  std::int64_t cursor = parent.start;
  for (const Interval& child : children) {
    const std::int64_t lo = std::max(child.start, cursor);
    const std::int64_t hi = std::min(child.end, parent.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return std::max<std::int64_t>(0, parent.end - parent.start - covered);
}

/// One named span.  Spans of one request share `request`; `parent` indexes
/// the enclosing span in the same log (-1 for a root).
struct Span {
  std::string_view name;  // always a string literal
  std::uint64_t request{0};
  std::int64_t parent{-1};
  Interval time;
};

/// Spans kept in memory during a run and written out once at exit, one
/// tab-separated line per span: name, request, parent, start_ns, end_ns.
class SpanLog {
 public:
  std::int64_t add(std::string_view name, std::uint64_t request,
                   std::int64_t parent, Interval time) {
    spans_.push_back({name, request, parent, time});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time (µs) of every span named `name`, in log order.
  [[nodiscard]] std::vector<double> self_times_us(std::string_view name) const {
    std::vector<std::vector<Interval>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].push_back(s.time);
      }
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      out.push_back(
          static_cast<double>(self_time_ns(spans_[i].time, children[i])) /
          1e3);
    }
    return out;
  }

  [[nodiscard]] bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f, "%.*s\t%llu\t%lld\t%lld\t%lld\n",
                   static_cast<int>(s.name.size()), s.name.data(),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.time.start),
                   static_cast<long long>(s.time.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// Builder for the single JSON object a benchmark process prints as its
/// last stdout line.  Keys are plain identifiers; non-finite numbers are
/// written as null.
class JsonLine {
 public:
  JsonLine& num(std::string_view key, double value) {
    begin(key);
    append_number(value);
    return *this;
  }
  JsonLine& count(std::string_view key, std::uint64_t value) {
    begin(key);
    text_ += std::to_string(value);
    return *this;
  }
  JsonLine& flag(std::string_view key, bool value) {
    begin(key);
    text_ += value ? "true" : "false";
    return *this;
  }
  JsonLine& str(std::string_view key, std::string_view value) {
    begin(key);
    text_ += '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') text_ += '\\';
      text_ += (c == '\n' || c == '\t') ? ' ' : c;
    }
    text_ += '"';
    return *this;
  }
  JsonLine& array(std::string_view key, const std::vector<double>& values) {
    begin(key);
    text_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) text_ += ',';
      append_number(values[i]);
    }
    text_ += ']';
    return *this;
  }
  void print() const { std::printf("%s}\n", text_.c_str()); }

 private:
  void begin(std::string_view key) {
    text_ += text_.size() > 1 ? ",\"" : "\"";
    text_ += key;
    text_ += "\":";
  }
  void append_number(double value) {
    if (!std::isfinite(value)) {
      text_ += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    text_ += buf;
  }

  std::string text_{"{"};
};

}  // namespace perfbench
