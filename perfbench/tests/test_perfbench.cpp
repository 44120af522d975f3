// Self-tests for the benchmark's own arithmetic: the percentile and its
// ten-beyond rule (over samples and over the latency histogram), the
// set-up statistic, VmHWM parsing, span self time, and seed -> input
// determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "measure.hpp"
#include "roclk/service/request.hpp"
#include "streams.hpp"

namespace perfbench {
namespace {

using roclk::service::QueryKind;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankOnIntegerRanks) {
  std::vector<double> v = one_to(1000);
  const Quantile p99 = nearest_rank(v, 99, 100);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.resolved());
  const Quantile p50 = nearest_rank(v, 1, 2);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(median(one_to(7)), 4.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  std::vector<double> short_run = one_to(999);
  const Quantile p99 = nearest_rank(short_run, 99, 100);
  EXPECT_EQ(p99.beyond, 9u);  // rank ceil(989.01) = 990 of 999
  EXPECT_FALSE(p99.resolved());
  std::vector<double> empty;
  EXPECT_EQ(nearest_rank(empty, 99, 100).samples, 0u);
  EXPECT_FALSE(nearest_rank(empty, 99, 100).resolved());
  std::vector<double> one{3.5};
  EXPECT_EQ(nearest_rank(one, 99, 100).value, 3.5);

  // A short sample reports the slowest value with ten beyond it.
  std::vector<double> twenty = one_to(20);
  const Quantile tail = resolved_tail(twenty, 99, 100);
  EXPECT_EQ(tail.value, 10.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_TRUE(tail.resolved());
  std::vector<double> long_run = one_to(1000);
  EXPECT_EQ(resolved_tail(long_run, 99, 100).value, 990.0);
  std::vector<double> five = one_to(5);
  EXPECT_EQ(resolved_tail(five, 99, 100).value, 5.0);
  EXPECT_FALSE(resolved_tail(five, 99, 100).resolved());
}

TEST(Percentile, HistogramBucketsTileTheRange) {
  using H = LatencyHistogram;
  for (std::uint64_t v = 0; v < H::kSub; ++v) EXPECT_EQ(H::bucket_of(v), v);
  std::size_t previous = 0;
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 41); v = v * 3 / 2 + 1) {
    const std::size_t b = H::bucket_of(v);
    ASSERT_LT(b, H::kBuckets);
    EXPECT_GE(b, previous);
    EXPECT_LE(H::lower_ns(b), v);
    EXPECT_LT(v, H::lower_ns(b) + H::width_ns(b));
    EXPECT_LE(H::width_ns(b) * H::kSub, std::max<std::uint64_t>(v, H::kSub));
    previous = b;
  }
  EXPECT_EQ(H::bucket_of(~std::uint64_t{0}), H::kBuckets - 1);
}

TEST(Percentile, HistogramKeepsTheNearestRankRule) {
  // 1..1000 us: p99 is rank 990 with 10 beyond, as with the samples.
  LatencyHistogram h;
  for (std::int64_t us = 1000; us >= 1; --us) h.record_ns(us * 1000);
  const Quantile p99 = h.quantile_us(99, 100);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_NEAR(p99.value, 990.0, 990.0 / 256.0);
  EXPECT_NEAR(h.quantile_us(1, 2).value, 500.0, 500.0 / 256.0);

  // Seeded log-spread samples, split over two merged histograms: every
  // quantile lands in the bucket of the exact nearest-rank sample.
  roclk::CounterRng rng{roclk::StreamKey{7}};
  std::vector<double> exact;
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 5000; ++i) {
    const auto ns = static_cast<std::int64_t>(std::exp(rng.uniform(5.0, 17.0)));
    exact.push_back(static_cast<double>(ns));
    (i % 2 == 0 ? a : b).record_ns(ns);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), 5000u);
  for (const auto& [num, den] : {std::pair<std::size_t, std::size_t>{1, 2},
                                 {9, 10}, {99, 100}, {999, 1000}}) {
    const Quantile want = nearest_rank(exact, num, den);
    const Quantile got = a.quantile_us(num, den);
    EXPECT_EQ(got.samples, want.samples);
    EXPECT_EQ(got.beyond, want.beyond);
    const std::size_t bucket =
        LatencyHistogram::bucket_of(static_cast<std::uint64_t>(want.value));
    const double lower = static_cast<double>(LatencyHistogram::lower_ns(bucket));
    const double width = static_cast<double>(LatencyHistogram::width_ns(bucket));
    EXPECT_DOUBLE_EQ(got.value, (lower + (width - 1.0) / 2.0) / 1e3);
  }
  EXPECT_EQ(LatencyHistogram{}.quantile_us(99, 100).samples, 0u);
}

TEST(Percentile, InterquartileMeanIgnoresTheTails) {
  EXPECT_EQ(interquartile_mean({1.0, 2.0, 3.0, 1000.0}), 2.5);
  EXPECT_EQ(interquartile_mean({9.0, 4.0, 5.0, 6.0, 0.0, 5.0, 5.0, 5.0}), 5.0);
  EXPECT_EQ(interquartile_mean({3.0}), 3.0);
  EXPECT_EQ(interquartile_mean({}), 0.0);
}

TEST(PeakRss, ParsesVmHwmInKib) {
  const char* status =
      "Name:\troclk_perfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   20480 kB\n"
      "VmRSS:\t   10240 kB\n";
  ASSERT_TRUE(parse_vm_hwm_mib(status).has_value());
  EXPECT_EQ(*parse_vm_hwm_mib(status), 20.0);
  EXPECT_FALSE(parse_vm_hwm_mib("VmRSS:\t 1 kB\n").has_value());
  EXPECT_FALSE(parse_vm_hwm_mib("VmHWM:\t kB\n").has_value());
  EXPECT_FALSE(parse_vm_hwm_mib("VmHWM:\t 12\n").has_value());
  EXPECT_TRUE(peak_rss_mib().has_value());
}

TEST(Spans, SelfTimeSubtractsCoveredChildTime) {
  // Disjoint children.
  EXPECT_EQ(self_time_ns({0, 100}, {{10, 20}, {50, 80}}), 60);
  // Overlapping children count once; children past the parent are clipped.
  EXPECT_EQ(self_time_ns({0, 100}, {{10, 40}, {30, 60}, {90, 150}}), 40);
  // A child covering everything leaves nothing; no children leaves all.
  EXPECT_EQ(self_time_ns({0, 100}, {{-5, 105}}), 0);
  EXPECT_EQ(self_time_ns({0, 100}, {}), 100);

  SpanLog log;
  const std::int64_t q = log.add("query", 7, -1, {0, 10000});
  log.add("request", 7, q, {1000, 3000});
  log.add("serve", 7, q, {3000, 8000});
  log.add("response", 7, q, {8000, 10000});
  EXPECT_EQ(log.self_times_us("query"), std::vector<double>{1.0});
  EXPECT_EQ(log.self_times_us("serve"), std::vector<double>{5.0});
}

TEST(Digest, OrderAndBitSensitive) {
  Digest a;
  Digest b;
  a.add_double(1.0);
  a.add_double(2.0);
  b.add_double(2.0);
  b.add_double(1.0);
  EXPECT_NE(a.value(), b.value());
  Digest zero;
  Digest negative_zero;
  zero.add_double(0.0);
  negative_zero.add_double(-0.0);
  EXPECT_NE(zero.value(), negative_zero.value());
}

TEST(Streams, SameSeedSameRequests) {
  for (const Workload w : {Workload::kServeHot, Workload::kServeCold}) {
    RequestStream a{w, 42};
    RequestStream b{w, 42};
    RequestStream other{w, 43};
    bool any_differs = false;
    // b walks backwards so its cached block state differs from a's.
    std::vector<StreamRequest> forward;
    for (std::uint64_t i = 0; i < 256; ++i) forward.push_back(a.at(i));
    for (std::uint64_t i = 256; i-- > 0;) {
      const StreamRequest r = b.at(i);
      EXPECT_EQ(r.request, forward[i].request) << i;
      EXPECT_EQ(r.scenario, forward[i].scenario) << i;
      any_differs = any_differs || !(other.at(i).request == r.request);
    }
    EXPECT_TRUE(any_differs);
  }
}

TEST(Streams, ColdRequestsAreDistinctAndMixed) {
  // The first 64 blocks and 64 blocks far into a long run: a faster server
  // must not reach requests that repeat earlier ones.
  RequestStream stream{Workload::kServeCold, 1};
  std::set<std::uint64_t> hashes;
  std::size_t counts[4] = {0, 0, 0, 0};
  std::uint64_t requests = 0;
  for (const std::uint64_t first_block : {0u, 1200u}) {
    for (std::uint64_t b = first_block; b < first_block + 64; ++b) {
      for (std::uint64_t i = b * kColdBlock; i < (b + 1) * kColdBlock; ++i) {
        const auto normalized = roclk::service::normalize(stream.at(i).request);
        ASSERT_TRUE(normalized.is_ok()) << i;
        const roclk::service::Request& r = normalized.value();
        if (r.kind == QueryKind::kCornerMargin) {
          EXPECT_EQ(r.corner.cycles, 5000u) << i;
        }
        hashes.insert(roclk::service::content_hash(r));
        ++counts[static_cast<std::size_t>(r.kind)];
        ++requests;
      }
    }
  }
  EXPECT_EQ(hashes.size(), requests);
  EXPECT_EQ(counts[static_cast<int>(QueryKind::kCornerMargin)], 26u * 128);
  EXPECT_EQ(counts[static_cast<int>(QueryKind::kGridSweep)], 5u * 128);
  EXPECT_EQ(counts[static_cast<int>(QueryKind::kYieldCurve)], 1u * 128);
}

TEST(Streams, HotScenariosAreDistinctAndValid) {
  RequestStream stream{Workload::kServeHot, 9};
  std::set<std::uint64_t> hashes;
  for (const auto& scenario : stream.hot_scenarios()) {
    const auto normalized = roclk::service::normalize(scenario);
    ASSERT_TRUE(normalized.is_ok());
    hashes.insert(roclk::service::content_hash(normalized.value()));
  }
  EXPECT_EQ(hashes.size(), kHotScenarios);
}

TEST(Streams, McInputsAreSeeded) {
  McShape shape;
  shape.lanes = 64;
  const McInputs a = mc_inputs(5, shape);
  const McInputs b = mc_inputs(5, shape);
  EXPECT_EQ(a.mus, b.mus);
  for (std::size_t w = 0; w < shape.lanes; ++w) {
    EXPECT_EQ(a.schedules[w].empty(), w % shape.fault_every != 0);
    ASSERT_EQ(a.schedules[w].size(), b.schedules[w].size());
    for (std::size_t e = 0; e < a.schedules[w].size(); ++e) {
      EXPECT_EQ(a.schedules[w].events()[e], b.schedules[w].events()[e]);
    }
    EXPECT_LE(std::abs(a.mus[w]), 0.1 * shape.setpoint_c);
  }
  EXPECT_NE(mc_inputs(6, shape).mus, a.mus);
  const auto lanes = mc_sample_lanes(5, shape, 4, true);
  EXPECT_EQ(lanes, mc_sample_lanes(5, shape, 4, true));
  for (const std::size_t w : lanes) EXPECT_EQ(w % shape.fault_every, 0u);
}

}  // namespace
}  // namespace perfbench
