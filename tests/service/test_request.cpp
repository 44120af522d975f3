#include "roclk/service/request.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace roclk::service {
namespace {

Request small_corner() {
  Request request;
  request.kind = QueryKind::kCornerMargin;
  request.corner.cycles = 2000;
  request.corner.skip = 200;
  return request;
}

TEST(RequestNormalize, ResolvesDefaultCycles) {
  Request request;
  request.kind = QueryKind::kCornerMargin;
  request.corner.cycles = 0;
  const Result<Request> norm = normalize(request);
  ASSERT_TRUE(norm.is_ok());
  EXPECT_GT(norm.value().corner.cycles, 0u);

  // Spelling the default out explicitly is the SAME request.
  Request explicit_request = request;
  explicit_request.corner.cycles = norm.value().corner.cycles;
  const Result<Request> explicit_norm = normalize(explicit_request);
  ASSERT_TRUE(explicit_norm.is_ok());
  EXPECT_EQ(content_hash(norm.value()), content_hash(explicit_norm.value()));
}

TEST(RequestNormalize, NegativeZeroHashesLikePositiveZero) {
  Request a = small_corner();
  Request b = small_corner();
  a.corner.mu_over_c = 0.0;
  b.corner.mu_over_c = -0.0;
  const Result<Request> na = normalize(a);
  const Result<Request> nb = normalize(b);
  ASSERT_TRUE(na.is_ok());
  ASSERT_TRUE(nb.is_ok());
  EXPECT_EQ(content_hash(na.value()), content_hash(nb.value()));
  EXPECT_EQ(na.value(), nb.value());
}

TEST(RequestNormalize, DeadlineIsNotPartOfTheIdentity) {
  Request a = small_corner();
  Request b = small_corner();
  a.deadline_ms = 0;
  b.deadline_ms = 5000;
  const Result<Request> na = normalize(a);
  const Result<Request> nb = normalize(b);
  ASSERT_TRUE(na.is_ok());
  ASSERT_TRUE(nb.is_ok());
  EXPECT_EQ(content_hash(na.value()), content_hash(nb.value()));
}

TEST(RequestNormalize, InactiveMembersAreZeroedForCanonicalEquality) {
  Request a = small_corner();
  Request b = small_corner();
  // Garbage in the inactive members must not affect identity.
  a.yield.seed = 999;
  a.grid.points = 77;
  const Result<Request> na = normalize(a);
  const Result<Request> nb = normalize(b);
  ASSERT_TRUE(na.is_ok());
  ASSERT_TRUE(nb.is_ok());
  EXPECT_EQ(na.value(), nb.value());
  EXPECT_EQ(content_hash(na.value()), content_hash(nb.value()));
}

TEST(RequestNormalize, DifferentScenariosHashDifferently) {
  Request a = small_corner();
  Request b = small_corner();
  b.corner.tclk_over_c = 1.25;
  const Result<Request> na = normalize(a);
  const Result<Request> nb = normalize(b);
  ASSERT_TRUE(na.is_ok());
  ASSERT_TRUE(nb.is_ok());
  EXPECT_NE(content_hash(na.value()), content_hash(nb.value()));
}

TEST(RequestNormalize, RejectsNonFiniteAndOutOfBoundValues) {
  Request nan_request = small_corner();
  nan_request.corner.mu_over_c = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(normalize(nan_request).is_ok());

  Request inf_request = small_corner();
  inf_request.corner.te_over_c = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(normalize(inf_request).is_ok());

  Request huge_request = small_corner();
  huge_request.corner.te_over_c = 1e300;  // would overflow cycle derivation
  EXPECT_FALSE(normalize(huge_request).is_ok());

  Request negative_request = small_corner();
  negative_request.corner.setpoint_c = -1.0;
  EXPECT_FALSE(normalize(negative_request).is_ok());

  Request cycle_request = small_corner();
  cycle_request.corner.cycles = 200000000;
  EXPECT_FALSE(normalize(cycle_request).is_ok());
}

TEST(RequestNormalize, RejectsUnknownEnumsAndBadSkip) {
  Request system_request = small_corner();
  system_request.corner.system = 9;
  EXPECT_FALSE(normalize(system_request).is_ok());

  Request quant_request = small_corner();
  quant_request.corner.quantization = 7;
  EXPECT_FALSE(normalize(quant_request).is_ok());

  Request skip_request = small_corner();
  skip_request.corner.skip = skip_request.corner.cycles;
  EXPECT_FALSE(normalize(skip_request).is_ok());

  Request kind_request = small_corner();
  kind_request.kind = static_cast<QueryKind>(42);
  EXPECT_FALSE(normalize(kind_request).is_ok());
}

TEST(RequestNormalize, ValidatesGrids) {
  Request grid;
  grid.kind = QueryKind::kGridSweep;
  grid.grid.base.cycles = 2000;
  grid.grid.base.skip = 200;
  grid.grid.lo = 0.5;
  grid.grid.hi = 2.0;
  grid.grid.points = 5;
  ASSERT_TRUE(normalize(grid).is_ok());

  Request one_point = grid;
  one_point.grid.points = 1;
  EXPECT_FALSE(normalize(one_point).is_ok());

  Request too_many = grid;
  too_many.grid.points = 5000;
  EXPECT_FALSE(normalize(too_many).is_ok());

  Request inverted = grid;
  inverted.grid.lo = 2.0;
  inverted.grid.hi = 0.5;
  EXPECT_FALSE(normalize(inverted).is_ok());

  Request log_zero = grid;
  log_zero.grid.axis = GridAxis::kMuOverC;
  log_zero.grid.scale = GridScale::kLog;
  log_zero.grid.lo = 0.0;
  EXPECT_FALSE(normalize(log_zero).is_ok());

  Request bad_axis = grid;
  bad_axis.grid.axis = static_cast<GridAxis>(9);
  EXPECT_FALSE(normalize(bad_axis).is_ok());
}

TEST(RequestNormalize, TeGridResolvesCyclesFromTheUpperBound) {
  Request grid;
  grid.kind = QueryKind::kGridSweep;
  grid.grid.axis = GridAxis::kTeOverC;
  grid.grid.lo = 10.0;
  grid.grid.hi = 100.0;
  grid.grid.points = 3;
  grid.grid.base.cycles = 0;
  grid.grid.base.skip = 100;
  const Result<Request> norm = normalize(grid);
  ASSERT_TRUE(norm.is_ok());

  Request corner;
  corner.kind = QueryKind::kCornerMargin;
  corner.corner.te_over_c = 100.0;
  corner.corner.cycles = 0;
  corner.corner.skip = 100;
  const Result<Request> corner_norm = normalize(corner);
  ASSERT_TRUE(corner_norm.is_ok());
  // Every te-grid point shares the cycle count the longest te needs.
  EXPECT_EQ(norm.value().grid.base.cycles,
            corner_norm.value().corner.cycles);
}

TEST(RequestNormalize, ValidatesYieldQueries) {
  Request yield;
  yield.kind = QueryKind::kYieldCurve;
  yield.yield.chips = 16;
  yield.yield.margin_points = 3;
  ASSERT_TRUE(normalize(yield).is_ok());

  Request no_chips = yield;
  no_chips.yield.chips = 0;
  EXPECT_FALSE(normalize(no_chips).is_ok());

  Request inverted = yield;
  inverted.yield.margin_lo = 10.0;
  inverted.yield.margin_hi = 1.0;
  EXPECT_FALSE(normalize(inverted).is_ok());

  Request bad_sigma = yield;
  bad_sigma.yield.d2d_sigma = -0.1;
  EXPECT_FALSE(normalize(bad_sigma).is_ok());
}

TEST(RequestNormalize, ContentHashIsPinned) {
  // A CacheJournal v1 record holds only this hash, so a changed
  // derivation would silently turn every journalled answer into a miss.
  // Values recorded before the hash stopped filling a WireWriter.
  Request grid;
  grid.kind = QueryKind::kGridSweep;
  grid.grid.axis = GridAxis::kTeOverC;
  grid.grid.scale = GridScale::kLog;
  grid.grid.lo = 10.0;
  grid.grid.hi = 100.0;
  grid.grid.points = 5;

  Request yield;
  yield.kind = QueryKind::kYieldCurve;
  yield.yield.chips = 64;
  yield.yield.seed = 7;

  const std::pair<Request, std::uint64_t> pins[] = {
      {small_corner(), 0x0570FBB3C5238C8AULL},
      {grid, 0xF11AAA2D72B3B63DULL},
      {yield, 0xE8F5A399F8A0102BULL},
  };
  for (const auto& [request, want] : pins) {
    const Result<Request> norm = normalize(request);
    ASSERT_TRUE(norm.is_ok());
    EXPECT_EQ(content_hash(norm.value()), want)
        << to_string(request.kind) << " 0x" << std::hex
        << content_hash(norm.value());
  }
}

TEST(RequestWire, RoundTripsEveryQueryKind) {
  Request corner = small_corner();
  corner.deadline_ms = 750;

  Request grid;
  grid.kind = QueryKind::kGridSweep;
  grid.grid.axis = GridAxis::kMuOverC;
  grid.grid.scale = GridScale::kLinear;
  grid.grid.lo = -0.05;
  grid.grid.hi = 0.05;
  grid.grid.points = 3;
  grid.grid.base.cycles = 2000;
  grid.grid.base.skip = 200;

  Request yield;
  yield.kind = QueryKind::kYieldCurve;
  yield.yield.chips = 32;
  yield.yield.seed = 42;

  for (const Request& request : {corner, grid, yield}) {
    WireWriter writer;
    encode_request(request, writer);
    WireReader reader{writer.words.data(), writer.words.size()};
    const Result<Request> decoded = decode_request(reader);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value(), request);
    EXPECT_EQ(reader.remaining(), 0u);
  }
}

TEST(RequestWire, RejectsTruncatedAndUnknownKindPayloads) {
  Request request = small_corner();
  WireWriter writer;
  encode_request(request, writer);

  WireReader truncated{writer.words.data(), writer.words.size() - 2};
  EXPECT_FALSE(decode_request(truncated).is_ok());

  std::vector<std::uint64_t> words = writer.words;
  words[1] = 42;  // unknown kind
  WireReader unknown{words.data(), words.size()};
  EXPECT_FALSE(decode_request(unknown).is_ok());
}

}  // namespace
}  // namespace roclk::service
