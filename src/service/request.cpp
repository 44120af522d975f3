#include "roclk/service/request.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "roclk/analysis/experiments.hpp"

namespace roclk::service {

namespace {

/// Canonical double: -0.0 and +0.0 must hash alike.
double canon(double v) { return v == 0.0 ? 0.0 : v; }

Status check_finite(double v, const char* field) {
  if (!std::isfinite(v)) {
    return Status::invalid_argument(std::string{field} + " must be finite");
  }
  return Status::ok();
}

Status check_positive(double v, const char* field) {
  if (Status s = check_finite(v, field); !s.is_ok()) return s;
  if (v <= 0.0) {
    return Status::invalid_argument(std::string{field} + " must be > 0");
  }
  return Status::ok();
}

Status check_non_negative(double v, const char* field) {
  if (Status s = check_finite(v, field); !s.is_ok()) return s;
  if (v < 0.0) {
    return Status::invalid_argument(std::string{field} + " must be >= 0");
  }
  return Status::ok();
}

/// Service-level sanity bound: keeps cycle-count derivation and stage
/// conversions inside comfortably representable integer ranges.
constexpr double kMaxMagnitude = 1e6;

Status check_bounded(double v, const char* field) {
  if (std::abs(v) > kMaxMagnitude) {
    return Status::invalid_argument(std::string{field} +
                                    " exceeds the service bound of 1e6");
  }
  return Status::ok();
}

/// The te the cycle-count default must cover: for a te sweep the upper
/// bound drives the longest run, and every grid point must share one
/// cycle count (the ensemble path simulates all points in lockstep).
double resolving_te(const Request& request) {
  if (request.kind == QueryKind::kGridSweep &&
      request.grid.axis == GridAxis::kTeOverC) {
    return request.grid.hi;
  }
  const CornerQuery& c = request.kind == QueryKind::kGridSweep
                             ? request.grid.base
                             : request.corner;
  return c.te_over_c;
}

Status normalize_corner(CornerQuery& c, double te_for_cycles) {
  if (c.system > 3) {
    return Status::invalid_argument("unknown system kind");
  }
  if (c.quantization > 2) {
    return Status::invalid_argument("unknown CDN quantization");
  }
  if (Status s = check_positive(c.setpoint_c, "setpoint_c"); !s.is_ok())
    return s;
  if (Status s = check_positive(c.tclk_over_c, "tclk_over_c"); !s.is_ok())
    return s;
  if (Status s = check_non_negative(c.amplitude_frac, "amplitude_frac");
      !s.is_ok())
    return s;
  if (Status s = check_positive(c.te_over_c, "te_over_c"); !s.is_ok())
    return s;
  if (Status s = check_finite(c.mu_over_c, "mu_over_c"); !s.is_ok())
    return s;
  if (Status s =
          check_non_negative(c.free_ro_margin_frac, "free_ro_margin_frac");
      !s.is_ok())
    return s;
  for (const auto& [v, name] :
       {std::pair{c.setpoint_c, "setpoint_c"},
        std::pair{c.tclk_over_c, "tclk_over_c"},
        std::pair{c.amplitude_frac, "amplitude_frac"},
        std::pair{c.te_over_c, "te_over_c"},
        std::pair{c.mu_over_c, "mu_over_c"},
        std::pair{c.free_ro_margin_frac, "free_ro_margin_frac"}}) {
    if (Status s = check_bounded(v, name); !s.is_ok()) return s;
  }
  if (c.cycles > 100000000) {
    return Status::invalid_argument("cycles exceeds the service bound");
  }
  if (c.cycles == 0) {
    c.cycles = analysis::cycles_for(analysis::ExperimentParams{},
                                    te_for_cycles);
  }
  if (c.skip >= c.cycles) {
    return Status::invalid_argument("skip must be < cycles");
  }
  c.setpoint_c = canon(c.setpoint_c);
  c.tclk_over_c = canon(c.tclk_over_c);
  c.amplitude_frac = canon(c.amplitude_frac);
  c.te_over_c = canon(c.te_over_c);
  c.mu_over_c = canon(c.mu_over_c);
  c.free_ro_margin_frac = canon(c.free_ro_margin_frac);
  return Status::ok();
}

Status normalize_grid(GridQuery& g, double te_for_cycles) {
  if (g.axis != GridAxis::kTclkOverC && g.axis != GridAxis::kTeOverC &&
      g.axis != GridAxis::kMuOverC) {
    return Status::invalid_argument("unknown grid axis");
  }
  if (g.scale != GridScale::kLinear && g.scale != GridScale::kLog) {
    return Status::invalid_argument("unknown grid scale");
  }
  if (Status s = check_finite(g.lo, "grid lo"); !s.is_ok()) return s;
  if (Status s = check_finite(g.hi, "grid hi"); !s.is_ok()) return s;
  if (Status s = check_bounded(g.lo, "grid lo"); !s.is_ok()) return s;
  if (Status s = check_bounded(g.hi, "grid hi"); !s.is_ok()) return s;
  if (g.points < 2) {
    return Status::invalid_argument("grid needs at least 2 points");
  }
  if (g.points > 4096) {
    return Status::invalid_argument("grid exceeds 4096 points");
  }
  if (!(g.lo < g.hi)) {
    return Status::invalid_argument("grid lo must be < hi");
  }
  if (g.scale == GridScale::kLog && g.lo <= 0.0) {
    return Status::invalid_argument("log grid needs lo > 0");
  }
  if ((g.axis == GridAxis::kTclkOverC || g.axis == GridAxis::kTeOverC) &&
      g.lo <= 0.0) {
    return Status::invalid_argument("tclk/te axis needs lo > 0");
  }
  g.lo = canon(g.lo);
  g.hi = canon(g.hi);
  return normalize_corner(g.base, te_for_cycles);
}

Status normalize_yield(YieldQuery& y) {
  if (y.chips == 0 || y.chips > 1000000) {
    return Status::invalid_argument("chips must be in [1, 1e6]");
  }
  if (y.paths == 0 || y.paths > 65536) {
    return Status::invalid_argument("paths must be in [1, 65536]");
  }
  if (Status s = check_positive(y.nominal_depth, "nominal_depth");
      !s.is_ok())
    return s;
  if (Status s = check_non_negative(y.d2d_sigma, "d2d_sigma"); !s.is_ok())
    return s;
  if (Status s = check_non_negative(y.wid_sigma, "wid_sigma"); !s.is_ok())
    return s;
  if (Status s = check_non_negative(y.rnd_sigma, "rnd_sigma"); !s.is_ok())
    return s;
  if (Status s = check_positive(y.setpoint_c, "setpoint_c"); !s.is_ok())
    return s;
  if (y.ro_max_length < 1) {
    return Status::invalid_argument("ro_max_length must be >= 1");
  }
  if (Status s = check_finite(y.margin_lo, "margin_lo"); !s.is_ok())
    return s;
  if (Status s = check_finite(y.margin_hi, "margin_hi"); !s.is_ok())
    return s;
  for (const auto& [v, name] :
       {std::pair{y.nominal_depth, "nominal_depth"},
        std::pair{y.setpoint_c, "setpoint_c"},
        std::pair{y.margin_lo, "margin_lo"},
        std::pair{y.margin_hi, "margin_hi"}}) {
    if (Status s = check_bounded(v, name); !s.is_ok()) return s;
  }
  if (y.margin_points == 0 || y.margin_points > 4096) {
    return Status::invalid_argument("margin_points must be in [1, 4096]");
  }
  if (y.margin_points > 1 && !(y.margin_lo < y.margin_hi)) {
    return Status::invalid_argument("margin lo must be < hi");
  }
  y.nominal_depth = canon(y.nominal_depth);
  y.d2d_sigma = canon(y.d2d_sigma);
  y.wid_sigma = canon(y.wid_sigma);
  y.rnd_sigma = canon(y.rnd_sigma);
  y.setpoint_c = canon(y.setpoint_c);
  y.margin_lo = canon(y.margin_lo);
  y.margin_hi = canon(y.margin_hi);
  return Status::ok();
}

/// Chains a WireWriter's checksum without keeping the words: the content
/// hash needs no buffer.
struct WireHasher {
  std::uint64_t checksum{kWireSeed};

  void put(std::uint64_t v) { checksum = wire_mix(checksum, v); }
  void put_double(double v) { put(std::bit_cast<std::uint64_t>(v)); }
};

/// Counts the words a sink would receive, so encode_request can size its
/// buffer once.
struct WordCount {
  std::size_t words{0};

  void put(std::uint64_t) { ++words; }
  void put_double(double) { ++words; }
};

/// `Sink` is a WireWriter (encoding), a WireHasher (content hash) or a
/// WordCount.
template <typename Sink>
void put_corner(const CornerQuery& c, Sink& out) {
  out.put(c.system);
  out.put_double(c.setpoint_c);
  out.put_double(c.tclk_over_c);
  out.put_double(c.amplitude_frac);
  out.put_double(c.te_over_c);
  out.put_double(c.mu_over_c);
  out.put(c.cycles);
  out.put(c.skip);
  out.put_double(c.free_ro_margin_frac);
  out.put(c.quantization);
}

CornerQuery take_corner(WireReader& in) {
  CornerQuery c;
  c.system = static_cast<std::uint32_t>(in.take());
  c.setpoint_c = in.take_double();
  c.tclk_over_c = in.take_double();
  c.amplitude_frac = in.take_double();
  c.te_over_c = in.take_double();
  c.mu_over_c = in.take_double();
  c.cycles = in.take();
  c.skip = in.take();
  c.free_ro_margin_frac = in.take_double();
  c.quantization = static_cast<std::uint32_t>(in.take());
  return c;
}

/// Scenario words only — the part the content hash covers.
template <typename Sink>
void put_scenario(const Request& request, Sink& out) {
  out.put(static_cast<std::uint64_t>(request.kind));
  switch (request.kind) {
    case QueryKind::kCornerMargin:
      put_corner(request.corner, out);
      break;
    case QueryKind::kGridSweep:
      put_corner(request.grid.base, out);
      out.put(static_cast<std::uint64_t>(request.grid.axis));
      out.put(static_cast<std::uint64_t>(request.grid.scale));
      out.put_double(request.grid.lo);
      out.put_double(request.grid.hi);
      out.put(request.grid.points);
      break;
    case QueryKind::kYieldCurve:
      out.put(request.yield.chips);
      out.put(request.yield.paths);
      out.put_double(request.yield.nominal_depth);
      out.put_double(request.yield.d2d_sigma);
      out.put_double(request.yield.wid_sigma);
      out.put_double(request.yield.rnd_sigma);
      out.put_double(request.yield.setpoint_c);
      out.put(static_cast<std::uint64_t>(request.yield.ro_max_length));
      out.put(request.yield.seed);
      out.put_double(request.yield.margin_lo);
      out.put_double(request.yield.margin_hi);
      out.put(request.yield.margin_points);
      break;
  }
}

}  // namespace

Result<Request> normalize(const Request& request) {
  Request norm = request;
  Status status = Status::ok();
  switch (norm.kind) {
    case QueryKind::kCornerMargin:
      status = normalize_corner(norm.corner, resolving_te(norm));
      norm.grid = GridQuery{};
      norm.yield = YieldQuery{};
      break;
    case QueryKind::kGridSweep:
      status = normalize_grid(norm.grid, resolving_te(norm));
      norm.corner = CornerQuery{};
      norm.yield = YieldQuery{};
      break;
    case QueryKind::kYieldCurve:
      status = normalize_yield(norm.yield);
      norm.corner = CornerQuery{};
      norm.grid = GridQuery{};
      break;
    default:
      status = Status::invalid_argument("unknown query kind");
      break;
  }
  if (!status.is_ok()) return status;
  return norm;
}

std::uint64_t content_hash(const Request& normalized) {
  WireHasher scenario;
  put_scenario(normalized, scenario);
  return scenario.checksum;
}

void encode_request(const Request& request, WireWriter& out) {
  WordCount scenario;
  put_scenario(request, scenario);
  out.words.reserve(out.words.size() + 1 + scenario.words);
  out.put(request.deadline_ms);
  put_scenario(request, out);
}

Result<Request> decode_request(WireReader& in) {
  Request request;
  request.deadline_ms = static_cast<std::uint32_t>(in.take());
  request.kind = static_cast<QueryKind>(in.take());
  switch (request.kind) {
    case QueryKind::kCornerMargin:
      request.corner = take_corner(in);
      break;
    case QueryKind::kGridSweep:
      request.grid.base = take_corner(in);
      request.grid.axis = static_cast<GridAxis>(in.take());
      request.grid.scale = static_cast<GridScale>(in.take());
      request.grid.lo = in.take_double();
      request.grid.hi = in.take_double();
      request.grid.points = in.take();
      break;
    case QueryKind::kYieldCurve:
      request.yield.chips = in.take();
      request.yield.paths = in.take();
      request.yield.nominal_depth = in.take_double();
      request.yield.d2d_sigma = in.take_double();
      request.yield.wid_sigma = in.take_double();
      request.yield.rnd_sigma = in.take_double();
      request.yield.setpoint_c = in.take_double();
      request.yield.ro_max_length = static_cast<std::int64_t>(in.take());
      request.yield.seed = in.take();
      request.yield.margin_lo = in.take_double();
      request.yield.margin_hi = in.take_double();
      request.yield.margin_points = in.take();
      break;
    default:
      return Status::invalid_argument("unknown query kind on wire");
  }
  if (!in.ok()) {
    return Status::invalid_argument("request payload truncated");
  }
  return request;
}

}  // namespace roclk::service
