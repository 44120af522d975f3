#include "streams.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace perfbench {

namespace {

using roclk::CounterRng;
using roclk::StreamKey;
using roclk::service::CornerQuery;
using roclk::service::GridAxis;
using roclk::service::QueryKind;
using roclk::service::Request;

constexpr double kTclkLo = 0.5;
constexpr double kTclkHi = 2.0;
constexpr double kMuLo = -0.1;
constexpr double kMuHi = 0.1;

/// Same expression as the service's linear grid_points().
double lattice(double lo, double hi, std::size_t k) {
  const double t = static_cast<double>(k) /
                   (static_cast<double>(kGridPoints) - 1.0);
  return lo + (hi - lo) * t;
}

CornerQuery corner(double tclk_over_c, double te_over_c, double mu_over_c) {
  CornerQuery c;
  c.tclk_over_c = tclk_over_c;
  c.te_over_c = te_over_c;
  c.mu_over_c = mu_over_c;
  return c;
}

/// A mismatch drawn uniformly from [-0.1, 0.1) c: distinct per draw with
/// overwhelming probability, so corners carrying one never coincide.
double unique_mu(CounterRng& rng) { return kMuLo + (kMuHi - kMuLo) * rng.uniform(); }

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "mc_campaign") return Workload::kMcCampaign;
  if (name == "serve_hot") return Workload::kServeHot;
  if (name == "serve_cold") return Workload::kServeCold;
  return std::nullopt;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kMcCampaign:
      return "mc_campaign";
    case Workload::kServeHot:
      return "serve_hot";
    case Workload::kServeCold:
      return "serve_cold";
  }
  return "?";
}

McInputs mc_inputs(std::uint64_t seed, const McShape& shape) {
  const StreamKey key = StreamKey{seed}.split("perfbench.mc");
  McInputs in;
  in.mus.resize(shape.lanes);
  in.schedules.resize(shape.lanes);
  roclk::fault::RandomFaultSpec spec;
  spec.horizon_cycles = shape.cycles;
  for (std::size_t w = 0; w < shape.lanes; ++w) {
    CounterRng rng{key.split("mu").at(w)};
    in.mus[w] = shape.setpoint_c * rng.uniform(-0.1, 0.1);
    if (w % shape.fault_every == 0) {
      in.schedules[w] =
          roclk::fault::FaultSchedule::random(key.split("fault").at(w), spec);
    }
  }
  return in;
}

std::vector<std::size_t> mc_sample_lanes(std::uint64_t seed,
                                         const McShape& shape,
                                         std::size_t count, bool faulted) {
  const std::size_t stride = faulted ? shape.fault_every : 1;
  std::vector<std::size_t> pool((shape.lanes + stride - 1) / stride);
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i] = i * stride;
  CounterRng rng{StreamKey{seed}.split("perfbench.mc").split(
      faulted ? "verify.faulted" : "verify.clean")};
  count = std::min(count, pool.size());
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(pool[i], pool[i + rng.uniform_int(pool.size() - i)]);
  }
  pool.resize(count);
  return pool;
}

double tclk_lattice(std::size_t k) { return lattice(kTclkLo, kTclkHi, k); }
double mu_lattice(std::size_t k) { return lattice(kMuLo, kMuHi, k); }

RequestStream::RequestStream(Workload workload, std::uint64_t seed)
    : workload_{workload},
      key_{StreamKey{seed}.split(workload == Workload::kServeHot
                                     ? "perfbench.hot"
                                     : "perfbench.cold")} {
  if (workload_ != Workload::kServeHot) return;
  // 64 corners: 16 t_clk lattice points x 4 HoDV periods, each with its
  // own mismatch.
  constexpr double kTe[] = {25.0, 50.0, 100.0, 200.0};
  hot_.resize(kHotScenarios);
  for (std::size_t k = 0; k < kHotScenarios; ++k) {
    CounterRng rng{key_.split("scenario").at(k)};
    hot_[k].kind = QueryKind::kCornerMargin;
    hot_[k].corner = corner(tclk_lattice(k % kGridPoints),
                            kTe[k / kGridPoints], unique_mu(rng));
  }
}

StreamRequest RequestStream::at(std::uint64_t i) {
  if (workload_ == Workload::kServeHot) {
    CounterRng rng{key_.split("pick").at(i)};
    const std::size_t k = rng.uniform_int(kHotScenarios);
    return {hot_[k], k};
  }
  return {cold_request(i), i};
}

void RequestStream::load_block(std::uint64_t b) {
  if (block_.index == b) return;
  block_.index = b;
  // A fresh HoDV period per block, so grids of different blocks never
  // coincide: the golden-ratio sequence on [10, 310) c never repeats, and
  // every period in that range resolves to the same 5000-cycle run.
  block_.te_over_c =
      10.0 + std::fmod(static_cast<double>(b) * 0.6180339887, 300.0);
  CounterRng rng{key_.split("block").at(b)};
  std::size_t pos = 0;
  for (; pos < 26; ++pos) block_.slots[pos] = Slot::kCorner;
  for (; pos < 28; ++pos) block_.slots[pos] = Slot::kTclkGrid;
  for (; pos < 31; ++pos) block_.slots[pos] = Slot::kMuGrid;
  block_.slots[pos] = Slot::kYield;
  for (std::size_t n = kColdBlock; n > 1; --n) {
    std::swap(block_.slots[n - 1], block_.slots[rng.uniform_int(n)]);
  }
  std::size_t tclk_grids = 0;
  std::size_t mu_grids = 0;
  for (std::size_t p = 0; p < kColdBlock; ++p) {
    if (block_.slots[p] == Slot::kTclkGrid) block_.grid_ordinal[p] = tclk_grids++;
    if (block_.slots[p] == Slot::kMuGrid) block_.grid_ordinal[p] = mu_grids++;
  }
  std::size_t mus[kGridPoints];
  std::size_t tclks[kGridPoints];
  std::iota(mus, mus + kGridPoints, std::size_t{0});
  std::iota(tclks, tclks + kGridPoints, std::size_t{0});
  for (std::size_t n = 0; n < 3; ++n) {
    std::swap(mus[n], mus[n + rng.uniform_int(kGridPoints - n)]);
    std::swap(tclks[n], tclks[n + rng.uniform_int(kGridPoints - n)]);
  }
  block_.mu_index[0] = mus[0];
  block_.mu_index[1] = mus[1];
  for (std::size_t n = 0; n < 3; ++n) block_.tclk_index[n] = tclks[n];
}

Request RequestStream::cold_request(std::uint64_t i) {
  const std::uint64_t b = i / kColdBlock;
  const std::size_t p = static_cast<std::size_t>(i % kColdBlock);
  load_block(b);
  CounterRng rng{key_.split("request").at(i)};
  Request r;
  switch (block_.slots[p]) {
    case Slot::kCorner:
      r.kind = QueryKind::kCornerMargin;
      r.corner = corner(tclk_lattice(rng.uniform_int(kGridPoints)),
                        block_.te_over_c, unique_mu(rng));
      break;
    case Slot::kTclkGrid:
      r.kind = QueryKind::kGridSweep;
      r.grid.base = corner(tclk_lattice(0), block_.te_over_c,
                           mu_lattice(block_.mu_index[block_.grid_ordinal[p]]));
      r.grid.axis = GridAxis::kTclkOverC;
      r.grid.lo = kTclkLo;
      r.grid.hi = kTclkHi;
      r.grid.points = kGridPoints;
      break;
    case Slot::kMuGrid:
      r.kind = QueryKind::kGridSweep;
      r.grid.base = corner(tclk_lattice(block_.tclk_index[block_.grid_ordinal[p]]),
                           block_.te_over_c, 0.0);
      r.grid.axis = GridAxis::kMuOverC;
      r.grid.lo = kMuLo;
      r.grid.hi = kMuHi;
      r.grid.points = kGridPoints;
      break;
    case Slot::kYield:
      r.kind = QueryKind::kYieldCurve;
      r.yield.seed = rng();
      break;
  }
  return r;
}

}  // namespace perfbench
