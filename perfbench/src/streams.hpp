// Seeded workload inputs.  Every input of every workload is a pure function
// of the --seed argument, derived through StreamKey, so the same seed gives
// the same request stream and the same Monte-Carlo lanes in every process;
// the library receives only the generated inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "roclk/common/stream_key.hpp"
#include "roclk/fault/fault.hpp"
#include "roclk/service/request.hpp"

namespace perfbench {

enum class Workload { kMcCampaign, kServeHot, kServeCold };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(Workload workload);

// ------------------------------------------------------------ mc_campaign

struct McShape {
  std::size_t lanes{1024};
  std::size_t cycles{20000};
  std::size_t skip{1000};
  double setpoint_c{64.0};
  double amplitude{12.8};       // harmonic HoDV, 0.2 c
  double period{3200.0};        // T_e = 50 c
  double fixed_period{76.8};    // 1.2 c, the HoDV design margin
  std::size_t fault_every{8};   // one faulted lane in 8: one per 32-lane chunk
};

struct McInputs {
  std::vector<double> mus;  // per-lane static mismatch within +-0.1 c
  /// One schedule per lane; non-empty on every fault_every-th lane.
  std::vector<roclk::fault::FaultSchedule> schedules;
};

[[nodiscard]] McInputs mc_inputs(std::uint64_t seed, const McShape& shape);

/// Lanes the verification replays through LoopSimulator::run_batch:
/// `count` distinct lanes, drawn from the faulted lanes when `faulted`.
[[nodiscard]] std::vector<std::size_t> mc_sample_lanes(std::uint64_t seed,
                                                       const McShape& shape,
                                                       std::size_t count,
                                                       bool faulted);

// ------------------------------------------------------- serve workloads

inline constexpr std::size_t kHotScenarios = 64;
inline constexpr std::size_t kColdBlock = 32;
inline constexpr std::size_t kGridPoints = 16;

/// Point k of the 16-point lattices the cold stream's grids sweep, computed
/// with the service's own grid formula so grid points and corners that
/// name the same lattice value are bitwise the same corner.
[[nodiscard]] double tclk_lattice(std::size_t k);
[[nodiscard]] double mu_lattice(std::size_t k);

struct StreamRequest {
  roclk::service::Request request;
  /// Requests with equal scenario ids ask the same question and must get
  /// the same answer (serve_hot: the pre-warmed scenario; serve_cold: the
  /// request index, since every request is distinct).
  std::uint64_t scenario{0};
};

/// Request i of a serve workload.  serve_hot picks one of 64 pre-warmed
/// corners uniformly.  serve_cold issues blocks of 32 distinct requests,
/// in a seeded order per block: 26 corners on the (t_clk, T_e) lattice with
/// a unique mu, 2 t_clk-axis and 3 mu-axis 16-point grids on the block's
/// T_e (each t_clk grid shares one corner with each mu grid), and 1 yield
/// query with a unique seed.  Not thread-safe: one instance per thread.
class RequestStream {
 public:
  RequestStream(Workload workload, std::uint64_t seed);

  [[nodiscard]] StreamRequest at(std::uint64_t i);

  /// The corners serve_hot pre-warms (empty for serve_cold).
  [[nodiscard]] const std::vector<roclk::service::Request>& hot_scenarios()
      const {
    return hot_;
  }

 private:
  enum class Slot : std::uint8_t { kCorner, kTclkGrid, kMuGrid, kYield };
  struct Block {
    std::uint64_t index{~std::uint64_t{0}};
    double te_over_c{0.0};
    Slot slots[kColdBlock]{};
    std::size_t grid_ordinal[kColdBlock]{};  // which grid of its axis
    std::size_t mu_index[2]{};               // t_clk grids' base mu
    std::size_t tclk_index[3]{};             // mu grids' base t_clk
  };

  void load_block(std::uint64_t b);
  [[nodiscard]] roclk::service::Request cold_request(std::uint64_t i);

  Workload workload_;
  roclk::StreamKey key_;
  std::vector<roclk::service::Request> hot_;
  Block block_;
};

}  // namespace perfbench
