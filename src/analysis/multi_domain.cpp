#include "roclk/analysis/multi_domain.hpp"

#include <algorithm>
#include <cmath>

#include "roclk/analysis/ensemble_metrics.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/core/ensemble_simulator.hpp"

namespace roclk::analysis {

namespace {

/// Inputs for one domain: the domain's own RO location and its local TDC
/// grid, all sampled from the shared environment.
core::SimulationInputs domain_inputs(const variation::VariationSource& env,
                                     double setpoint_c,
                                     variation::DiePoint lo,
                                     variation::DiePoint hi,
                                     std::size_t tdc_grid) {
  std::vector<variation::DiePoint> sites;
  for (std::size_t ix = 0; ix < tdc_grid; ++ix) {
    for (std::size_t iy = 0; iy < tdc_grid; ++iy) {
      const double fx =
          (static_cast<double>(ix) + 0.5) / static_cast<double>(tdc_grid);
      const double fy =
          (static_cast<double>(iy) + 0.5) / static_cast<double>(tdc_grid);
      sites.push_back({lo.x + fx * (hi.x - lo.x), lo.y + fy * (hi.y - lo.y)});
    }
  }
  const variation::DiePoint ro_site{0.5 * (lo.x + hi.x), 0.5 * (lo.y + hi.y)};

  core::SimulationInputs inputs;
  inputs.e_ro = [&env, setpoint_c, ro_site](double t) {
    return setpoint_c * env.at(t, ro_site);
  };
  inputs.e_tdc = [&env, setpoint_c, sites](double t) {
    double worst = -1e300;
    for (const auto& p : sites) worst = std::max(worst, env.at(t, p));
    return setpoint_c * worst;
  };
  return inputs;
}

}  // namespace

MultiDomainResult run_partitioning(const MultiDomainConfig& config,
                                   const variation::VariationSource&
                                       environment,
                                   double fixed_period) {
  ROCLK_CHECK(config.side >= 1, "need at least one domain per side");
  ROCLK_CHECK(config.die_size_mm > 0.0, "die size must be positive");
  ROCLK_CHECK(config.transient_skip < config.cycles,
                "skip exceeds run length");

  MultiDomainResult result;
  result.domains = config.side * config.side;
  result.domain_size_mm =
      config.die_size_mm / static_cast<double>(config.side);

  chip::ClockDomainConfig tree = config.tree;
  tree.size_mm = result.domain_size_mm;
  result.cdn_delay_stages = chip::ClockDomainGeometry{tree}.cdn_delay_stages();

  // One ensemble lane per domain: the domains share the loop configuration
  // (set-point, CDN delay) and differ only in where on the die they sample
  // the environment, so the whole partitioning is one lane-parallel run
  // with streaming metrics instead of one simulator + trace per domain.
  result.per_domain.resize(result.domains);
  std::vector<core::SimulationInputs> lane_inputs;
  lane_inputs.reserve(result.domains);
  for (std::size_t d = 0; d < result.domains; ++d) {
    const std::size_t ix = d % config.side;
    const std::size_t iy = d / config.side;
    const double step = 1.0 / static_cast<double>(config.side);
    const variation::DiePoint lo{static_cast<double>(ix) * step,
                                 static_cast<double>(iy) * step};
    const variation::DiePoint hi{lo.x + step, lo.y + step};
    result.per_domain[d].centre = {0.5 * (lo.x + hi.x), 0.5 * (lo.y + hi.y)};
    result.per_domain[d].cdn_delay_stages = result.cdn_delay_stages;
    lane_inputs.push_back(domain_inputs(environment, config.setpoint_c, lo,
                                        hi, config.tdc_grid));
  }

  core::LoopConfig loop;
  loop.setpoint_c = config.setpoint_c;
  loop.cdn_delay_stages = result.cdn_delay_stages;
  loop.mode = core::GeneratorMode::kControlledRo;
  const control::IirControlHardware prototype{control::paper_iir_config()};
  auto ensemble =
      core::EnsembleSimulator::uniform(loop, &prototype, result.domains);
  const auto block = core::sample_ensemble(
      lane_inputs, config.cycles, config.setpoint_c, &ThreadPool::shared());
  const std::vector<RunMetrics> metrics =
      evaluate_ensemble(ensemble, block, {fixed_period},
                        config.transient_skip, &ThreadPool::shared());
  for (std::size_t d = 0; d < result.domains; ++d) {
    result.per_domain[d].metrics = metrics[d];
  }

  double period_sum = 0.0;
  for (const auto& domain : result.per_domain) {
    result.worst_safety_margin = std::max(result.worst_safety_margin,
                                          domain.metrics.safety_margin);
    result.worst_relative_period =
        std::max(result.worst_relative_period,
                 domain.metrics.relative_adaptive_period);
    period_sum += domain.metrics.mean_period;
  }
  result.mean_period = period_sum / static_cast<double>(result.domains);
  return result;
}

std::vector<MultiDomainResult> partitioning_sweep(
    const MultiDomainConfig& base,
    const variation::VariationSource& environment, double fixed_period,
    std::span<const std::size_t> sides) {
  std::vector<MultiDomainResult> results;
  results.reserve(sides.size());
  for (std::size_t side : sides) {
    MultiDomainConfig config = base;
    config.side = side;
    results.push_back(run_partitioning(config, environment, fixed_period));
  }
  return results;
}

}  // namespace roclk::analysis
