#include "roclk/core/inputs.hpp"

#include <algorithm>
#include <vector>

#include "roclk/common/status.hpp"
#include "roclk/common/thread_pool.hpp"

namespace roclk::core {

SimulationInputs SimulationInputs::none() { return SimulationInputs{}; }

SimulationInputs SimulationInputs::homogeneous(
    std::shared_ptr<const signal::Waveform> waveform,
    double static_mu_stages) {
  ROCLK_CHECK(waveform != nullptr, "null waveform");
  SimulationInputs inputs;
  inputs.e_ro = [waveform](double t) { return waveform->at(t); };
  inputs.e_tdc = [waveform](double t) { return waveform->at(t); };
  inputs.mu = [static_mu_stages](double) { return static_mu_stages; };
  return inputs;
}

SimulationInputs SimulationInputs::harmonic(double amplitude_stages,
                                            double period_stages,
                                            double static_mu_stages,
                                            double phase) {
  auto wave = std::make_shared<signal::SineWaveform>(amplitude_stages,
                                                     period_stages, phase);
  return homogeneous(std::move(wave), static_mu_stages);
}

SimulationInputs SimulationInputs::from_variation_source(
    std::shared_ptr<const variation::VariationSource> source,
    double setpoint_c, variation::DiePoint ro_location, std::size_t tdc_grid) {
  ROCLK_CHECK(source != nullptr, "null variation source");
  ROCLK_CHECK(tdc_grid >= 1, "need at least one TDC");

  std::vector<variation::DiePoint> sites;
  sites.reserve(tdc_grid * tdc_grid);
  for (std::size_t ix = 0; ix < tdc_grid; ++ix) {
    for (std::size_t iy = 0; iy < tdc_grid; ++iy) {
      sites.push_back(
          {(static_cast<double>(ix) + 0.5) / static_cast<double>(tdc_grid),
           (static_cast<double>(iy) + 0.5) / static_cast<double>(tdc_grid)});
    }
  }

  SimulationInputs inputs;
  inputs.e_ro = [source, setpoint_c, ro_location](double t) {
    return setpoint_c * source->at(t, ro_location);
  };
  // The loop reacts to the *worst* sensor; the slowest site (largest v)
  // produces the smallest tau, so e_tdc tracks the maximum variation.
  inputs.e_tdc = [source, setpoint_c, sites](double t) {
    double worst = -1e300;
    for (const auto& p : sites) worst = std::max(worst, source->at(t, p));
    return setpoint_c * worst;
  };
  inputs.mu = [](double) { return 0.0; };
  return inputs;
}

InputBlock SimulationInputs::sample(std::size_t n, double dt) const {
  return sample_ensemble({this, 1}, n, dt);
}

InputBlock sample_ensemble(std::span<const SimulationInputs> lanes,
                           std::size_t n, double dt, ThreadPool* pool) {
  ROCLK_CHECK(dt > 0.0, "sample period must be positive");
  ROCLK_CHECK(!lanes.empty(), "no lanes");
  InputBlock block;
  block.width = lanes.size();
  block.cycles = n;
  block.e_ro.resize(block.width * n);
  block.e_tdc.resize(block.width * n);
  block.mu.resize(block.width * n);

  // Each task fills a contiguous group of lanes (cycle-major columns), so
  // no two tasks write the same element.  They can write the same cache
  // line, though: the arrays have only the allocator's 16-byte alignment,
  // so where two groups meet in a row the line is shared.  That is false
  // sharing, which costs time, never correctness.
  constexpr std::size_t kLanesPerTask = 8;
  const std::size_t tasks =
      (block.width + kLanesPerTask - 1) / kLanesPerTask;
  const auto fill_group = [&](std::size_t g) {
    const std::size_t first = g * kLanesPerTask;
    const std::size_t last = std::min(first + kLanesPerTask, block.width);
    for (std::size_t k = 0; k < n; ++k) {
      const double t = static_cast<double>(k) * dt;
      const std::size_t row = k * block.width;
      for (std::size_t w = first; w < last; ++w) {
        block.e_ro[row + w] = lanes[w].e_ro(t);
        block.e_tdc[row + w] = lanes[w].e_tdc(t);
        block.mu[row + w] = lanes[w].mu(t);
      }
    }
  };
  if (pool != nullptr) {
    parallel_for(*pool, tasks, fill_group);
  } else {
    for (std::size_t g = 0; g < tasks; ++g) fill_group(g);
  }
  return block;
}

}  // namespace roclk::core
