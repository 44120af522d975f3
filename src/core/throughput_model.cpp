#include "roclk/core/throughput_model.hpp"

#include <algorithm>

namespace roclk::core {

ThroughputReport evaluate_throughput(const SimulationTrace& trace,
                                     const ThroughputConfig& config,
                                     std::size_t skip) {
  ROCLK_CHECK(config.logic_depth > 0.0, "logic depth must be positive");
  ROCLK_CHECK(config.replay_penalty_cycles >= 0.0,
                "replay penalty cannot be negative");
  ROCLK_CHECK(skip <= trace.size(), "skip exceeds trace length");

  ThroughputReport report;
  const auto& tau = trace.tau();
  const auto& t_dlv = trace.delivered_period();
  for (std::size_t i = skip; i < trace.size(); ++i) {
    ++report.cycles;
    report.total_time_stages += t_dlv[i];
    if (tau[i] < config.logic_depth) ++report.errors;
  }
  report.useful_cycles =
      std::max(0.0, static_cast<double>(report.cycles) -
                        config.replay_penalty_cycles *
                            static_cast<double>(report.errors));
  if (report.total_time_stages > 0.0) {
    report.throughput_ops_per_stage =
        report.useful_cycles / report.total_time_stages;
  }
  // Ideal: one op per logic_depth stages.
  report.efficiency = report.throughput_ops_per_stage * config.logic_depth;
  return report;
}

SimulationTrace run_with_governor(LoopSimulator& simulator,
                                  control::SetpointGovernor& governor,
                                  const SimulationInputs& inputs,
                                  std::size_t n) {
  // Sampled at the set-point the call starts with; the governor then
  // moves the set-point every cycle, so the loop steps one cycle at a time.
  const InputBlock block = inputs.sample(n, simulator.config().setpoint_c);
  simulator.set_setpoint(governor.setpoint());
  SimulationTrace trace;
  trace.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const StepRecord record =
        simulator.step(block.e_ro[k], block.e_tdc[k], block.mu[k]);
    trace.push(record);
    simulator.set_setpoint(governor.observe(record.tau));
  }
  return trace;
}

}  // namespace roclk::core
