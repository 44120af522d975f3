#include "roclk/core/loop_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "roclk/common/math.hpp"
#include "roclk/control/hardened_control.hpp"
#include "roclk/control/iir_control.hpp"

namespace roclk::core {

Status LoopSimulator::validate(const LoopConfig& config, bool has_controller) {
  if (config.setpoint_c <= 0.0) {
    std::ostringstream os;
    os << "set-point must be positive, got c=" << config.setpoint_c;
    return Status::invalid_argument(os.str());
  }
  if (config.cdn_delay_stages < 0.0) {
    std::ostringstream os;
    os << "CDN delay cannot be negative, got t_clk="
       << config.cdn_delay_stages;
    return Status::invalid_argument(os.str());
  }
  if (!std::isfinite(config.cdn_delay_stages)) {
    std::ostringstream os;
    os << "CDN delay must be finite, got t_clk=" << config.cdn_delay_stages;
    return Status::invalid_argument(os.str());
  }
  if (config.min_length < 1 || config.max_length < config.min_length) {
    std::ostringstream os;
    os << "invalid l_RO range [" << config.min_length << ", "
       << config.max_length << "]: need 1 <= min <= max";
    return Status::invalid_argument(os.str());
  }
  if (config.mode == GeneratorMode::kControlledRo && !has_controller) {
    return Status::invalid_argument("controlled mode requires a controller");
  }
  if (config.open_loop_period && *config.open_loop_period <= 0.0) {
    return Status::invalid_argument("open-loop period must be positive");
  }
  if (config.tdc_max_reading && *config.tdc_max_reading < 1) {
    return Status::invalid_argument("TDC max_reading must be >= 1");
  }
  // The loop compares tau against the set-point every cycle; a TDC chain
  // shorter than c saturates below the set-point and could never report
  // "period OK" — a mis-sized chain must fail loudly at construction.
  const auto tdc = detail::tdc_config_for(config);
  if (static_cast<double>(tdc.max_reading) < config.setpoint_c) {
    std::ostringstream os;
    os << "TDC chain too short for the set-point: max_reading="
       << tdc.max_reading << " < c=" << config.setpoint_c;
    return Status::invalid_argument(os.str());
  }
  return Status::ok();
}

namespace detail {

std::size_t cdn_history_for(const LoopConfig& config) {
  return static_cast<std::size_t>(
             std::max(64.0, 8.0 * config.cdn_delay_stages /
                                static_cast<double>(config.min_length))) +
         2;
}

sensor::TdcConfig tdc_config_for(const LoopConfig& config) {
  sensor::TdcConfig tdc;
  tdc.quantization = config.tdc_quantization;
  // Dynamic mu is injected per step instead of via mismatch_stages.
  tdc.max_reading = config.tdc_max_reading.value_or(std::int64_t{1} << 20);
  return tdc;
}

double equilibrium_for(const LoopConfig& config) {
  return config.mode == GeneratorMode::kControlledRo
             ? config.setpoint_c
             : config.open_loop_period.value_or(config.setpoint_c);
}

}  // namespace detail

namespace {

osc::RingOscillatorConfig make_ro_config(const LoopConfig& config) {
  osc::RingOscillatorConfig ro;
  ro.min_length = config.min_length;
  ro.max_length = config.max_length;
  const double initial = config.open_loop_period.value_or(config.setpoint_c);
  ro.initial_length = static_cast<std::int64_t>(llround_ties_away(initial));
  ro.initial_length =
      std::clamp(ro.initial_length, ro.min_length, ro.max_length);
  return ro;
}

}  // namespace

LoopSimulator::LoopSimulator(LoopConfig config,
                             std::unique_ptr<control::ControlBlock> controller)
    : config_{config},
      controller_{std::move(controller)},
      ro_{make_ro_config(config_)},
      cdn_{config_.cdn_delay_stages, detail::cdn_history_for(config_),
           config_.cdn_quantization},
      tdc_{detail::tdc_config_for(config_)} {
  ROCLK_CHECK_OK(validate(config_, controller_ != nullptr));
  reset();
}

void LoopSimulator::set_setpoint(double setpoint_c) {
  ROCLK_CHECK(setpoint_c > 0.0,
              "set-point must be positive, got c=" << setpoint_c);
  ROCLK_CHECK(static_cast<double>(tdc_.config().max_reading) >= setpoint_c,
              "TDC chain too short for the new set-point: max_reading="
                  << tdc_.config().max_reading << " < c=" << setpoint_c);
  config_.setpoint_c = setpoint_c;
}

void LoopSimulator::attach_faults(const fault::FaultSchedule& schedule) {
  injector_.emplace(schedule);
}

void LoopSimulator::reset() {
  const double equilibrium = detail::equilibrium_for(config_);
  if (controller_) controller_->reset(equilibrium);
  ro_.set_length(static_cast<std::int64_t>(llround_ties_away(equilibrium)));
  cdn_.reset(equilibrium);
  prev_lro_ = equilibrium;
  prev_t_dlv_ = equilibrium;
  prev_e_ro_ = 0.0;
  prev_e_tdc_ = 0.0;
  prev_mu_ = 0.0;
  if (injector_) injector_->reset();
  cycle_ = 0;
  isolated_ = false;
  frozen_ = StepRecord{};
}

template <typename ControlFn>
StepRecord LoopSimulator::step_impl(double e_ro, double e_tdc, double mu,
                                    ControlFn&& control_step) {
  if (isolated_) {
    // Once isolated the loop is frozen: the last good record repeats so a
    // poisoned signal can never reach downstream metrics.
    ++cycle_;
    return frozen_;
  }
  fault::CycleFaults faults;
  if (injector_) faults = injector_->begin_cycle(cycle_);
  ++cycle_;

  StepRecord record;

  // TDC (one-cycle latency): measure the period delivered last cycle under
  // last cycle's local conditions.
  // tau = quantise(T_dlv - e_tdc + mu): fold mu into the additive reading.
  record.tau = tdc_.measure_additive(prev_t_dlv_, prev_e_tdc_ - prev_mu_);
  // Violation is judged on the TRUE reading, before any sensor fault: a
  // corrupted mux changes what the controller sees, not whether timing was
  // actually met on the die.
  record.violation = record.tau < config_.setpoint_c;
  if (faults.any) {
    // Sensor-mux faults (precedence resolved by the injector).  A faulted
    // reading still passes through the chain's physical saturation.
    const auto max_reading =
        static_cast<double>(tdc_.config().max_reading);
    if (faults.tau_stuck) {
      record.tau = std::clamp(faults.tau_stuck_value, 0.0, max_reading);
    } else if (faults.tau_dropped) {
      record.tau = 0.0;  // the capture register missed the edge
    } else if (faults.tau_glitch != 0.0) {
      record.tau =
          std::clamp(record.tau + faults.tau_glitch, 0.0, max_reading);
    }
  }
  record.delta = config_.setpoint_c - record.tau;

  // Controller / generator.
  double lro_now = prev_lro_;
  switch (config_.mode) {
    case GeneratorMode::kControlledRo: {
      const double commanded = control_step(record.delta);
      if (config_.quantize_lro) {
        lro_now = static_cast<double>(
            ro_.set_length(static_cast<std::int64_t>(llround_ties_away(commanded))));
      } else {
        lro_now = std::clamp(commanded,
                             static_cast<double>(config_.min_length),
                             static_cast<double>(config_.max_length));
      }
      break;
    }
    case GeneratorMode::kFreeRunningRo:
    case GeneratorMode::kFixedClock:
      lro_now = config_.open_loop_period.value_or(config_.setpoint_c);
      break;
  }
  record.lro = lro_now;

  // RO (one-cycle latency on both the length and the local variation, per
  // eq. 5's e(z) z^-1 path).  A fixed clock ignores on-die variation.
  // An active stage failure steps the l_RO -> period mapping.
  const double e_at_ro =
      config_.mode == GeneratorMode::kFixedClock ? 0.0 : prev_e_ro_;
  double t_gen = prev_lro_ + e_at_ro;
  if (faults.any && faults.ro_offset != 0.0) t_gen += faults.ro_offset;
  record.t_gen = std::max(1.0, t_gen);

  // CDN.  A delivery drop swallows the leaf edge: the registers observe a
  // doubled period this cycle, while the tree's pipeline is unaffected.
  record.t_dlv = cdn_.push(record.t_gen);
  if (faults.any && faults.cdn_drop) record.t_dlv *= 2.0;

  // Advance the delay registers.  A supply droop slows the whole die: both
  // the RO and the TDC chain see the extra stages next cycle.
  prev_lro_ = lro_now;
  prev_t_dlv_ = record.t_dlv;
  prev_e_ro_ = e_ro;
  prev_e_tdc_ = e_tdc;
  prev_mu_ = mu;
  if (faults.any && faults.droop != 0.0) {
    prev_e_ro_ += faults.droop;
    prev_e_tdc_ += faults.droop;
  }

  if (injector_ && !injector_->schedule().empty()) {
    // Lane isolation: faulted dynamics must degrade, never poison.  A
    // non-physical signal freezes the loop at the last good record.  An
    // empty schedule leaves the loop fault-free, isolation included, as
    // it leaves an ensemble lane.
    if (!std::isfinite(record.tau) || !std::isfinite(record.t_dlv) ||
        record.t_dlv <= 0.0) {
      isolated_ = true;
      return frozen_;
    }
    frozen_ = record;
  }
  return record;
}

StepRecord LoopSimulator::step(double e_ro, double e_tdc, double mu) {
  return step_impl(e_ro, e_tdc, mu,
                   [this](double delta) { return controller_->step(delta); });
}

SimulationTrace LoopSimulator::run(const SimulationInputs& inputs,
                                   std::size_t n) {
  return run_batch(inputs.sample(n, config_.setpoint_c));
}

SimulationTrace LoopSimulator::run_batch(const InputBlock& block) {
  ROCLK_CHECK(block.width == 1,
              "run_batch runs one lane, the block has " << block.width);
  const std::size_t n = block.cycles;
  ROCLK_CHECK(block.e_ro.size() == n && block.e_tdc.size() == n &&
                  block.mu.size() == n,
              "ragged input block");
  SimulationTrace trace;
  trace.reserve(n);
  const double* const e_ro = block.e_ro.data();
  const double* const e_tdc = block.e_tdc.data();
  const double* const mu = block.mu.data();
  // The arithmetic is shared with step() via step_impl to keep the two
  // paths bit-identical.  For the common controller the virtual dispatch
  // is hoisted out of the loop: IirControlHardware is final with an inline
  // step(), so the whole datapath fuses into this loop body.
  if (auto* iir =
          dynamic_cast<control::IirControlHardware*>(controller_.get())) {
    for (std::size_t k = 0; k < n; ++k) {
      trace.push(step_impl(e_ro[k], e_tdc[k], mu[k],
                           [iir](double delta) { return iir->step(delta); }));
    }
    return trace;
  }
  for (std::size_t k = 0; k < n; ++k) {
    trace.push(step(e_ro[k], e_tdc[k], mu[k]));
  }
  return trace;
}

LoopSimulator make_iir_system(double setpoint_c, double cdn_delay_stages) {
  LoopConfig config;
  config.setpoint_c = setpoint_c;
  config.cdn_delay_stages = cdn_delay_stages;
  config.mode = GeneratorMode::kControlledRo;
  return LoopSimulator{config, std::make_unique<control::IirControlHardware>(
                                   control::paper_iir_config())};
}

LoopSimulator make_hardened_iir_system(double setpoint_c,
                                       double cdn_delay_stages) {
  LoopConfig config;
  config.setpoint_c = setpoint_c;
  config.cdn_delay_stages = cdn_delay_stages;
  config.mode = GeneratorMode::kControlledRo;

  control::HardenedConfig hardened;
  hardened.setpoint_c = setpoint_c;
  // Degraded command: the slowest clock the RO can make always meets
  // timing, so it is the safe park position.
  hardened.safe_lro = static_cast<double>(config.max_length);
  // Plausibility bounds scale with the operating point: a locked loop
  // reads tau ~ c, and die time constants bound the per-cycle slew.
  hardened.guard.tau_min = 0.5 * setpoint_c;
  hardened.guard.tau_max = 2.0 * setpoint_c;
  hardened.guard.max_step = std::max(4.0, 0.25 * setpoint_c);
  hardened.watchdog.delta_bound = std::max(4.0, 0.25 * setpoint_c);
  hardened.watchdog.relock_bound = 2.0;
  // Fast detection: the guard's z^-1 means the inner IIR only reacts to a
  // resynced fault one cycle late, so resync + 2 trip cycles snap the loop
  // to the safe park before a corrupted reading can move l_RO.
  hardened.guard.hold_limit = 2;
  hardened.watchdog.trip_cycles = 2;

  auto controller = control::make_hardened_iir(
      control::paper_iir_config(), hardened,
      static_cast<double>(config.min_length),
      static_cast<double>(config.max_length));
  return LoopSimulator{config, std::move(controller)};
}

}  // namespace roclk::core
