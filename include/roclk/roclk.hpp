// roclk — variation-tolerant self-adaptive clock generation based on a ring
// oscillator.  C++20 reproduction of Pérez-Puigdemont, Calomarde & Moll,
// IEEE SOCC 2012.
//
// Umbrella header: pulls in the whole public API.  Prefer including the
// per-module headers in code that cares about compile times.
#pragma once

// Foundations.
#include "roclk/common/ascii_plot.hpp"
#include "roclk/common/fixed_point.hpp"
#include "roclk/common/flags.hpp"
#include "roclk/common/math.hpp"
#include "roclk/common/rng.hpp"
#include "roclk/common/stats.hpp"
#include "roclk/common/status.hpp"
#include "roclk/common/table.hpp"
#include "roclk/common/thread_pool.hpp"

// Discrete-time signal processing.
#include "roclk/signal/filter.hpp"
#include "roclk/signal/jury.hpp"
#include "roclk/signal/polynomial.hpp"
#include "roclk/signal/roots.hpp"
#include "roclk/signal/spectrum.hpp"
#include "roclk/signal/transfer_function.hpp"
#include "roclk/signal/waveform.hpp"

// PVTA variation models and die geometry.
#include "roclk/chip/clock_domain.hpp"
#include "roclk/chip/floorplan.hpp"
#include "roclk/variation/scenario.hpp"
#include "roclk/variation/sources.hpp"
#include "roclk/variation/spatial_map.hpp"
#include "roclk/variation/variation.hpp"

// Hardware blocks.
#include "roclk/cdn/cdn.hpp"
#include "roclk/osc/jitter.hpp"
#include "roclk/osc/ring_oscillator.hpp"
#include "roclk/osc/stage_chain.hpp"
#include "roclk/power/voltage_model.hpp"
#include "roclk/sensor/tdc.hpp"
#include "roclk/sensor/thermometer.hpp"

// Fault injection.
#include "roclk/fault/fault.hpp"
#include "roclk/fault/injector.hpp"

// Controllers.
#include "roclk/control/calibration.hpp"
#include "roclk/control/constraints.hpp"
#include "roclk/control/control_block.hpp"
#include "roclk/control/hardened_control.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/control/sensor_guard.hpp"
#include "roclk/control/setpoint_governor.hpp"
#include "roclk/control/teatime.hpp"
#include "roclk/control/watchdog.hpp"

// The adaptive clock systems and simulators.
#include "roclk/core/edge_simulator.hpp"
#include "roclk/core/gate_level_simulator.hpp"
#include "roclk/core/inputs.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/core/throughput_model.hpp"
#include "roclk/core/trace.hpp"

// Metrics, analytics and the paper's experiments.
#include "roclk/analysis/analytic.hpp"
#include "roclk/analysis/estimation.hpp"
#include "roclk/analysis/experiments.hpp"
#include "roclk/analysis/fault_metrics.hpp"
#include "roclk/analysis/frequency_response.hpp"
#include "roclk/analysis/iir_design.hpp"
#include "roclk/analysis/metrics.hpp"
#include "roclk/analysis/multi_domain.hpp"
#include "roclk/analysis/stability_metrics.hpp"
#include "roclk/analysis/yield.hpp"
