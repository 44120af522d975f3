// Executes one normalized scenario query against the analysis layer.
//
// This is the service's only bridge into the simulation library; the
// server wraps it with caching, coalescing, and admission control, and
// perfbench calls it directly to price a cache miss.  Value layout
// per query kind (also documented in docs/service.md):
//
//   kCornerMargin  [safety_margin, mean_period, relative_adaptive_period,
//                   violations, tau_ripple]                    (5 values)
//   kGridSweep     per point: [x, relative_adaptive_period,
//                   safety_margin]                          (3 x points)
//   kYieldCurve    [mean_worst_path, mean_adaptive_period,
//                   p99_worst_path] then per margin point:
//                   [margin, fixed_yield, adaptive_yield]  (3 + 3 x points)
#pragma once

#include "roclk/common/thread_pool.hpp"
#include "roclk/service/protocol.hpp"
#include "roclk/service/request.hpp"

namespace roclk::service {

/// Runs the simulation for a request already canonicalised by
/// normalize().  Deterministic: the response values are a pure function
/// of the normalized request, bitwise identical for every `pool`
/// (nullptr = strictly sequential) — the property that lets the service
/// serve cached and coalesced responses interchangeably with fresh ones.
/// Exceptions from the simulation layer surface as kInternalError.  Every
/// query kind runs through the memo-free analysis cores
/// (simulate_system, simulate_system_ensemble, yield_curve), so execute()
/// never reads or grows analysis::SweepMemo.
[[nodiscard]] Response execute(const Request& normalized,
                               ThreadPool* pool = nullptr);

}  // namespace roclk::service
