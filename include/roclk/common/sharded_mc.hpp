// Sharded Monte-Carlo driver over splittable stream keys.
//
// The contract (DESIGN.md §13): a keyed Monte-Carlo is a pure function of
// its StreamKey, *independent of how it is scheduled*.  Every item i of a
// study draws from its own substream key.at(i), so a shard that owns items
// [b, e) regenerates exactly its slice of the study from the key alone —
// no draw-order coupling with any other shard.  Results are written into
// per-item slots and merged in index order, so the outcome is bit-identical
// at 1 thread or N threads.
//
// keyed_for(pool=nullptr) is the reference "single-stream" execution: the
// same per-item work run strictly sequentially.  The scheduling-invariance
// tests (tests/analysis/test_mc_sharding.cpp) gate that every pool size
// reproduces it bitwise.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "roclk/common/stream_key.hpp"
#include "roclk/common/thread_pool.hpp"

namespace roclk::mc {

/// Runs fn(i, key.at(i)) for every i in [0, items).  `pool` == nullptr
/// runs strictly sequentially (the single-stream reference order); a pool
/// distributes items across its workers.  fn must write any output into
/// its own per-item slot; under that discipline the results are identical
/// for every pool size.
void keyed_for(std::size_t items, StreamKey key, ThreadPool* pool,
               const std::function<void(std::size_t, StreamKey)>& fn);

/// keyed_for collecting one double per item, in index order — the
/// deterministic-merge pattern used by the yield Monte-Carlo.
[[nodiscard]] std::vector<double> keyed_map(
    std::size_t items, StreamKey key, ThreadPool* pool,
    const std::function<double(std::size_t, StreamKey)>& fn);

}  // namespace roclk::mc
