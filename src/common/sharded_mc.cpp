#include "roclk/common/sharded_mc.hpp"

namespace roclk::mc {

void keyed_for(std::size_t items, StreamKey key, ThreadPool* pool,
               const std::function<void(std::size_t, StreamKey)>& fn) {
  if (items == 0) return;
  if (pool == nullptr || pool->size() <= 1) {
    for (std::size_t i = 0; i < items; ++i) fn(i, key.at(i));
    return;
  }
  parallel_for(*pool, items, [&](std::size_t i) { fn(i, key.at(i)); });
}

std::vector<double> keyed_map(
    std::size_t items, StreamKey key, ThreadPool* pool,
    const std::function<double(std::size_t, StreamKey)>& fn) {
  std::vector<double> out(items);
  keyed_for(items, key, pool,
            [&](std::size_t i, StreamKey item_key) {
              out[i] = fn(i, item_key);
            });
  return out;
}

}  // namespace roclk::mc
