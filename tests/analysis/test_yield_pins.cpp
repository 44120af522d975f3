// Bitwise pins of the yield Monte-Carlo.
//
// The expected hashes below were recorded from the original worst-path
// sampler (one Floorplan and one WithinDieProcess per chip).  Any rewrite
// of the sampler must reproduce them exactly: the same draws, in the same
// order, under the same StreamKey tags.  A changed hash means the yield
// answers changed, which also changes the ext_yield CSVs and every yield
// response the service has journaled.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "roclk/analysis/yield.hpp"
#include "roclk/common/stream_key.hpp"
#include "roclk/common/thread_pool.hpp"

namespace roclk::analysis {
namespace {

/// FNV-1a over the bytes of every value, in order.
class BitHash {
 public:
  void add(double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (bits >> (8 * byte)) & 0xFFu;
      state_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_{0xCBF29CE484222325ULL};
};

constexpr std::uint64_t kCorpusSeed = 0x59E1D0C0FFEEULL;
constexpr std::size_t kCorpusConfigs = 42;

/// Config k of the pinned corpus.  Path counts cycle through 1 .. 300 so
/// the corpus always holds single-path chips and chips with >= 256 paths;
/// every fifth config has no within-die variation; configs 0 and 1 sit on
/// the depth range's ends (8 and 200 stages).
YieldConfig corpus_config(std::size_t k) {
  constexpr std::size_t kPaths[] = {1, 3, 16, 64, 100, 256, 300};
  CounterRng rng{StreamKey{kCorpusSeed}.at(k)};
  YieldConfig cfg;
  cfg.chips = 100 + rng.uniform_int(1000);
  cfg.paths = kPaths[k % std::size(kPaths)];
  cfg.nominal_depth = 8.0 + 192.0 * rng.uniform();
  if (k == 0) cfg.nominal_depth = 8.0;
  if (k == 1) cfg.nominal_depth = 200.0;
  cfg.d2d_sigma = 0.1 * rng.uniform();
  cfg.wid_sigma = k % 5 == 0 ? 0.0 : 0.08 * rng.uniform();
  cfg.rnd_sigma = 0.05 * rng.uniform();
  cfg.seed = rng();
  return cfg;
}

TEST(YieldPins, SampleWorstPathsCorpusHash) {
  BitHash hash;
  std::size_t chips = 0;
  for (std::size_t k = 0; k < kCorpusConfigs; ++k) {
    const YieldConfig cfg = corpus_config(k);
    const std::vector<double> worst =
        sample_worst_paths(cfg, &ThreadPool::shared());
    ASSERT_EQ(worst.size(), cfg.chips);
    for (const double w : worst) hash.add(w);
    chips += worst.size();
  }
  EXPECT_EQ(chips, 25157u);
  EXPECT_EQ(hash.value(), 3464492679750941907ULL);
}

TEST(YieldPins, DefaultConfigTenThousandChipsHash) {
  YieldConfig cfg;
  cfg.chips = 10000;
  const std::vector<double> worst =
      sample_worst_paths(cfg, &ThreadPool::shared());
  BitHash hash;
  for (const double w : worst) hash.add(w);
  EXPECT_EQ(hash.value(), 1831069673021422092ULL);
}

TEST(YieldPins, SequentialSamplingMatchesThePin) {
  // The pool never leaks into the samples (DESIGN.md §13): the strictly
  // sequential run of one corpus config hashes like the pooled one.
  const YieldConfig cfg = corpus_config(5);
  BitHash sequential;
  for (const double w : sample_worst_paths(cfg, nullptr)) sequential.add(w);
  BitHash pooled;
  for (const double w : sample_worst_paths(cfg, &ThreadPool::shared())) {
    pooled.add(w);
  }
  EXPECT_EQ(sequential.value(), pooled.value());
  EXPECT_EQ(sequential.value(), 4095596468159030010ULL);
}

}  // namespace
}  // namespace roclk::analysis
