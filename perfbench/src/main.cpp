// roclk_perfbench: one benchmark process.
//
//   roclk_perfbench run    --workload W --seed N --seconds S [--trace]
//                          [--workdir D] [--spans F] [--fingerprints F]
//   roclk_perfbench setup  --workload W --seed N [--workdir D]
//   roclk_perfbench verify --workload W --seed N --fingerprints F
//   roclk_perfbench rung   --rung execute|handle|session --seed N
//
// Each process prints one JSON object as its last stdout line.  Run it
// through perfbench/run.py, which builds it, starts the processes a
// workload needs (every run and every ladder rung in a fresh process, so
// no cache starts warm) and prints the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "roclk/analysis/sweep_cache.hpp"
#include "roclk/common/simd.hpp"

namespace perfbench {

std::size_t host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

JsonLine record_header(const Options& options, std::size_t threads_used) {
  JsonLine json;
  json.str("mode", options.mode)
      .str("workload", to_string(options.workload))
      .count("seed", options.seed)
      .str("simd_backend", roclk::simd::to_string(roclk::simd::active_backend()))
      .count("hardware_concurrency", host_threads())
      .count("threads", threads_used);
  return json;
}

void add_memo_stats(JsonLine& json) {
  const roclk::analysis::SweepMemoStats s =
      roclk::analysis::SweepMemo::global().stats();
  const std::size_t lookups = s.hits + s.misses;
  json.count("analysis_memo_hits", s.hits)
      .count("analysis_memo_misses", s.misses)
      .count("analysis_memo_entries", s.entries)
      .num("analysis_memo_hit_ratio",
           lookups == 0 ? 0.0
                        : static_cast<double>(s.hits) /
                              static_cast<double>(lookups));
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: roclk_perfbench run|setup|verify|rung --workload "
               "mc_campaign|serve_hot|serve_cold --seed N [--seconds S] "
               "[--trace] [--workdir DIR] [--spans FILE] "
               "[--fingerprints FILE] [--rung NAME]\n");
  return 2;
}

bool parse(int argc, char** argv, perfbench::Options& options) {
  if (argc < 2) return false;
  options.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag{argv[i]};
    if (flag == "--trace") {
      options.trace = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      const auto w = perfbench::parse_workload(value);
      if (!w) return false;
      options.workload = *w;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else if (flag == "--fingerprints") {
      options.fingerprints_path = value;
    } else if (flag == "--rung") {
      options.rung = value;
    } else {
      return false;
    }
  }
  return options.mode == "run" || options.mode == "setup" ||
         options.mode == "verify" || options.mode == "rung";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse(argc, argv, options)) return usage();
  try {
    if (options.mode == "rung") return perfbench::run_rung(options);
    if (options.mode == "verify") return perfbench::verify_serve(options);
    if (options.workload == perfbench::Workload::kMcCampaign) {
      return perfbench::run_mc_campaign(options);
    }
    return perfbench::run_serve(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roclk_perfbench: %s\n", e.what());
    return 1;
  }
}
