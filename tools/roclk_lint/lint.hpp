// roclk_lint: project-specific static checks the generic toolchain
// cannot express.
//
// The rules encode repo invariants that matter for reproducibility:
//   round       std::round/lround/llround bypass round_ties_away and are
//               only allowed inside common/math.hpp, the one place the
//               tie-breaking contract is defined and tested.
//   rng         rand()/srand()/std::random_device, <random> and the std
//               engines and distributions, in every file: all randomness
//               flows through keyed CounterRng streams
//               (common/stream_key.hpp), so a run is a pure function of
//               its seeds.
//   naked-new   owning raw new/delete; use containers or smart pointers.
//   endl        std::endl flushes on every call; use '\n'.
//   pragma-once every header must start its include guard with
//               #pragma once.
//   socket-include
//               raw socket headers (<sys/socket.h>, <sys/un.h>, poll /
//               select / epoll, inet) are confined to the service
//               transport layer (roclk/service/transport.{hpp,cpp});
//               everything else speaks typed Frame values so protocol
//               logic stays testable without file descriptors.
//
// A finding on a line can be waived with an inline comment naming the
// rule: `// roclk-lint: allow(round)`.  Comments and string/character
// literals are stripped before matching, so prose and patterns (such as
// the ones in this tool's own source) never trigger findings.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace roclk::lint {

struct Finding {
  std::filesystem::path file;
  std::size_t line{0};  // 1-based
  std::string rule;
  std::string message;
};

/// Replaces comments and string/character literals (including raw
/// strings) with spaces, preserving newlines so line numbers survive.
[[nodiscard]] std::string strip_comments_and_strings(std::string_view source);

/// Inline waivers: (1-based line, rule) pairs collected from
/// `roclk-lint: allow(rule[, rule...])` comments in the raw source.
/// Shared by the per-line rules and every project pass.
[[nodiscard]] std::vector<std::pair<std::size_t, std::string>>
collect_waivers(std::string_view source);

/// True when `line` carries a waiver for `rule`.
[[nodiscard]] bool is_waived(
    const std::vector<std::pair<std::size_t, std::string>>& waivers,
    std::size_t line, std::string_view rule);

/// Lints one file's contents.  `display_path` is used both for reporting
/// and for the per-file rule exemptions (math.hpp may round, simd.hpp may
/// include intrinsics, the service transport may include socket headers),
/// so pass a path rooted at the repo.
[[nodiscard]] std::vector<Finding> lint_source(
    const std::filesystem::path& display_path, std::string_view source);

}  // namespace roclk::lint
