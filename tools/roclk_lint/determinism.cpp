// Pass 2: determinism audit.  The reproduction's core claim is that a
// simulation is a pure function of (config, StreamKey): bit-for-bit
// identical across scalar/SIMD/sharded/service paths.  Two things break
// that silently — reading ambient state (wall clocks, environment
// variables) and deriving an RNG substream from a tag string nobody
// registered (a later duplicate tag then aliases two streams).  This
// pass bans the former in library code and cross-checks the latter
// against the DESIGN.md §13 registry, both ways: no unregistered tag in
// the code, no registered tag without a call site.
//
// Allowlist: tools/, bench/, examples/, tests/ (drivers measure real
// time by design) and the service transport TU (its poll bound needs a
// real clock).  Anything else carries a one-line justified waiver.
#include <cctype>
#include <regex>
#include <set>
#include <sstream>

#include "passes.hpp"

namespace roclk::lint {

namespace {

bool path_ends_with(const std::filesystem::path& path, std::string_view tail) {
  const std::string s = path.generic_string();
  return s.size() >= tail.size() &&
         s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

bool is_allowlisted(const SourceFile& file) {
  if (scope_of(file.path) != Scope::kLibrary) return true;
  return path_ends_with(file.path, "service/transport.hpp") ||
         path_ends_with(file.path, "service/transport.cpp");
}

/// `time(` as a free-function call: not a member (`t.time(`), not a
/// qualified name tail (`::time(` is caught separately as std::time),
/// not part of a longer identifier (`wall_time(`).
bool is_free_time_call(const std::string& line, std::size_t pos) {
  if (pos > 0) {
    const char before = line[pos - 1];
    if (std::isalnum(static_cast<unsigned char>(before)) || before == '_' ||
        before == '.' || before == '>') {
      return false;
    }
  }
  std::size_t after = pos + 4;
  while (after < line.size() && line[after] == ' ') ++after;
  return after < line.size() && line[after] == '(';
}

}  // namespace

std::vector<Finding> check_determinism(
    const std::vector<SourceFile>& files, const TagRegistry* registry,
    const std::filesystem::path& registry_path) {
  std::vector<Finding> findings;

  static const std::regex kClock{
      R"(\b(system_clock|steady_clock|high_resolution_clock)\b)"};
  static const std::regex kClockCall{
      R"(\b(gettimeofday|clock_gettime|timespec_get|localtime|gmtime)\s*\()"};
  static const std::regex kStdTime{R"(std\s*::\s*time\s*\()"};
  static const std::regex kEnv{
      R"(\b(getenv|secure_getenv|setenv|putenv|unsetenv)\s*\()"};
  static const std::regex kSleep{
      R"(\b(sleep_for|sleep_until|nanosleep|usleep|sleep)\s*\()"};
  static const std::regex kSplitTag{R"(\bsplit\s*\(\s*"([^"]*)\")"};

  // --- wall-clock / env-source over comment-and-string-stripped text.
  for (const auto& file : files) {
    if (is_allowlisted(file)) continue;
    // Blocking the calling thread is a failure-handling decision, and
    // those are replayable only where the wait goes through an
    // injectable hook.  Real sleeping is confined to the retry backoff
    // module (and the transport TU via the allowlist above).
    const bool may_sleep = path_ends_with(file.path, "service/retry.cpp");
    const auto waivers = collect_waivers(file.text);
    const std::string stripped = strip_comments_and_strings(file.text);
    std::istringstream in{stripped};
    std::string line;
    for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
      std::smatch match;
      if (std::regex_search(line, match, kClock) &&
          !is_waived(waivers, lineno, "wall-clock")) {
        findings.push_back(
            {file.path, lineno, "wall-clock",
             "std::chrono::" + match[1].str() +
                 " makes results depend on when the code ran; library "
                 "simulations must be pure functions of their inputs "
                 "(timing belongs in bench/ or tools/)"});
      }
      if (std::regex_search(line, match, kClockCall) &&
          !is_waived(waivers, lineno, "wall-clock")) {
        findings.push_back({file.path, lineno, "wall-clock",
                            match[1].str() +
                                "() reads the wall clock; library code "
                                "must stay deterministic"});
      }
      bool std_time = std::regex_search(line, kStdTime);
      if (!std_time) {
        for (std::size_t pos = line.find("time"); pos != std::string::npos;
             pos = line.find("time", pos + 1)) {
          if (is_free_time_call(line, pos)) {
            std_time = true;
            break;
          }
        }
      }
      if (std_time && !is_waived(waivers, lineno, "wall-clock")) {
        findings.push_back({file.path, lineno, "wall-clock",
                            "time() reads the wall clock; library code "
                            "must stay deterministic"});
      }
      if (!may_sleep && std::regex_search(line, match, kSleep) &&
          !is_waived(waivers, lineno, "sleep")) {
        findings.push_back(
            {file.path, lineno, "sleep",
             match[1].str() +
                 "() blocks on the wall clock; real sleeping is confined "
                 "to service/retry.cpp and the transport TU — take an "
                 "injectable sleep hook (ResilientClientConfig::sleep_ms, "
                 "TransportFaultConfig::stall_hook) so tests replay "
                 "without waiting"});
      }
      if (std::regex_search(line, match, kEnv) &&
          !is_waived(waivers, lineno, "env-source")) {
        findings.push_back(
            {file.path, lineno, "env-source",
             match[1].str() +
                 "() makes behaviour depend on the process environment; "
                 "pass configuration explicitly (env overrides belong to "
                 "app scope or carry a justified waiver)"});
      }
    }
  }

  if (registry == nullptr) return findings;

  // --- tag-duplicate: a tag registered twice aliases two streams.
  std::set<std::string> seen;
  for (const auto& entry : registry->entries) {
    if (!seen.insert(entry.tag).second) {
      findings.push_back({registry_path, entry.line, "tag-duplicate",
                          "StreamKey tag `" + entry.tag +
                              "` is registered more than once; two owners "
                              "deriving the same tag alias their streams"});
    }
  }

  // --- tag-unregistered: every split("...") literal in library code
  // must appear in the registry.  Comment-only stripping keeps the
  // string contents visible while prose stays inert.
  std::set<std::string> used;
  for (const auto& file : files) {
    if (scope_of(file.path) != Scope::kLibrary) continue;
    const auto waivers = collect_waivers(file.text);
    const std::string stripped = strip_comments_only(file.text);
    std::istringstream in{stripped};
    std::string line;
    for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
      for (auto it = std::sregex_iterator(line.begin(), line.end(), kSplitTag);
           it != std::sregex_iterator{}; ++it) {
        const std::string tag = (*it)[1].str();
        used.insert(tag);
        if (registry->has_tag(tag)) continue;
        if (is_waived(waivers, lineno, "tag-unregistered")) continue;
        findings.push_back(
            {file.path, lineno, "tag-unregistered",
             "StreamKey tag `" + tag +
                 "` is not in the DESIGN.md stream-key registry; register "
                 "it (machine-readable block in §13) so no later caller "
                 "can alias the stream"});
      }
    }
  }

  // --- tag-orphaned: a row whose tag no library split("...") uses any
  // more documents a stream nobody derives, and would let a later,
  // unrelated caller take the tag as if it were still owned.
  for (const auto& entry : registry->entries) {
    if (used.count(entry.tag) != 0) continue;
    findings.push_back({registry_path, entry.line, "tag-orphaned",
                        "StreamKey tag `" + entry.tag +
                            "` is registered but no split(\"" + entry.tag +
                            "\") in library code derives it; delete the "
                            "row with its last call site"});
  }

  return findings;
}

}  // namespace roclk::lint
