// SARIF 2.1.0 emission.
//
// Fingerprints make findings stable across unrelated edits: a finding
// is identified by (rule, file, hash of the whitespace-normalized line
// text), never by line number — inserting a line above a historical
// finding does not change its fingerprint, so a dashboard reading the
// SARIF log's partialFingerprints keeps the finding's history.  Every
// finding gates.
#pragma once

#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "lint.hpp"

namespace roclk::lint {

struct AnnotatedFinding {
  Finding finding;
  std::string fingerprint;
};

/// `line_text` is the raw source line the finding anchors to (empty if
/// unavailable; the fingerprint then degrades to rule+file+line).
[[nodiscard]] std::string finding_fingerprint(const Finding& finding,
                                              std::string_view line_text);

/// Computes fingerprints.  `line_of` maps (repo-relative path, 1-based
/// line) to the raw line text; return "" when unknown.
[[nodiscard]] std::vector<AnnotatedFinding> annotate_findings(
    const std::vector<Finding>& findings,
    const std::function<std::string(const std::filesystem::path&,
                                    std::size_t)>& line_of);

/// Serializes findings as a SARIF 2.1.0 log (one run, tool `roclk_lint`,
/// every finding a `result` with rule metadata and partialFingerprints).
[[nodiscard]] std::string to_sarif(
    const std::vector<AnnotatedFinding>& findings);

}  // namespace roclk::lint
