#include "sarif.hpp"

#include <array>
#include <cstdint>
#include <sstream>

namespace roclk::lint {

namespace {

/// FNV-1a, the same cheap stable hash the rest of the tooling uses.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string hex16(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = digits[value & 0xF];
    value >>= 4;
  }
  return out;
}

/// Collapses all whitespace runs so reformatting does not change a
/// finding's fingerprint.
std::string normalize_ws(std::string_view text) {
  std::string out;
  bool pending_space = false;
  for (const char c : text) {
    if (c == ' ' || c == '\t' || c == '\r') {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    out += c;
  }
  return out;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* digits = "0123456789abcdef";
          out += "\\u00";
          out += digits[(c >> 4) & 0xF];
          out += digits[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct RuleInfo {
  const char* id;
  const char* description;
};

/// Every rule either pass family can emit, in stable order — the SARIF
/// driver.rules array and the docs both derive from this list.
constexpr std::array<RuleInfo, 19> kRules{{
    {"round", "std::round family bypasses the ties-away contract"},
    {"rng", "raw C/std randomness instead of a keyed CounterRng"},
    {"naked-new", "owning raw new/delete"},
    {"endl", "std::endl forces a flush"},
    {"pragma-once", "header missing #pragma once"},
    {"simd-include", "vendor intrinsics outside the simd.hpp shim"},
    {"socket-include", "socket headers outside service/transport"},
    {"layer-include", "include edge violates the module layering DAG"},
    {"layer-dag", "the layering adjacency table itself is cyclic"},
    {"include-cycle", "cyclic header include chain"},
    {"wall-clock", "wall-clock source in deterministic library code"},
    {"sleep", "wall-clock sleeping outside the retry backoff module"},
    {"env-source", "environment read in deterministic library code"},
    {"tag-unregistered", "StreamKey tag missing from the DESIGN.md registry"},
    {"tag-duplicate", "StreamKey tag registered twice"},
    {"tag-orphaned", "registered StreamKey tag no library code derives"},
    {"naked-lock", "direct mutex lock()/unlock() instead of a RAII guard"},
    {"dead-mutex", "header mutex member never guarded by any TU"},
    {"lock-order", "second mutex acquired while one is held"},
}};

int rule_index(std::string_view id) {
  for (std::size_t i = 0; i < kRules.size(); ++i) {
    if (id == kRules[i].id) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

std::string finding_fingerprint(const Finding& finding,
                                std::string_view line_text) {
  const std::string normalized = normalize_ws(line_text);
  const std::string context =
      normalized.empty() ? std::to_string(finding.line) : normalized;
  return finding.rule + ":" + finding.file.generic_string() + ":" +
         hex16(fnv1a(context));
}

std::vector<AnnotatedFinding> annotate_findings(
    const std::vector<Finding>& findings,
    const std::function<std::string(const std::filesystem::path&,
                                    std::size_t)>& line_of) {
  std::vector<AnnotatedFinding> out;
  out.reserve(findings.size());
  for (const auto& finding : findings) {
    AnnotatedFinding annotated;
    annotated.finding = finding;
    annotated.fingerprint = finding_fingerprint(
        finding, line_of ? line_of(finding.file, finding.line) : "");
    out.push_back(std::move(annotated));
  }
  return out;
}

std::string to_sarif(const std::vector<AnnotatedFinding>& findings) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"roclk_lint\",\n"
      << "          \"informationUri\": "
         "\"docs/static_analysis.md\",\n"
      << "          \"version\": \"2.0.0\",\n"
      << "          \"rules\": [\n";
  for (std::size_t i = 0; i < kRules.size(); ++i) {
    out << "            {\"id\": \"" << kRules[i].id
        << "\", \"shortDescription\": {\"text\": \""
        << json_escape(kRules[i].description) << "\"}}"
        << (i + 1 < kRules.size() ? ",\n" : "\n");
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const auto& f = findings[i];
    out << "        {\n"
        << "          \"ruleId\": \"" << json_escape(f.finding.rule)
        << "\",\n";
    const int index = rule_index(f.finding.rule);
    if (index >= 0) out << "          \"ruleIndex\": " << index << ",\n";
    out << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \""
        << json_escape(f.finding.message) << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": {\"uri\": \""
        << json_escape(f.finding.file.generic_string()) << "\"},\n"
        << "                \"region\": {\"startLine\": "
        << (f.finding.line == 0 ? 1 : f.finding.line) << "}\n"
        << "              }\n"
        << "            }\n"
        << "          ],\n"
        << "          \"partialFingerprints\": {\"roclkFingerprint/v1\": \""
        << json_escape(f.fingerprint) << "\"}\n"
        << "        }" << (i + 1 < findings.size() ? ",\n" : "\n");
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace roclk::lint
