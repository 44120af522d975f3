// Fingerprint and SARIF tests, including the end-to-end
// seeded-violation fixture tree the acceptance criteria call for.
#include "sarif.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "passes.hpp"
#include "project.hpp"
#include "registry.hpp"

namespace roclk::lint {
namespace {

namespace fs = std::filesystem;

Finding make_finding() {
  return {"src/core/loop.cpp", 7, "wall-clock", "steady_clock in library"};
}

TEST(FingerprintTest, StableAcrossLineNumbersAndWhitespace) {
  Finding a = make_finding();
  Finding b = make_finding();
  b.line = 99;  // an edit above the finding moved it
  const std::string text = "auto t = std::chrono::steady_clock::now();";
  const std::string reformatted =
      "  auto  t =\tstd::chrono::steady_clock::now();";
  EXPECT_EQ(finding_fingerprint(a, text), finding_fingerprint(b, text));
  EXPECT_EQ(finding_fingerprint(a, text),
            finding_fingerprint(a, reformatted));
}

TEST(FingerprintTest, DistinguishesRuleFileAndContent) {
  const Finding a = make_finding();
  Finding other_rule = make_finding();
  other_rule.rule = "env-source";
  Finding other_file = make_finding();
  other_file.file = "src/core/trace.cpp";
  const std::string text = "auto t = now();";
  EXPECT_NE(finding_fingerprint(a, text),
            finding_fingerprint(other_rule, text));
  EXPECT_NE(finding_fingerprint(a, text),
            finding_fingerprint(other_file, text));
  EXPECT_NE(finding_fingerprint(a, "x"), finding_fingerprint(a, "y"));
}

TEST(SarifTest, EmitsValid210Skeleton) {
  AnnotatedFinding f;
  f.finding = make_finding();
  f.fingerprint = "wall-clock:src/core/loop.cpp:0123456789abcdef";
  AnnotatedFinding other;
  other.finding = make_finding();
  other.finding.rule = "env-source";
  other.fingerprint = "env-source:src/core/loop.cpp:aaaa";
  const std::string sarif = to_sarif({f, other});

  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"roclk_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"wall-clock\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/core/loop.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  EXPECT_NE(sarif.find("\"roclkFingerprint/v1\": \"env-source:src/core/"
                      "loop.cpp:aaaa\""),
            std::string::npos);
  // Every finding gates: none carries a suppression.
  EXPECT_EQ(sarif.find("\"suppressions\""), std::string::npos);
  // Rule metadata is present for every rule the passes can emit.
  EXPECT_NE(sarif.find("\"id\": \"lock-order\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"tag-unregistered\""), std::string::npos);
}

TEST(SarifTest, EscapesJsonMetacharacters) {
  AnnotatedFinding f;
  f.finding = {"src/a.cpp", 1, "endl",
               "message with \"quotes\" and \\backslash\nnewline"};
  f.fingerprint = "endl:src/a.cpp:1";
  const std::string sarif = to_sarif({f});
  EXPECT_NE(sarif.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(sarif.find("\\\\backslash"), std::string::npos);
  EXPECT_NE(sarif.find("\\nnewline"), std::string::npos);
}

TEST(SarifTest, EmptyResultsIsStillValid) {
  const std::string sarif = to_sarif({});
  EXPECT_NE(sarif.find("\"results\": ["), std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
}

// ------------------------------------------------- seeded fixture tree

class FixtureTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path{::testing::TempDir()} / "roclk_lint_fixture";
    fs::remove_all(root_);
    write("include/roclk/core/a.hpp",
          "#pragma once\n#include \"roclk/core/b.hpp\"\n");
    write("include/roclk/core/b.hpp",
          "#pragma once\n#include \"roclk/core/a.hpp\"\n");  // cycle
    write("src/osc/bad.cpp",
          "#include \"roclk/analysis/yield.hpp\"\n"          // back edge
          "auto t = std::chrono::steady_clock::now();\n"     // wall clock
          "auto k = key.split(\"unregistered_tag\");\n"      // tag
          "std::mutex a_;\nstd::mutex b_;\n"
          "void f() { a_.unlock(); }\n"                      // naked unlock
          "void g() {\n"
          "  std::lock_guard la{a_};\n"
          "  { std::lock_guard lb{b_}; }\n"                  // nested
          "}\n"
          "void h() {\n"
          "  std::lock_guard lb{b_};\n"
          "  { std::lock_guard la{a_}; }\n"                  // inverted
          "}\n");
  }

  void write(const std::string& rel, const std::string& text) {
    const fs::path path = root_ / rel;
    fs::create_directories(path.parent_path());
    std::ofstream out{path, std::ios::binary};
    out << text;
  }

  fs::path root_;
};

TEST_F(FixtureTreeTest, AllThreePassesFireAndSarifIsEmitted) {
  const auto files = load_project(root_);
  ASSERT_EQ(files.size(), 3u);

  std::string error;
  const TagRegistry registry = parse_tag_registry(
      "<!-- roclk-lint: stream-key-registry begin -->\n"
      "| tag | owner | derivation |\n"
      "| --- | --- | --- |\n"
      "| analysis.yield | analysis/yield | root |\n"
      "<!-- roclk-lint: stream-key-registry end -->\n",
      &error);
  ASSERT_TRUE(error.empty()) << error;

  const auto findings = check_project(files, &registry, "DESIGN.md");
  const auto count = [&](const char* rule) {
    return std::count_if(findings.begin(), findings.end(),
                         [&](const Finding& f) { return f.rule == rule; });
  };
  EXPECT_EQ(count("include-cycle"), 1);
  EXPECT_EQ(count("layer-include"), 1);
  EXPECT_GE(count("wall-clock"), 1);
  EXPECT_EQ(count("tag-unregistered"), 1);
  EXPECT_EQ(count("naked-lock"), 1);
  EXPECT_GE(count("lock-order"), 2);  // nested + inverted

  const auto annotated = annotate_findings(
      findings,
      [&](const fs::path& path, std::size_t line) -> std::string {
        for (const auto& file : files) {
          if (file.path != path) continue;
          std::istringstream in{file.text};
          std::string text;
          for (std::size_t n = 1; std::getline(in, text); ++n) {
            if (n == line) return text;
          }
        }
        return {};
      });
  const std::string sarif = to_sarif(annotated);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"include-cycle\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"layer-include\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"tag-unregistered\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"naked-lock\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"lock-order\""), std::string::npos);
}

}  // namespace
}  // namespace roclk::lint
