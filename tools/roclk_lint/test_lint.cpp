// Unit tests for the repo-specific linter.  Banned constructs below only
// ever appear inside string literals, which the linter strips before
// matching — so this file itself stays clean under roclk_lint.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace roclk::lint {
namespace {

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

TEST(StripTest, RemovesCommentsAndStringsKeepingLines) {
  const std::string source =
      "int a; // std::endl in a comment\n"
      "const char* s = \"new int[3]\";\n"
      "/* block\n   comment */ int b;\n";
  const std::string stripped = strip_comments_and_strings(source);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(source.begin(), source.end(), '\n'));
  EXPECT_EQ(stripped.find("endl"), std::string::npos);
  EXPECT_EQ(stripped.find("new int"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(StripTest, HandlesRawStringsAndEscapes) {
  const std::string source =
      "auto r = R\"(delete p; new X;)\";\n"
      "char c = '\\\"'; int keep = 1;\n";
  const std::string stripped = strip_comments_and_strings(source);
  EXPECT_EQ(stripped.find("delete"), std::string::npos);
  EXPECT_NE(stripped.find("int keep = 1;"), std::string::npos);
}

TEST(LintTest, FlagsStdRoundOutsideMathHeader) {
  const auto findings =
      lint_source("src/foo.cpp", "double d = std::round(x);\n");
  ASSERT_TRUE(has_rule(findings, "round"));
  EXPECT_NE(findings.front().message.find("round_ties_away"),
            std::string::npos);
  EXPECT_TRUE(lint_source("include/roclk/common/math.hpp",
                          "#pragma once\ndouble d = std::llround(x);\n")
                  .empty());
}

TEST(LintTest, FlagsTiesToEvenRoundingOutsideMathHeader) {
  // nearbyint and rint round by the current mode (ties to even by
  // default), against the ties-away contract, as do their integer forms.
  for (const std::string name : {"nearbyint", "rint", "lrint", "llrint"}) {
    SCOPED_TRACE(name);
    const auto findings =
        lint_source("src/foo.cpp", "auto d = std::" + name + "(x);\n");
    ASSERT_TRUE(has_rule(findings, "round"));
    EXPECT_NE(findings.front().message.find(
                  name.front() == 'l' ? "llround_ties_away" : "round_ties_away"),
              std::string::npos);
    EXPECT_TRUE(lint_source("include/roclk/common/math.hpp",
                            "#pragma once\nauto d = std::" + name + "(x);\n")
                    .empty());
  }
}

TEST(LintTest, FlagsRawRandomnessOutsideRng) {
  // rand, random_device, <random> and the std engines and distributions
  // are findings in every file; no path is exempt.
  EXPECT_TRUE(has_rule(lint_source("src/foo.cpp", "int r = rand();\n"),
                       "rng"));
  EXPECT_TRUE(has_rule(
      lint_source("src/foo.cpp", "std::random_device rd;\n"), "rng"));
  EXPECT_TRUE(has_rule(
      lint_source("src/core/foo.cpp", "#include <random>\n"), "rng"));
  EXPECT_TRUE(has_rule(lint_source("src/core/foo.cpp", "std::mt19937 g;\n"),
                       "rng"));
  EXPECT_TRUE(has_rule(
      lint_source("bench/foo.cpp", "std::normal_distribution<double> d;\n"),
      "rng"));
  EXPECT_TRUE(has_rule(
      lint_source("include/roclk/common/rng.hpp",
                  "#pragma once\ninline int r() { return rand(); }\n"),
      "rng"));
  // Identifiers merely containing "rand" are not findings.
  EXPECT_TRUE(lint_source("src/foo.cpp", "int grand(int); grand(2);\n")
                  .empty());
}

TEST(LintTest, IncludeOfNewHeaderIsNotNakedNew) {
  EXPECT_FALSE(has_rule(lint_source("src/foo.cpp", "#include <new>\n"),
                        "naked-new"));
}

TEST(LintTest, FlagsNakedNewAndDelete) {
  EXPECT_TRUE(has_rule(lint_source("src/foo.cpp", "auto* p = new int;\n"),
                       "naked-new"));
  EXPECT_TRUE(
      has_rule(lint_source("src/foo.cpp", "delete p;\n"), "naked-new"));
  // Deleted special members and operator overloads are not ownership.
  EXPECT_TRUE(lint_source("src/foo.cpp", "Foo(const Foo&) = delete;\n")
                  .empty());
  EXPECT_TRUE(
      lint_source("src/foo.cpp", "void operator delete(void*);\n").empty());
  EXPECT_TRUE(
      lint_source("src/foo.cpp", "int new_length = 3;\n").empty());
}

TEST(LintTest, FlagsEndlAndMissingPragmaOnce) {
  EXPECT_TRUE(has_rule(
      lint_source("src/foo.cpp", "std::cout << x << std::endl;\n"), "endl"));
  EXPECT_TRUE(has_rule(lint_source("include/foo.hpp", "int x;\n"),
                       "pragma-once"));
  EXPECT_TRUE(
      lint_source("include/foo.hpp", "#pragma once\nint x;\n").empty());
  // .cpp files need no pragma.
  EXPECT_FALSE(has_rule(lint_source("src/foo.cpp", "int x;\n"),
                        "pragma-once"));
}

TEST(LintTest, FaultSourcesMustUseCommonRng) {
  // fault/ sources fall under the same rng rule as every other file.
  for (const auto& findings :
       {lint_source("src/fault/injector.cpp", "#include <random>\n"),
        lint_source("include/roclk/fault/fault.hpp",
                    "#pragma once\nstd::mt19937 gen;\n"),
        lint_source("src/fault/fault.cpp",
                    "std::uniform_int_distribution<int> d(0, 9);\n")}) {
    ASSERT_FALSE(findings.empty());
    for (const auto& f : findings) EXPECT_EQ(f.rule, "rng");
  }
  // A keyed stream is clean.
  EXPECT_TRUE(lint_source("src/fault/fault.cpp",
                          "#include \"roclk/common/stream_key.hpp\"\n"
                          "CounterRng rng{StreamKey{seed}.at(event)};\n")
                  .empty());
}

TEST(LintTest, IntrinsicsHeadersConfinedToSimdShim) {
  // Vendor SIMD headers are findings everywhere...
  EXPECT_TRUE(has_rule(
      lint_source("src/core/fast.cpp", "#include <immintrin.h>\n"),
      "simd-include"));
  EXPECT_TRUE(has_rule(
      lint_source("src/core/fast.cpp", "#include <arm_neon.h>\n"),
      "simd-include"));
  EXPECT_TRUE(has_rule(
      lint_source("include/roclk/osc/ro.hpp",
                  "#pragma once\n#include <emmintrin.h>\n"),
      "simd-include"));
  // ...except inside the dispatch shim itself.
  EXPECT_FALSE(has_rule(lint_source("include/roclk/common/simd.hpp",
                                    "#pragma once\n#include <immintrin.h>\n"
                                    "#include <arm_neon.h>\n"),
                        "simd-include"));
}

TEST(LintTest, SocketHeadersConfinedToServiceTransport) {
  // Raw socket / fd-multiplexing headers are findings everywhere...
  EXPECT_TRUE(has_rule(
      lint_source("src/service/server.cpp", "#include <sys/socket.h>\n"),
      "socket-include"));
  EXPECT_TRUE(has_rule(
      lint_source("tools/roclk_sweepd.cpp", "#include <sys/un.h>\n"),
      "socket-include"));
  EXPECT_TRUE(has_rule(
      lint_source("src/core/foo.cpp", "#include <netinet/in.h>\n"),
      "socket-include"));
  EXPECT_TRUE(has_rule(
      lint_source("src/core/foo.cpp", "#include <arpa/inet.h>\n"),
      "socket-include"));
  EXPECT_TRUE(has_rule(
      lint_source("src/core/foo.cpp", "#include <poll.h>\n"),
      "socket-include"));
  EXPECT_TRUE(has_rule(
      lint_source("src/core/foo.cpp", "#include <sys/epoll.h>\n"),
      "socket-include"));
  EXPECT_TRUE(has_rule(
      lint_source("src/core/foo.cpp", "#include <sys/select.h>\n"),
      "socket-include"));
  // ...except inside the transport layer itself.
  EXPECT_FALSE(has_rule(
      lint_source("src/service/transport.cpp",
                  "#include <sys/socket.h>\n#include <sys/un.h>\n"),
      "socket-include"));
  EXPECT_FALSE(has_rule(
      lint_source("include/roclk/service/transport.hpp",
                  "#pragma once\n#include <sys/socket.h>\n"),
      "socket-include"));
}

TEST(LintTest, InlineWaiverSuppressesNamedRuleOnly) {
  const std::string waived =
      "auto* p = new int;  // roclk-lint: allow(naked-new)\n";
  EXPECT_TRUE(lint_source("src/foo.cpp", waived).empty());
  const std::string wrong_rule =
      "auto* p = new int;  // roclk-lint: allow(endl)\n";
  EXPECT_TRUE(has_rule(lint_source("src/foo.cpp", wrong_rule), "naked-new"));
}

TEST(LintTest, ReportsLineNumbers) {
  const auto findings =
      lint_source("src/foo.cpp", "int a;\nint b;\ndelete p;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().line, 3u);
}

}  // namespace
}  // namespace roclk::lint
