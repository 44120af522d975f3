// Unit tests for the project passes (layering, determinism, locks).
// Fixtures are in-memory (path, text) pairs; banned constructs appear
// only inside this file's string literals, so the per-line rules stay
// quiet on the analyzer's own source.
#include "passes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace roclk::lint {
namespace {

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

const Finding* find_rule(const std::vector<Finding>& findings,
                         const std::string& rule) {
  const auto it =
      std::find_if(findings.begin(), findings.end(),
                   [&](const Finding& f) { return f.rule == rule; });
  return it == findings.end() ? nullptr : &*it;
}

TagRegistry small_registry() {
  TagRegistry registry;
  registry.entries.push_back({"analysis.yield", "analysis/yield", "root", 10});
  registry.entries.push_back({"chip", "analysis/yield", "per chip", 11});
  return registry;
}

// ---------------------------------------------------------------- layering

TEST(LayeringTest, FlagsBackEdgeInclude) {
  const std::vector<SourceFile> files = {
      {"src/osc/ring.cpp",
       "#include \"roclk/analysis/yield.hpp\"\nint x;\n"},
  };
  const auto findings = check_layering(files);
  ASSERT_TRUE(has_rule(findings, "layer-include"));
  const Finding* f = find_rule(findings, "layer-include");
  EXPECT_EQ(f->line, 1u);
  EXPECT_NE(f->message.find("`osc` -> `analysis`"), std::string::npos);
  EXPECT_NE(f->message.find("may depend only on"), std::string::npos);
}

TEST(LayeringTest, AllowsDocumentedDependencies) {
  const std::vector<SourceFile> files = {
      {"src/core/loop.cpp",
       "#include \"roclk/control/iir_control.hpp\"\n"
       "#include \"roclk/sensor/tdc.hpp\"\n"
       "#include \"roclk/common/math.hpp\"\n"},
      {"src/service/server.cpp",
       "#include \"roclk/analysis/metrics.hpp\"\n"},
      {"src/variation/sources.cpp",
       "#include \"roclk/signal/waveform.hpp\"\n"},
  };
  EXPECT_TRUE(check_layering(files).empty());
}

TEST(LayeringTest, FlagsServiceReachingBelowAnalysis) {
  const std::vector<SourceFile> files = {
      {"src/service/server.cpp",
       "#include \"roclk/core/loop_simulator.hpp\"\n"},
  };
  EXPECT_TRUE(has_rule(check_layering(files), "layer-include"));
}

TEST(LayeringTest, FlagsUmbrellaIncludeFromLibrary) {
  const std::vector<SourceFile> files = {
      {"src/core/loop.cpp", "#include \"roclk/roclk.hpp\"\n"},
  };
  const auto findings = check_layering(files);
  ASSERT_TRUE(has_rule(findings, "layer-include"));
  EXPECT_NE(find_rule(findings, "layer-include")->message.find("umbrella"),
            std::string::npos);
}

TEST(LayeringTest, AppScopeIsOutsideTheDag) {
  const std::vector<SourceFile> files = {
      {"tools/roclk_sim.cpp", "#include \"roclk/roclk.hpp\"\n"},
      {"bench/runner.cpp", "#include \"roclk/service/server.hpp\"\n"},
  };
  EXPECT_TRUE(check_layering(files).empty());
}

TEST(LayeringTest, WaiverSuppressesBackEdge) {
  const std::vector<SourceFile> files = {
      {"src/osc/ring.cpp",
       "#include \"roclk/analysis/yield.hpp\"  "
       "// roclk-lint: allow(layer-include)\n"},
  };
  EXPECT_TRUE(check_layering(files).empty());
}

TEST(LayeringTest, DetectsIncludeCycleWithChain) {
  const std::vector<SourceFile> files = {
      {"include/roclk/core/a.hpp",
       "#pragma once\n#include \"roclk/core/b.hpp\"\n"},
      {"include/roclk/core/b.hpp",
       "#pragma once\n#include \"roclk/core/c.hpp\"\n"},
      {"include/roclk/core/c.hpp",
       "#pragma once\n#include \"roclk/core/a.hpp\"\n"},
  };
  const auto findings = check_layering(files);
  ASSERT_TRUE(has_rule(findings, "include-cycle"));
  const Finding* f = find_rule(findings, "include-cycle");
  // The chain names every participant, whoever the DFS entered first.
  EXPECT_NE(f->message.find("roclk/core/a.hpp"), std::string::npos);
  EXPECT_NE(f->message.find("roclk/core/b.hpp"), std::string::npos);
  EXPECT_NE(f->message.find("roclk/core/c.hpp"), std::string::npos);
  EXPECT_NE(f->message.find(" -> "), std::string::npos);
}

TEST(LayeringTest, SelfIncludeIsACycle) {
  const std::vector<SourceFile> files = {
      {"include/roclk/core/a.hpp",
       "#pragma once\n#include \"roclk/core/a.hpp\"\n"},
  };
  EXPECT_TRUE(has_rule(check_layering(files), "include-cycle"));
}

TEST(LayeringTest, AcyclicHeadersAreClean) {
  const std::vector<SourceFile> files = {
      {"include/roclk/core/a.hpp",
       "#pragma once\n#include \"roclk/common/math.hpp\"\n"},
      {"include/roclk/common/math.hpp", "#pragma once\n"},
  };
  EXPECT_FALSE(has_rule(check_layering(files), "include-cycle"));
}

// ------------------------------------------------------------- determinism

TEST(DeterminismTest, FlagsWallClockInLibrary) {
  const std::vector<SourceFile> files = {
      {"src/core/loop.cpp",
       "auto t0 = std::chrono::steady_clock::now();\n"},
  };
  const auto findings = check_determinism(files, nullptr);
  ASSERT_TRUE(has_rule(findings, "wall-clock"));
  EXPECT_NE(find_rule(findings, "wall-clock")->message.find("steady_clock"),
            std::string::npos);
}

TEST(DeterminismTest, FlagsTimeCallButNotLookalikes) {
  EXPECT_TRUE(has_rule(
      check_determinism({{"src/core/a.cpp", "auto t = std::time(nullptr);\n"}},
                        nullptr),
      "wall-clock"));
  EXPECT_TRUE(has_rule(
      check_determinism({{"src/core/a.cpp", "auto t = time(nullptr);\n"}},
                        nullptr),
      "wall-clock"));
  // Members, longer identifiers and declarations do not read the clock.
  EXPECT_TRUE(check_determinism(
                  {{"src/core/a.cpp",
                    "double wall_time(int);\nauto v = trace.time();\n"
                    "auto w = sim->time();\nint timer(int);\n"}},
                  nullptr)
                  .empty());
}

TEST(DeterminismTest, FlagsEnvironmentReads) {
  const auto findings = check_determinism(
      {{"src/common/flags.cpp", "const char* v = std::getenv(\"X\");\n"}},
      nullptr);
  ASSERT_TRUE(has_rule(findings, "env-source"));
}

TEST(DeterminismTest, AllowlistsAppScopeAndTransport) {
  const std::vector<SourceFile> files = {
      {"bench/runner.cpp", "auto t = std::chrono::steady_clock::now();\n"},
      {"tools/sweepd.cpp", "const char* v = getenv(\"HOME\");\n"},
      {"src/service/transport.cpp",
       "auto deadline = std::chrono::steady_clock::now();\n"},
      {"include/roclk/service/transport.hpp",
       "#pragma once\nusing Clock = std::chrono::steady_clock;\n"},
  };
  EXPECT_TRUE(check_determinism(files, nullptr).empty());
}

TEST(DeterminismTest, FlagsSleepOutsideTheBackoffModule) {
  const auto findings = check_determinism(
      {{"src/core/loop.cpp",
        "std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"}},
      nullptr);
  ASSERT_TRUE(has_rule(findings, "sleep"));
  EXPECT_NE(find_rule(findings, "sleep")->message.find("sleep_ms"),
            std::string::npos);
  EXPECT_TRUE(has_rule(
      check_determinism({{"src/common/rng.cpp", "nanosleep(&ts, nullptr);\n"}},
                        nullptr),
      "sleep"));
}

TEST(DeterminismTest, SleepIsAllowedWhereRealWaitingLives) {
  // The backoff module owns the default sleep hook; the transport TU and
  // app scope measure real time by design.
  const std::vector<SourceFile> files = {
      {"src/service/retry.cpp",
       "std::this_thread::sleep_for(std::chrono::milliseconds(ms));\n"},
      {"src/service/transport.cpp", "nanosleep(&ts, nullptr);\n"},
      {"bench/soak.cpp", "sleep(1);\n"},
      {"tools/sweepd.cpp", "usleep(100);\n"},
  };
  EXPECT_FALSE(has_rule(check_determinism(files, nullptr), "sleep"));
}

TEST(DeterminismTest, SleepLookalikesAndWaiversAreClean) {
  const std::vector<SourceFile> files = {
      {"src/core/loop.cpp",
       "void maybe_sleep(int);\nauto s = config.sleep_budget;\n"},
      {"src/core/poll.cpp",
       "std::this_thread::sleep_for(tick);  "
       "// roclk-lint: allow(sleep) hardware settle time\n"},
  };
  EXPECT_FALSE(has_rule(check_determinism(files, nullptr), "sleep"));
}

TEST(DeterminismTest, WaiverSuppressesWithJustification) {
  const std::vector<SourceFile> files = {
      {"src/common/simd.cpp",
       "const char* raw = std::getenv(\"ROCLK_SIMD\");  "
       "// roclk-lint: allow(env-source) documented override\n"},
  };
  EXPECT_TRUE(check_determinism(files, nullptr).empty());
}

TEST(DeterminismTest, FlagsUnregisteredTag) {
  const TagRegistry registry = small_registry();
  const auto findings = check_determinism(
      {{"src/analysis/yield.cpp",
        "auto k = root.split(\"analysis.yield\").split(\"oops\");\n"
        "auto c = k.split(\"chip\");\n"}},
      &registry);
  ASSERT_TRUE(has_rule(findings, "tag-unregistered"));
  EXPECT_NE(find_rule(findings, "tag-unregistered")->message.find("`oops`"),
            std::string::npos);
  // The registered tags, one on the same line, are not findings.
  EXPECT_EQ(findings.size(), 1u);
}

TEST(DeterminismTest, RegisteredTagsAndCommentProseAreClean) {
  const TagRegistry registry = small_registry();
  const std::vector<SourceFile> files = {
      {"src/analysis/yield.cpp",
       "// derived as key.split(\"prose_only_tag\") per DESIGN.md\n"
       "auto k = root.split(\"analysis.yield\").split(\"chip\").at(i);\n"},
      {"tests/analysis/test_yield.cpp",
       "auto k = root.split(\"test_scratch\");\n"},  // app scope: exempt
  };
  EXPECT_TRUE(check_determinism(files, &registry).empty());
}

TEST(DeterminismTest, WaiverSuppressesUnregisteredTag) {
  const TagRegistry registry = small_registry();
  const auto findings = check_determinism(
      {{"src/analysis/yield.cpp",
        "auto k = root.split(\"scratch\");  "
        "// roclk-lint: allow(tag-unregistered)\n"
        "auto c = root.split(\"analysis.yield\").split(\"chip\");\n"}},
      &registry);
  EXPECT_TRUE(findings.empty());
}

TEST(DeterminismTest, FlagsOrphanedRegistryRow) {
  // `chip` is registered, but only prose, app-scope code and a
  // lookalike name derive it: the row has no library call site left.
  const TagRegistry registry = small_registry();
  const std::vector<SourceFile> files = {
      {"src/analysis/yield.cpp",
       "// per chip: key.split(\"chip\")\n"
       "auto k = root.split(\"analysis.yield\").resplit(\"chip\");\n"},
      {"tests/analysis/test_yield.cpp", "auto c = k.split(\"chip\");\n"},
  };
  const auto findings = check_determinism(files, &registry, "DESIGN.md");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "tag-orphaned");
  EXPECT_EQ(findings[0].file.generic_string(), "DESIGN.md");
  EXPECT_EQ(findings[0].line, 11u);
  EXPECT_NE(findings[0].message.find("`chip`"), std::string::npos);
}

TEST(DeterminismTest, FlagsDuplicateRegistryTag) {
  TagRegistry registry = small_registry();
  registry.entries.push_back({"chip", "somewhere/else", "alias!", 42});
  const auto findings = check_determinism({}, &registry, "DESIGN.md");
  ASSERT_TRUE(has_rule(findings, "tag-duplicate"));
  const Finding* f = find_rule(findings, "tag-duplicate");
  EXPECT_EQ(f->file.generic_string(), "DESIGN.md");
  EXPECT_EQ(f->line, 42u);
}

// ------------------------------------------------------------------- locks

TEST(LockTest, FlagsNakedLockAndUnlock) {
  const std::vector<SourceFile> files = {
      {"src/core/loop.cpp",
       "std::mutex m_;\n"
       "void f() { m_.lock(); work(); m_.unlock(); }\n"},
  };
  const auto findings = check_locks(files);
  ASSERT_TRUE(has_rule(findings, "naked-lock"));
  EXPECT_EQ(std::count_if(findings.begin(), findings.end(),
                          [](const Finding& f) {
                            return f.rule == "naked-lock";
                          }),
            2);
  EXPECT_NE(find_rule(findings, "naked-lock")->message.find("lock_guard"),
            std::string::npos);
}

TEST(LockTest, GuardCallsAndGuardObjectsAreClean) {
  const std::vector<SourceFile> files = {
      {"src/core/loop.cpp",
       "std::mutex m_;\n"
       "void f() {\n"
       "  std::unique_lock lk{m_};\n"
       "  cv.wait(lk);\n"
       "  lk.unlock();\n"  // unique_lock::unlock is RAII-safe
       "}\n"},
  };
  EXPECT_FALSE(has_rule(check_locks(files), "naked-lock"));
}

TEST(LockTest, WaiverSuppressesNakedLock) {
  const std::vector<SourceFile> files = {
      {"src/core/loop.cpp",
       "std::mutex m_;\n"
       "void f() { m_.lock(); }  // roclk-lint: allow(naked-lock)\n"},
  };
  EXPECT_FALSE(has_rule(check_locks(files), "naked-lock"));
}

TEST(LockTest, FlagsHeaderMutexNobodyGuards) {
  const std::vector<SourceFile> files = {
      {"include/roclk/core/thing.hpp",
       "#pragma once\nclass T { std::mutex mu_;\n int x_; };\n"},
  };
  const auto findings = check_locks(files);
  ASSERT_TRUE(has_rule(findings, "dead-mutex"));
  EXPECT_EQ(find_rule(findings, "dead-mutex")->line, 2u);
}

TEST(LockTest, GuardInAnyTuMarksHeaderMutexLive) {
  const std::vector<SourceFile> files = {
      {"include/roclk/core/thing.hpp",
       "#pragma once\nclass T { std::mutex mu_; };\n"},
      {"src/core/thing.cpp",
       "void T::poke() { std::lock_guard lock{mu_}; }\n"},
  };
  EXPECT_FALSE(has_rule(check_locks(files), "dead-mutex"));
}

TEST(LockTest, LocalMutexesAreNotDeadMutexCandidates) {
  const std::vector<SourceFile> files = {
      {"src/core/thing.cpp", "std::mutex m;\n"},
  };
  EXPECT_FALSE(has_rule(check_locks(files), "dead-mutex"));
}

TEST(LockTest, FlagsSecondAcquisitionWhileHeld) {
  const std::vector<SourceFile> files = {
      {"src/core/loop.cpp",
       "std::mutex a_;\nstd::mutex b_;\n"
       "void f() {\n"
       "  std::lock_guard la{a_};\n"
       "  std::lock_guard lb{b_};\n"
       "}\n"},
  };
  const auto findings = check_locks(files);
  ASSERT_TRUE(has_rule(findings, "lock-order"));
  const Finding* f = find_rule(findings, "lock-order");
  EXPECT_EQ(f->line, 5u);
  EXPECT_NE(f->message.find("`b_`"), std::string::npos);
  EXPECT_NE(f->message.find("`a_`"), std::string::npos);
}

TEST(LockTest, ReportsInvertedOrderAcrossFunctions) {
  const std::vector<SourceFile> files = {
      {"src/core/loop.cpp",
       "std::mutex a_;\nstd::mutex b_;\n"
       "void f() {\n"
       "  std::lock_guard la{a_};\n"
       "  { std::lock_guard lb{b_}; }\n"
       "}\n"
       "void g() {\n"
       "  std::lock_guard lb{b_};\n"
       "  { std::lock_guard la{a_}; }\n"
       "}\n"},
  };
  const auto findings = check_locks(files);
  const auto inverted = std::find_if(
      findings.begin(), findings.end(), [](const Finding& f) {
        return f.rule == "lock-order" &&
               f.message.find("inverted") != std::string::npos;
      });
  ASSERT_NE(inverted, findings.end());
  EXPECT_EQ(inverted->line, 9u);
}

TEST(LockTest, GuardReleaseEndsTheHold) {
  // The coalesced-waiter idiom: drop the flight lock before taking the
  // service lock — sequential, not nested.
  const std::vector<SourceFile> files = {
      {"src/service/server.cpp",
       "std::mutex a_;\nstd::mutex b_;\n"
       "void f() {\n"
       "  std::unique_lock la{a_};\n"
       "  la.unlock();\n"
       "  std::lock_guard lb{b_};\n"
       "}\n"},
  };
  EXPECT_FALSE(has_rule(check_locks(files), "lock-order"));
}

TEST(LockTest, ScopeExitEndsTheHold) {
  const std::vector<SourceFile> files = {
      {"src/core/loop.cpp",
       "std::mutex a_;\nstd::mutex b_;\n"
       "void f() {\n"
       "  { std::lock_guard la{a_}; }\n"
       "  std::lock_guard lb{b_};\n"
       "}\n"},
  };
  EXPECT_FALSE(has_rule(check_locks(files), "lock-order"));
}

TEST(LockTest, WaiverSuppressesLockOrder) {
  const std::vector<SourceFile> files = {
      {"src/core/loop.cpp",
       "std::mutex a_;\nstd::mutex b_;\n"
       "void f() {\n"
       "  std::lock_guard la{a_};\n"
       "  std::lock_guard lb{b_};  // roclk-lint: allow(lock-order)\n"
       "}\n"},
  };
  EXPECT_FALSE(has_rule(check_locks(files), "lock-order"));
}

TEST(LockTest, SameLineGuardAndBlockScopesCorrectly) {
  // A guard declared on the same line as its block must die with the
  // block; its brace initialiser must not pop it early.
  const std::vector<SourceFile> files = {
      {"src/core/loop.cpp",
       "std::mutex a_;\nstd::mutex b_;\n"
       "void f() {\n"
       "  if (x) { std::lock_guard la{a_}; poke(); }\n"
       "  if (y) { std::lock_guard lb{b_}; poke(); }\n"
       "}\n"},
  };
  EXPECT_FALSE(has_rule(check_locks(files), "lock-order"));
}

// ---------------------------------------------------------- check_project

TEST(ProjectTest, RunsAllThreePasses) {
  const TagRegistry registry = small_registry();
  const std::vector<SourceFile> files = {
      {"src/osc/ring.cpp",
       "#include \"roclk/analysis/yield.hpp\"\n"
       "auto t = std::chrono::steady_clock::now();\n"
       "auto k = key.split(\"bogus\");\n"
       "std::mutex m_;\n"
       "void f() { m_.lock(); }\n"},
  };
  const auto findings = check_project(files, &registry, "DESIGN.md");
  EXPECT_TRUE(has_rule(findings, "layer-include"));
  EXPECT_TRUE(has_rule(findings, "wall-clock"));
  EXPECT_TRUE(has_rule(findings, "tag-unregistered"));
  EXPECT_TRUE(has_rule(findings, "naked-lock"));
}

}  // namespace
}  // namespace roclk::lint
