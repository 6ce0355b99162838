// lead_lint end-to-end: every rule fires on its seeded fixture, the
// allow-marker suppresses, clean code passes, and the real source tree
// is lint-clean. Exercised through the real binary (path injected by
// CMake), same pattern as cli_test.
#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

namespace {

#ifndef LEAD_LINT_PATH
#define LEAD_LINT_PATH ""
#endif
#ifndef LEAD_LINT_FIXTURE_DIR
#define LEAD_LINT_FIXTURE_DIR ""
#endif
#ifndef LEAD_LINT_SOURCE_DIR
#define LEAD_LINT_SOURCE_DIR ""
#endif

std::string LintPath() { return LEAD_LINT_PATH; }
std::string FixtureDir() { return LEAD_LINT_FIXTURE_DIR; }
std::string SourceDir() { return LEAD_LINT_SOURCE_DIR; }

// Runs a command, captures combined stdout/stderr, returns exit code.
int RunCommand(const std::string& command, std::string* output) {
  output->clear();
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    *output += buffer;
  }
  const int status = pclose(pipe);
  return WEXITSTATUS(status);
}

class LintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_FALSE(LintPath().empty()) << "LEAD_LINT_PATH not configured";
    ASSERT_FALSE(FixtureDir().empty())
        << "LEAD_LINT_FIXTURE_DIR not configured";
  }

  // Lints one fixture; returns the exit code and fills `output`.
  int LintFixture(const std::string& fixture, std::string* output,
                  const std::string& flags = "") {
    const std::string cmd =
        LintPath() + " " + flags + " " + FixtureDir() + "/" + fixture;
    return RunCommand(cmd, output);
  }

  // A violating fixture must exit 1 and report `rule` at `line` in a
  // machine-readable "file:line rule message" finding.
  void ExpectViolation(const std::string& fixture, const std::string& rule,
                       int line, const std::string& flags = "") {
    std::string out;
    EXPECT_EQ(LintFixture(fixture, &out, flags), 1) << out;
    const std::string expected =
        fixture + ":" + std::to_string(line) + " " + rule + " ";
    EXPECT_NE(out.find(expected), std::string::npos)
        << "expected finding '" << expected << "' in:\n"
        << out;
  }
};

TEST_F(LintTest, EveryRuleFiresOnItsFixture) {
  ExpectViolation("bad_rand.cc", "rand", 4);
  ExpectViolation("bad_raw_rng.cc", "raw-rng", 6);
  ExpectViolation("bad_wall_clock.cc", "wall-clock", 4);
  ExpectViolation("bad_unordered_iter.cc", "unordered-iter", 8);
  ExpectViolation("bad_discarded_status.cc", "discarded-status", 9);
  ExpectViolation("bad_raw_new.cc", "raw-new", 2);
  ExpectViolation("bad_raw_delete.cc", "raw-delete", 2);
  ExpectViolation("bad_float_eq.cc", "float-eq", 3);
  ExpectViolation("bad_matrix_in_kernel.cc", "matrix-in-kernel", 23);
  ExpectViolation("bad_pragma_once.h", "pragma-once", 1);
  ExpectViolation("bad_io_unbounded_loop.cc", "io-unbounded-loop", 9,
                  "--lib");
  ExpectViolation("bad_strategy_chunking.cc", "strategy-chunking", 7,
                  "--lib");
  ExpectViolation("bad_status_path.cc", "status-path", 10);
  ExpectViolation("bad_status_path.cc", "status-path", 16);
  ExpectViolation("bad_lock_scope.cc", "lock-scope", 8, "--lib");
  ExpectViolation("bad_lock_scope.cc", "lock-scope", 10, "--lib");
  ExpectViolation("bad_poll_coverage.cc", "poll-coverage", 9, "--lib");
  ExpectViolation("bad_poll_coverage.cc", "poll-coverage", 12, "--lib");
  ExpectViolation("bad_signal_safety.cc", "signal-safety", 11);
  ExpectViolation("bad_signal_safety.cc", "signal-safety", 12);
  ExpectViolation("bad_signal_safety.cc", "signal-safety", 13);
  ExpectViolation("bad_signal_safety.cc", "signal-safety", 14);
  ExpectViolation("bad_signal_safety.cc", "signal-safety", 15);
  ExpectViolation("bad_libm_in_nn.cc", "libm-in-nn", 6, "--lib");
}

TEST_F(LintTest, SignalSafetyIsGatedByTheScopeMarkerNotTheLibFlag) {
  std::string out;
  // Atomics-only handler code in a marked file is clean, and a marked
  // file may excuse provably-unreachable setup helpers per line.
  EXPECT_EQ(LintFixture("clean_signal_safety.cc", &out), 0) << out;
  EXPECT_EQ(LintFixture("allowed_signal_safety.cc", &out), 0) << out;
  // The same unsafe constructs pass without the marker: the rule follows
  // the file's declaration, not a path- or flag-based gate...
  EXPECT_EQ(LintFixture("unmarked_signal_safety.cc", &out), 0) << out;
  EXPECT_EQ(LintFixture("unmarked_signal_safety.cc", &out, "--lib"), 0)
      << out;
  // ...so the bad fixture fires even without --lib.
  EXPECT_EQ(LintFixture("bad_signal_safety.cc", &out), 1) << out;
}

TEST_F(LintTest, NewRulesStayQuietOnCleanAndAllowedFixtures) {
  std::string out;
  EXPECT_EQ(LintFixture("clean_status_path.cc", &out), 0) << out;
  EXPECT_EQ(LintFixture("allowed_status_path.cc", &out), 0) << out;
  EXPECT_EQ(LintFixture("clean_lock_scope.cc", &out, "--lib"), 0) << out;
  EXPECT_EQ(LintFixture("allowed_lock_scope.cc", &out, "--lib"), 0) << out;
  EXPECT_EQ(LintFixture("clean_poll_coverage.cc", &out, "--lib"), 0) << out;
  EXPECT_EQ(LintFixture("allowed_poll_coverage.cc", &out, "--lib"), 0) << out;
  // lock-scope and poll-coverage are gated to library/core code: the bad
  // fixtures pass when linted as tool/test code (no --lib).
  EXPECT_EQ(LintFixture("bad_lock_scope.cc", &out), 0) << out;
  EXPECT_EQ(LintFixture("bad_poll_coverage.cc", &out), 0) << out;
}

TEST_F(LintTest, JsonOutputReportsFindings) {
  std::string out;
  EXPECT_EQ(LintFixture("bad_status_path.cc", &out, "--json"), 1);
  EXPECT_NE(out.find("\"violations\": ["), std::string::npos) << out;
  EXPECT_NE(out.find("\"rule\": \"status-path\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"line\": 10"), std::string::npos) << out;
  EXPECT_EQ(LintFixture("clean.cc", &out, "--json"), 0);
  EXPECT_NE(out.find("\"violations\": []"), std::string::npos) << out;
}

TEST_F(LintTest, ReportAllowsFlagsDeadMarkers) {
  std::string out;
  // Markers that actually suppress findings are not reported...
  EXPECT_EQ(LintFixture("allowed_status_path.cc", &out, "--report-allows"), 0)
      << out;
  // ...but a marker that suppresses nothing fails the run; without the
  // flag the stale marker is tolerated.
  EXPECT_EQ(LintFixture("dead_allow.cc", &out), 0) << out;
  EXPECT_EQ(LintFixture("dead_allow.cc", &out, "--report-allows"), 1) << out;
  EXPECT_NE(out.find("dead_allow.cc:5 dead-allow allow(raw-new)"),
            std::string::npos)
      << out;
  // JSON mode carries the same report.
  EXPECT_EQ(LintFixture("dead_allow.cc", &out, "--report-allows --json"), 1)
      << out;
  EXPECT_NE(out.find("\"dead_allows\": ["), std::string::npos) << out;
}

TEST_F(LintTest, StrategyChunkingSparesDerivedGrainsAndAllowedLines) {
  // Only the hardcoded-constant call (line 7) fires; the DynamicChunk
  // call, the variable grain, and the allow-marked literal stay quiet —
  // and like the other lib rules, the gate is off without --lib.
  std::string out;
  EXPECT_EQ(LintFixture("bad_strategy_chunking.cc", &out, "--lib"), 1);
  EXPECT_NE(out.find(":7 strategy-chunking"), std::string::npos) << out;
  EXPECT_EQ(out.find(":11 "), std::string::npos) << out;
  EXPECT_EQ(out.find(":16 "), std::string::npos) << out;
  EXPECT_EQ(out.find(":21 "), std::string::npos) << out;
  EXPECT_EQ(LintFixture("bad_strategy_chunking.cc", &out), 0) << out;
}

TEST_F(LintTest, IoUnboundedLoopSparesPolledAndAllowedLoops) {
  // Both unpolled reader loops fire; the polled loop (line 31) and the
  // allow-marked bounded split loop (line 41) stay quiet. Like the
  // lib-only rules, the io gate is off without --lib.
  std::string out;
  EXPECT_EQ(LintFixture("bad_io_unbounded_loop.cc", &out, "--lib"), 1);
  EXPECT_NE(out.find(":9 io-unbounded-loop"), std::string::npos) << out;
  EXPECT_NE(out.find(":19 io-unbounded-loop"), std::string::npos) << out;
  EXPECT_EQ(out.find(":31 "), std::string::npos) << out;
  EXPECT_EQ(out.find(":41 "), std::string::npos) << out;
  EXPECT_EQ(LintFixture("bad_io_unbounded_loop.cc", &out), 0) << out;
}

TEST_F(LintTest, LibmInNnFlagsEveryFamilyAndSparesLookalikes) {
  // Every call in the bad fixture fires: std::-qualified, bare, the f
  // suffix, log1p, the global ::, expm1f and a bare call after return.
  std::string out;
  EXPECT_EQ(LintFixture("bad_libm_in_nn.cc", &out, "--lib"), 1);
  for (const char* line : {":6 ", ":7 ", ":8 ", ":9 ", ":10 ", ":14 "}) {
    EXPECT_NE(out.find(std::string(line) + "libm-in-nn"), std::string::npos)
        << line << " in:\n" << out;
  }
  // Declarations, member calls, other namespaces, identifiers that are
  // not called and project vmath calls stay quiet; the allow marker
  // suppresses.
  EXPECT_EQ(LintFixture("clean_libm_in_nn.cc", &out, "--lib"), 0) << out;
  EXPECT_EQ(LintFixture("allowed_libm_in_nn.cc", &out, "--lib --report-allows"),
            0)
      << out;
  // Gated to src/nn (or --lib): the same calls pass as tool/test code.
  EXPECT_EQ(LintFixture("bad_libm_in_nn.cc", &out), 0) << out;
}

TEST_F(LintTest, MatrixInKernelSparesNonKernelsAndAllowedLines) {
  // The fixture's allow-marked kernel (line 28) and its plain helper
  // (line 35) must not be reported; only the bare kernel temp is.
  std::string out;
  EXPECT_EQ(LintFixture("bad_matrix_in_kernel.cc", &out), 1);
  EXPECT_EQ(out.find(":28 "), std::string::npos) << out;
  EXPECT_EQ(out.find(":35 "), std::string::npos) << out;
}

TEST_F(LintTest, LibOnlyRulesNeedTheLibFlag) {
  ExpectViolation("bad_cout_in_lib.cc", "cout-in-lib", 5, "--lib");
  ExpectViolation("bad_exit_in_lib.cc", "exit-in-lib", 5, "--lib");
  ExpectViolation("bad_stderr_in_lib.cc", "stderr", 6, "--lib");
  ExpectViolation("bad_stderr_in_lib.cc", "stderr", 7, "--lib");
  // Without --lib the same files are treated as tool/test code and pass.
  std::string out;
  EXPECT_EQ(LintFixture("bad_cout_in_lib.cc", &out), 0) << out;
  EXPECT_EQ(LintFixture("bad_exit_in_lib.cc", &out), 0) << out;
  EXPECT_EQ(LintFixture("bad_stderr_in_lib.cc", &out), 0) << out;
}

TEST_F(LintTest, AllowMarkerSuppressesFindings) {
  std::string out;
  EXPECT_EQ(LintFixture("allowed.cc", &out), 0) << out;
}

TEST_F(LintTest, CleanFixturePasses) {
  std::string out;
  EXPECT_EQ(LintFixture("clean.cc", &out), 0) << out;
}

TEST_F(LintTest, ListRulesCoversEveryRule) {
  std::string out;
  ASSERT_EQ(RunCommand(LintPath() + " --list-rules", &out), 0) << out;
  for (const char* rule :
       {"rand", "raw-rng", "wall-clock", "unordered-iter",
        "discarded-status", "raw-new", "raw-delete", "float-eq",
        "matrix-in-kernel", "cout-in-lib", "exit-in-lib", "stderr",
        "pragma-once", "io-unbounded-loop", "strategy-chunking",
        "status-path", "lock-scope", "poll-coverage", "signal-safety",
        "libm-in-nn"}) {
    EXPECT_NE(out.find(rule), std::string::npos) << "missing rule " << rule;
  }
}

TEST_F(LintTest, RealSourceTreeIsClean) {
  ASSERT_FALSE(SourceDir().empty()) << "LEAD_LINT_SOURCE_DIR not configured";
  std::string out;
  // --report-allows keeps the suppression inventory honest: a marker
  // whose finding was fixed must be removed with it.
  const std::string cmd = "cd " + SourceDir() + " && " + LintPath() +
                          " --report-allows src tests bench cli tools";
  EXPECT_EQ(RunCommand(cmd, &out), 0) << out;
}

}  // namespace
