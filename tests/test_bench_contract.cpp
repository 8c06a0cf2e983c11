// CLI contract of the bench_to_json binary's --check mode: a missing,
// unreadable or corrupt baseline is a usage error — exit 2 with the
// offending path on stderr, BEFORE any measurement runs (fail-fast: the
// error must surface in well under the multi-second measurement pass).
// Drift stays exit 1 and is covered by the tier-1 bench_baseline ctest.
// The checked-in baseline itself must meet every study gate.
//
// CMake injects the binary path as VECFD_BENCH_TO_JSON_BIN and the
// baseline path as VECFD_BENCH_BASELINE.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

namespace {

namespace fs = std::filesystem;

const std::string kBin = VECFD_BENCH_TO_JSON_BIN;

struct RunResult {
  int exit_code = -1;
  std::string stderr_text;
  double seconds = 0.0;
};

RunResult run_args(const std::string& args) {
  const std::string cmd = kBin + " " + args + " 2>&1 1>/dev/null";
  const auto t0 = std::chrono::steady_clock::now();
  FILE* p = popen(cmd.c_str(), "r");
  EXPECT_NE(p, nullptr);
  RunResult r;
  char buf[256];
  while (p != nullptr && fgets(buf, sizeof buf, p) != nullptr) {
    r.stderr_text += buf;
  }
  if (p != nullptr) {
    const int rc = pclose(p);
    r.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  return r;
}

RunResult run_check(const std::string& baseline_path) {
  return run_args("--check " + baseline_path);
}

fs::path write_temp(const std::string& name, const std::string& content) {
  const fs::path path = fs::temp_directory_path() / name;
  std::ofstream os(path, std::ios::binary);
  os << content;
  return path;
}

TEST(BenchContract, MissingBaselineExitsTwoNamingThePath) {
  const std::string path =
      (fs::temp_directory_path() / "vecfd_no_such_baseline.json").string();
  fs::remove(path);
  const RunResult r = run_check(path);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find(path), std::string::npos)
      << "stderr must name the offending path:\n"
      << r.stderr_text;
}

TEST(BenchContract, CorruptBaselineWithoutSchemaMarkerExitsTwo) {
  const fs::path path = write_temp("vecfd_corrupt_baseline.json",
                                   "{ \"benches\": { \"b\": { \"m\": 1 } } }\n");
  const RunResult r = run_check(path.string());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find(path.string()), std::string::npos)
      << r.stderr_text;
  EXPECT_NE(r.stderr_text.find("vecfd-bench-v1"), std::string::npos)
      << "stderr must say what marker is missing:\n"
      << r.stderr_text;
  fs::remove(path);
}

TEST(BenchContract, TruncatedBaselineWithNoMetricsExitsTwo) {
  // Schema marker present but every metric gone (e.g. a truncated write):
  // must NOT masquerade as "everything drifted" (exit 1).
  const fs::path path = write_temp(
      "vecfd_empty_baseline.json",
      "{\n  \"schema\": \"vecfd-bench-v1\",\n  \"benches\": {\n  }\n}\n");
  const RunResult r = run_check(path.string());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find(path.string()), std::string::npos)
      << r.stderr_text;
  EXPECT_NE(r.stderr_text.find("no numeric metrics"), std::string::npos)
      << r.stderr_text;
  fs::remove(path);
}

TEST(BenchContract, BrokenBaselineFailsBeforeMeasuring) {
  // The whole point of validating up front: the failure must arrive in
  // fractions of a second, not after the measurement pass (which takes
  // multiple seconds even on fast hosts).
  const fs::path path = write_temp("vecfd_fast_fail_baseline.json", "junk\n");
  const RunResult r = run_check(path.string());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_LT(r.seconds, 2.0) << "validation must precede measurement";
  fs::remove(path);
}

TEST(BenchContract, UsageErrorsExitTwo) {
  const RunResult both = run_check("a.json --out b.json");
  EXPECT_EQ(both.exit_code, 2);
}

TEST(BenchContract, StringMetricValueIsCorruptNotANestedBench) {
  // Regression: an unparseable metric VALUE used to be mistaken for a
  // nested-bench opener (only lines ending in '{' open one), silently
  // re-homing every later metric under a phantom bench.  It must be an
  // exit-2 corrupt-baseline error naming the offending line.
  const fs::path path = write_temp(
      "vecfd_string_value_baseline.json",
      "{\n  \"schema\": \"vecfd-bench-v1\",\n  \"benches\": {\n"
      "    \"b\": {\n      \"m\": oops\n    }\n  }\n}\n");
  const RunResult r = run_check(path.string());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stderr_text.find(path.string()), std::string::npos)
      << r.stderr_text;
  EXPECT_NE(r.stderr_text.find("oops"), std::string::npos)
      << "stderr must name the offending line:\n"
      << r.stderr_text;
  fs::remove(path);
}

TEST(BenchContract, NonFiniteBaselineValueIsCorrupt) {
  // A NaN baseline compares false against any measurement, so the drift
  // test `|measured - baseline| > bound` could never fire on it: a
  // baseline metric set to "nan" used to pass --check with exit 0.  It
  // must be an exit-2 corrupt-baseline error naming the line, before any
  // measurement runs.
  for (const std::string bad : {"nan", "inf", "-inf"}) {
    const fs::path path = write_temp(
        "vecfd_nonfinite_baseline.json",
        "{\n  \"schema\": \"vecfd-bench-v1\",\n  \"benches\": {\n"
        "    \"b\": {\n      \"ph9_speedup_vs256\": " + bad +
            "\n    }\n  }\n}\n");
    const RunResult r = run_check(path.string());
    EXPECT_EQ(r.exit_code, 2) << bad;
    EXPECT_NE(r.stderr_text.find("\"ph9_speedup_vs256\": " + bad),
              std::string::npos)
        << "stderr must name the offending line:\n"
        << r.stderr_text;
    EXPECT_LT(r.seconds, 2.0) << "validation must precede measurement";
    fs::remove(path);
  }
}

TEST(BenchContract, CheckedInBaselineMeetsEveryStudyGate) {
  // Each co-design study states its acceptance claims as `gate_*` keys of
  // its section, 1 when met.  --out writes whatever it measures and
  // --check only compares against the file, so without this test a
  // regenerated baseline could pin a failed gate.  The paper_scorecard
  // shape rows are not gates: some of them fail by design (DESIGN.md §11).
  std::ifstream is(VECFD_BENCH_BASELINE);
  ASSERT_TRUE(is) << "cannot read " << VECFD_BENCH_BASELINE;
  std::map<std::string, int> gates;
  std::string section;
  std::string line;
  while (std::getline(is, line)) {
    const auto q1 = line.find('"');
    const auto q2 = q1 == std::string::npos ? q1 : line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    const std::string key = line.substr(q1 + 1, q2 - q1 - 1);
    if (line.back() == '{') {
      section = key;
    } else if (key.starts_with("gate_")) {
      ++gates[section];
      const double value = std::strtod(line.c_str() + q2 + 2, nullptr);
      EXPECT_EQ(value, 1.0) << "failed gate " << section << '.' << key;
    }
  }
  for (const char* study : {"multirhs_speedup", "spmv_format_sweep",
                            "precond_ladder", "shard_scaling",
                            "solve_stage"}) {
    EXPECT_GT(gates[study], 0) << study << " states no gate_* key";
  }
  EXPECT_EQ(gates.count("paper_scorecard"), 0u);
}

}  // namespace
