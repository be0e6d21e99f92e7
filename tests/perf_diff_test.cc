// Tests for obs::DiffBenchReports — the statistically-gated regression
// detector behind tdg_perfdiff. Covers the acceptance contract:
//   * a report diffed against itself is all-unchanged (gate passes);
//   * an injected 2x slowdown fails the gate with a Welch-test-backed
//     regression verdict (p < alpha, bootstrap CI above 1);
//   * the mirror-image improvement verdict;
//   * single-rep reports fall back to the ratio-only gate;
//   * noise below the threshold never trips the gate;
//   * new / missing cases and the gate_case_set option;
//   * option validation and the JSON/table outputs.

#include "obs/perf_diff.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/bench_report.h"
#include "random/rng.h"

namespace tdg::obs {
namespace {

// A structurally valid report with the given per-case samples.
BenchReport MakeReport(
    const std::vector<std::pair<std::string, std::vector<double>>>& cases,
    const std::string& name = "unit_bench") {
  BenchReport report;
  report.bench_name = name;
  report.manifest = RunManifest::Capture(/*seed=*/1);
  for (const auto& [key, samples] : cases) {
    BenchCase bench_case;
    bench_case.key = key;
    bench_case.wall_micros = samples;
    bench_case.objective.assign(samples.size(), 1.0);
    report.cases.push_back(bench_case);
  }
  return report;
}

// `base` micros plus deterministic +-2% jitter, scaled by `scale`.
std::vector<double> NoisySamples(double base, double scale, int reps,
                                 uint64_t seed) {
  random::Rng rng(seed);
  std::vector<double> samples;
  samples.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    samples.push_back(base * scale * (0.98 + 0.04 * rng.NextDouble()));
  }
  return samples;
}

TEST(PerfDiffTest, SelfDiffIsAllUnchangedAndPasses) {
  BenchReport report = MakeReport({
      {"case/a", NoisySamples(5000.0, 1.0, 10, 1)},
      {"case/b", NoisySamples(800.0, 1.0, 10, 2)},
      {"case/single", {1234.0}},
  });
  auto diff = DiffBenchReports(report, report);
  ASSERT_TRUE(diff.ok()) << diff.status();
  EXPECT_FALSE(diff->Failed());
  ASSERT_EQ(diff->cases.size(), 3u);
  for (const PerfCaseDiff& c : diff->cases) {
    EXPECT_EQ(c.verdict, PerfVerdict::kUnchanged) << c.key;
    EXPECT_DOUBLE_EQ(c.ratio, 1.0) << c.key;
  }
  EXPECT_EQ(diff->CountVerdict(PerfVerdict::kUnchanged), 3);
  EXPECT_EQ(diff->CountVerdict(PerfVerdict::kRegression), 0);
}

TEST(PerfDiffTest, InjectedTwoXSlowdownIsAWelchBackedRegression) {
  BenchReport baseline = MakeReport({
      {"case/slow", NoisySamples(5000.0, 1.0, 10, 3)},
      {"case/ok", NoisySamples(900.0, 1.0, 10, 4)},
  });
  BenchReport candidate = MakeReport({
      {"case/slow", NoisySamples(5000.0, 2.0, 10, 5)},  // injected 2x
      {"case/ok", NoisySamples(900.0, 1.0, 10, 6)},
  });
  auto diff = DiffBenchReports(baseline, candidate);
  ASSERT_TRUE(diff.ok()) << diff.status();
  EXPECT_TRUE(diff->Failed());
  EXPECT_EQ(diff->CountVerdict(PerfVerdict::kRegression), 1);

  const PerfCaseDiff& slow = diff->cases[0];
  ASSERT_EQ(slow.key, "case/slow");
  EXPECT_EQ(slow.verdict, PerfVerdict::kRegression);
  EXPECT_NEAR(slow.ratio, 2.0, 0.1);
  // The verdict is statistically backed, not ratio-only.
  EXPECT_TRUE(slow.statistical);
  EXPECT_LT(slow.p_value_slower, 0.05);
  EXPECT_GT(slow.ratio_ci_lower, 1.0);
  EXPECT_GE(slow.ratio_ci_upper, slow.ratio_ci_lower);

  EXPECT_EQ(diff->cases[1].verdict, PerfVerdict::kUnchanged);

  // And the machine-readable verdict says fail.
  auto verdict = diff->ToJson().GetField("verdict");
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->AsString(), "fail");
}

TEST(PerfDiffTest, TwoXSpeedupIsAnImprovementAndPasses) {
  BenchReport baseline = MakeReport({
      {"case/fast", NoisySamples(5000.0, 1.0, 10, 7)},
  });
  BenchReport candidate = MakeReport({
      {"case/fast", NoisySamples(5000.0, 0.5, 10, 8)},
  });
  auto diff = DiffBenchReports(baseline, candidate);
  ASSERT_TRUE(diff.ok()) << diff.status();
  EXPECT_FALSE(diff->Failed());  // improvements never fail the gate
  ASSERT_EQ(diff->cases.size(), 1u);
  EXPECT_EQ(diff->cases[0].verdict, PerfVerdict::kImprovement);
  EXPECT_NEAR(diff->cases[0].ratio, 0.5, 0.05);
}

TEST(PerfDiffTest, SmallNoiseBelowThresholdStaysUnchanged) {
  BenchReport baseline = MakeReport({
      {"case/noisy", NoisySamples(5000.0, 1.0, 10, 9)},
  });
  BenchReport candidate = MakeReport({
      {"case/noisy", NoisySamples(5000.0, 1.03, 10, 10)},  // +3% < 10%
  });
  auto diff = DiffBenchReports(baseline, candidate);
  ASSERT_TRUE(diff.ok()) << diff.status();
  EXPECT_EQ(diff->cases[0].verdict, PerfVerdict::kUnchanged);
  EXPECT_FALSE(diff->Failed());
}

TEST(PerfDiffTest, SingleRepFallsBackToRatioOnlyGate) {
  BenchReport baseline = MakeReport({{"case/one", {1000.0}}});
  BenchReport slow = MakeReport({{"case/one", {2000.0}}});
  BenchReport same = MakeReport({{"case/one", {1000.0}}});

  auto regression = DiffBenchReports(baseline, slow);
  ASSERT_TRUE(regression.ok()) << regression.status();
  ASSERT_EQ(regression->cases.size(), 1u);
  EXPECT_FALSE(regression->cases[0].statistical);
  EXPECT_EQ(regression->cases[0].verdict, PerfVerdict::kRegression);
  EXPECT_TRUE(regression->Failed());

  auto unchanged = DiffBenchReports(baseline, same);
  ASSERT_TRUE(unchanged.ok()) << unchanged.status();
  EXPECT_EQ(unchanged->cases[0].verdict, PerfVerdict::kUnchanged);
  EXPECT_FALSE(unchanged->Failed());
}

TEST(PerfDiffTest, SubMicrosecondMeansNeverGate) {
  // Below the stopwatch resolution floor a 5x "ratio" is noise.
  BenchReport baseline = MakeReport({{"case/tiny", {0.1, 0.1, 0.1}}});
  BenchReport candidate = MakeReport({{"case/tiny", {0.5, 0.5, 0.5}}});
  auto diff = DiffBenchReports(baseline, candidate);
  ASSERT_TRUE(diff.ok()) << diff.status();
  EXPECT_EQ(diff->cases[0].verdict, PerfVerdict::kUnchanged);
}

TEST(PerfDiffTest, CustomThresholdWidensTheGate) {
  BenchReport baseline = MakeReport({
      {"case/a", NoisySamples(1000.0, 1.0, 10, 11)},
  });
  BenchReport candidate = MakeReport({
      {"case/a", NoisySamples(1000.0, 1.5, 10, 12)},  // +50%
  });
  PerfGateOptions loose;
  loose.threshold_ratio = 2.0;  // tolerate up to 2x
  auto diff = DiffBenchReports(baseline, candidate, loose);
  ASSERT_TRUE(diff.ok()) << diff.status();
  EXPECT_EQ(diff->cases[0].verdict, PerfVerdict::kUnchanged);
  EXPECT_FALSE(diff->Failed());
}

TEST(PerfDiffTest, NewAndMissingCasesReportedAndOptionallyGated) {
  BenchReport baseline = MakeReport({
      {"case/kept", {100.0}},
      {"case/removed", {100.0}},
  });
  BenchReport candidate = MakeReport({
      {"case/kept", {100.0}},
      {"case/added", {100.0}},
  });
  auto diff = DiffBenchReports(baseline, candidate);
  ASSERT_TRUE(diff.ok()) << diff.status();
  EXPECT_EQ(diff->CountVerdict(PerfVerdict::kMissingCase), 1);
  EXPECT_EQ(diff->CountVerdict(PerfVerdict::kNewCase), 1);
  EXPECT_FALSE(diff->Failed());  // informational by default

  PerfGateOptions strict;
  strict.gate_case_set = true;
  auto gated = DiffBenchReports(baseline, candidate, strict);
  ASSERT_TRUE(gated.ok()) << gated.status();
  EXPECT_TRUE(gated->Failed());
}

TEST(PerfDiffTest, DeterministicAcrossRepeatedRuns) {
  BenchReport baseline = MakeReport({
      {"case/a", NoisySamples(5000.0, 1.0, 8, 13)},
  });
  BenchReport candidate = MakeReport({
      {"case/a", NoisySamples(5000.0, 1.12, 8, 14)},
  });
  auto first = DiffBenchReports(baseline, candidate);
  auto second = DiffBenchReports(baseline, candidate);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->cases.size(), second->cases.size());
  // Fixed bootstrap seeding: identical inputs give identical CIs.
  EXPECT_DOUBLE_EQ(first->cases[0].ratio_ci_lower,
                   second->cases[0].ratio_ci_lower);
  EXPECT_DOUBLE_EQ(first->cases[0].ratio_ci_upper,
                   second->cases[0].ratio_ci_upper);
  EXPECT_EQ(first->cases[0].verdict, second->cases[0].verdict);
}

TEST(PerfDiffTest, RejectsInvalidOptionsAndReports) {
  BenchReport report = MakeReport({{"case/a", {100.0}}});

  PerfGateOptions bad_threshold;
  bad_threshold.threshold_ratio = 0.9;
  EXPECT_FALSE(DiffBenchReports(report, report, bad_threshold).ok());

  PerfGateOptions bad_alpha;
  bad_alpha.alpha = 1.5;
  EXPECT_FALSE(DiffBenchReports(report, report, bad_alpha).ok());

  BenchReport invalid;  // empty: fails Validate()
  EXPECT_FALSE(DiffBenchReports(invalid, report).ok());
  EXPECT_FALSE(DiffBenchReports(report, invalid).ok());
}

// Attaches a per-rep counter series (v2 profiling data) to a case.
void AttachSeries(BenchReport& report, const std::string& key,
                  const std::string& series,
                  const std::vector<double>& samples) {
  for (BenchCase& bench_case : report.cases) {
    if (bench_case.key == key) {
      bench_case.counter_series[series] = samples;
      return;
    }
  }
  FAIL() << "no case " << key;
}

TEST(PerfDiffTest, InstructionMetricCatchesWorkRegressionWallTimeMisses) {
  // The acceptance scenario: wall time stays flat (the regression hides in
  // run-to-run noise) while retired instructions double. The default wall
  // gate must pass; --metric=instructions must fail.
  BenchReport baseline = MakeReport({
      {"case/hot", NoisySamples(5000.0, 1.0, 10, 21)},
  });
  BenchReport candidate = MakeReport({
      {"case/hot", NoisySamples(5000.0, 1.0, 10, 22)},  // wall unchanged
  });
  AttachSeries(baseline, "case/hot", "perf/total/instructions",
               NoisySamples(1e9, 1.0, 10, 23));
  AttachSeries(candidate, "case/hot", "perf/total/instructions",
               NoisySamples(1e9, 2.0, 10, 24));  // injected 2x instructions
  baseline.perf_backend = "perf_event";
  candidate.perf_backend = "perf_event";
  ASSERT_TRUE(baseline.Validate().ok()) << baseline.Validate();

  auto wall = DiffBenchReports(baseline, candidate);
  ASSERT_TRUE(wall.ok()) << wall.status();
  EXPECT_FALSE(wall->Failed());
  EXPECT_EQ(wall->cases[0].verdict, PerfVerdict::kUnchanged);

  PerfGateOptions instructions;
  instructions.metric = "instructions";
  auto gated = DiffBenchReports(baseline, candidate, instructions);
  ASSERT_TRUE(gated.ok()) << gated.status();
  EXPECT_TRUE(gated->Failed());
  ASSERT_EQ(gated->cases.size(), 1u);
  EXPECT_EQ(gated->cases[0].verdict, PerfVerdict::kRegression);
  EXPECT_NEAR(gated->cases[0].ratio, 2.0, 0.1);
}

TEST(PerfDiffTest, CounterMetricsSkipTheWallResolutionFloor) {
  // The 1us stopwatch floor exists for wall samples only: counter metrics
  // with sub-unit means must still gate (a 5x instruction blowup on a tiny
  // kernel is real work, not timer noise).
  BenchReport baseline = MakeReport({{"case/tiny", {100.0, 100.0}}});
  BenchReport candidate = MakeReport({{"case/tiny", {100.0, 100.0}}});
  AttachSeries(baseline, "case/tiny", "perf/total/instructions",
               {0.1, 0.1});
  AttachSeries(candidate, "case/tiny", "perf/total/instructions",
               {0.5, 0.5});
  PerfGateOptions instructions;
  instructions.metric = "instructions";
  auto diff = DiffBenchReports(baseline, candidate, instructions);
  ASSERT_TRUE(diff.ok()) << diff.status();
  EXPECT_EQ(diff->cases[0].verdict, PerfVerdict::kRegression);
}

TEST(PerfDiffTest, MissingCounterMetricOnAPairedCaseIsAnError) {
  BenchReport report = MakeReport({{"case/a", {100.0, 110.0}}});
  PerfGateOptions options;
  options.metric = "instructions";
  auto diff = DiffBenchReports(report, report, options);
  ASSERT_FALSE(diff.ok());
  // The error tells the user how to record the metric.
  EXPECT_NE(diff.status().ToString().find("--profile"), std::string::npos)
      << diff.status();

  PerfGateOptions empty_metric;
  empty_metric.metric = "";
  EXPECT_FALSE(DiffBenchReports(report, report, empty_metric).ok());
}

TEST(PerfDiffTest, ScalarCounterFallsBackToPerRunPseudoSample) {
  // Reports whose perf totals were accumulated as plain scalar counters
  // (sweep binaries) still support counter gating: value/reps as a single
  // pseudo-sample, gated ratio-only.
  BenchReport baseline = MakeReport({{"case/a", {100.0, 100.0}}});
  BenchReport candidate = MakeReport({{"case/a", {100.0, 100.0}}});
  baseline.cases[0].counters["perf/total/instructions"] = 2000.0;
  candidate.cases[0].counters["perf/total/instructions"] = 6000.0;  // 3x

  PerfGateOptions options;
  options.metric = "instructions";
  auto diff = DiffBenchReports(baseline, candidate, options);
  ASSERT_TRUE(diff.ok()) << diff.status();
  ASSERT_EQ(diff->cases.size(), 1u);
  EXPECT_FALSE(diff->cases[0].statistical);
  EXPECT_EQ(diff->cases[0].verdict, PerfVerdict::kRegression);
  EXPECT_NEAR(diff->cases[0].ratio, 3.0, 1e-9);
  EXPECT_TRUE(diff->Failed());
}

TEST(PerfDiffTest, TableAndJsonNameEveryCase) {
  BenchReport baseline = MakeReport({
      {"case/a", NoisySamples(1000.0, 1.0, 5, 15)},
      {"case/b", NoisySamples(2000.0, 1.0, 5, 16)},
  });
  auto diff = DiffBenchReports(baseline, baseline);
  ASSERT_TRUE(diff.ok()) << diff.status();

  std::string table = diff->ToTable();
  EXPECT_NE(table.find("case/a"), std::string::npos);
  EXPECT_NE(table.find("case/b"), std::string::npos);
  EXPECT_NE(table.find("unchanged"), std::string::npos);

  util::JsonValue json = diff->ToJson();
  auto cases = json.GetField("cases");
  ASSERT_TRUE(cases.ok());
  EXPECT_EQ(cases->AsArray().size(), 2u);
  auto verdict = json.GetField("verdict");
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->AsString(), "pass");
}

}  // namespace
}  // namespace tdg::obs
