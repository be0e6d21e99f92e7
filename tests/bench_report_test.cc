// Tests for obs::BenchReport / BenchReporter (the --report_out telemetry
// artifact every bench binary emits): accumulation semantics, JSON
// round-trips, structural validation, and counter-delta capture via
// ScopedBenchRep.

#include "obs/bench_report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace tdg::obs {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(BenchReporterTest, OutputPathArgsAndBenchName) {
  BenchReporter reporter;
  EXPECT_FALSE(reporter.enabled());
  reporter.set_bench_name("bench_fig05");
  reporter.set_output_path("/tmp/r.json");
  reporter.set_args({"--report_out=/tmp/r.json", "--csv=p.csv"});
  EXPECT_TRUE(reporter.enabled());
  EXPECT_EQ(reporter.output_path(), "/tmp/r.json");
  BenchReport report = reporter.Build();
  EXPECT_EQ(report.bench_name, "bench_fig05");
  EXPECT_EQ(report.manifest.args,
            (std::vector<std::string>{"--report_out=/tmp/r.json",
                                      "--csv=p.csv"}));
}

TEST(BenchReporterTest, AccumulatesRepsInInsertionOrder) {
  BenchReporter reporter("unit");
  reporter.RecordRep("case/b", 10.0, 1.0);
  reporter.RecordRep("case/a", 20.0, 2.0);
  reporter.RecordRep("case/b", 12.0, 1.5);
  reporter.AddCounter("case/a", "nodes", 100.0);
  reporter.AddCounter("case/a", "nodes", 50.0);

  BenchReport report = reporter.Build();
  ASSERT_EQ(report.cases.size(), 2u);
  EXPECT_EQ(report.cases[0].key, "case/b");  // first-recorded first
  EXPECT_EQ(report.cases[1].key, "case/a");
  ASSERT_EQ(report.cases[0].wall_micros.size(), 2u);
  EXPECT_DOUBLE_EQ(report.cases[0].MeanWallMicros(), 11.0);
  EXPECT_DOUBLE_EQ(report.cases[1].counters.at("nodes"), 150.0);

  reporter.Reset();
  EXPECT_TRUE(reporter.Build().cases.empty());
}

TEST(BenchReportTest, JsonRoundTripAndFileIo) {
  BenchReporter reporter("roundtrip");
  reporter.RecordRep("k1", 100.0, 3.25);
  reporter.RecordRep("k1", 120.0, 3.25);
  reporter.RecordRep("k2", 5.5, -1.0);
  reporter.AddCounter("k2", "steals", 7.0);
  BenchReport report = reporter.Build();
  ASSERT_TRUE(report.Validate().ok()) << report.Validate();

  auto parsed = BenchReport::FromJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->bench_name, "roundtrip");
  ASSERT_EQ(parsed->cases.size(), 2u);
  EXPECT_EQ(parsed->cases[0].key, "k1");
  EXPECT_EQ(parsed->cases[0].wall_micros,
            (std::vector<double>{100.0, 120.0}));
  EXPECT_DOUBLE_EQ(parsed->cases[1].counters.at("steals"), 7.0);
  EXPECT_TRUE(parsed->Validate().ok());

  const std::string path = TempPath("tdg_bench_report_test.json");
  ASSERT_TRUE(report.WriteFile(path).ok());
  auto from_file = BenchReport::ReadFile(path);
  ASSERT_TRUE(from_file.ok()) << from_file.status();
  EXPECT_EQ(from_file->ToJson().Serialize(), report.ToJson().Serialize());
  std::remove(path.c_str());
}

TEST(BenchReportTest, ValidateCatchesStructuralDefects) {
  BenchReporter reporter("validate");
  reporter.RecordRep("ok", 1.0, 2.0);
  BenchReport good = reporter.Build();
  EXPECT_TRUE(good.Validate().ok());

  BenchReport no_cases = good;
  no_cases.cases.clear();
  EXPECT_FALSE(no_cases.Validate().ok());

  BenchReport dup = good;
  dup.cases.push_back(dup.cases[0]);
  EXPECT_FALSE(dup.Validate().ok());

  BenchReport mismatched = good;
  mismatched.cases[0].objective.push_back(1.0);
  EXPECT_FALSE(mismatched.Validate().ok());

  BenchReport negative = good;
  negative.cases[0].wall_micros[0] = -1.0;
  EXPECT_FALSE(negative.Validate().ok());

  BenchReport bad_schema = good;
  bad_schema.schema = "tdg.bench_report.v0";
  EXPECT_FALSE(bad_schema.Validate().ok());
}

TEST(BenchReportTest, FromJsonRejectsMalformedDocuments) {
  EXPECT_FALSE(BenchReport::FromJson(util::JsonValue(1.0)).ok());
  util::JsonValue wrong_schema = util::JsonValue::MakeObject();
  wrong_schema.Set("schema", "nope");
  EXPECT_FALSE(BenchReport::FromJson(wrong_schema).ok());
  // The v1 schema is no longer read.
  BenchReporter reporter("v1");
  reporter.RecordRep("case", 10.0, 1.0);
  util::JsonValue v1 = reporter.Build().ToJson();
  v1.Set("schema", "tdg.bench_report.v1");
  EXPECT_FALSE(BenchReport::FromJson(v1).ok());
}

TEST(ScopedBenchRepTest, RecordsWallTimeObjectiveAndCounterDeltas) {
  const bool metrics_were_enabled = MetricsEnabled();
  SetMetricsEnabled(true);
  Counter& counter =
      MetricsRegistry::Global().GetCounter("bench_report_test/work");
  counter.Reset();

  BenchReporter reporter("scoped");
  {
    ScopedBenchRep rep(reporter, "case");
    counter.Add(17);
    rep.set_objective(2.5);
  }
  // A second scope that bumps nothing must not attach the counter again.
  { ScopedBenchRep rep(reporter, "case"); }

  BenchReport report = reporter.Build();
  ASSERT_EQ(report.cases.size(), 1u);
  const BenchCase& bench_case = report.cases[0];
  ASSERT_EQ(bench_case.wall_micros.size(), 2u);
  EXPECT_GE(bench_case.wall_micros[0], 0.0);
  EXPECT_DOUBLE_EQ(bench_case.objective[0], 2.5);
  EXPECT_DOUBLE_EQ(bench_case.objective[1], 0.0);
  EXPECT_DOUBLE_EQ(bench_case.counters.at("bench_report_test/work"), 17.0);

  counter.Reset();
  SetMetricsEnabled(metrics_were_enabled);
}

TEST(ScopedBenchRepTest, CountersFirstCreatedDuringScopeBaselineAtZero) {
  const bool metrics_were_enabled = MetricsEnabled();
  SetMetricsEnabled(true);
  // Register (and bump) the counter only *inside* the scope: the snapshot
  // taken at scope entry has no entry for it, and the delta must treat that
  // missing before-value as 0 — not skip the counter or underflow.
  const std::string name =
      "bench_report_test/created_in_scope_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  BenchReporter reporter("scoped");
  {
    ScopedBenchRep rep(reporter, "case");
    MetricsRegistry::Global().GetCounter(name).Add(23);
  }
  BenchReport report = reporter.Build();
  ASSERT_EQ(report.cases.size(), 1u);
  ASSERT_EQ(report.cases[0].counters.count(name), 1u);
  EXPECT_DOUBLE_EQ(report.cases[0].counters.at(name), 23.0);

  MetricsRegistry::Global().GetCounter(name).Reset();
  SetMetricsEnabled(metrics_were_enabled);
}

TEST(BenchReportTest, V2RoundTripsCounterSeriesAndBackend) {
  BenchReporter reporter("v2");
  reporter.RecordRep("case", 10.0, 1.0);
  reporter.RecordRep("case", 12.0, 1.5);
  reporter.RecordSeriesValue("case", "perf/total/instructions", 1000.0);
  reporter.RecordSeriesValue("case", "perf/total/instructions", 1010.0);
  reporter.RecordSeriesValue("case", "perf/total/cycles", 400.0);
  reporter.RecordSeriesValue("case", "perf/total/cycles", 420.0);
  reporter.set_perf_backend("perf_event");
  BenchReport report = reporter.Build();
  EXPECT_EQ(report.schema, BenchReport::kSchema);
  ASSERT_TRUE(report.Validate().ok()) << report.Validate();

  auto parsed = BenchReport::FromJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->schema, BenchReport::kSchema);
  EXPECT_EQ(parsed->perf_backend, "perf_event");
  ASSERT_EQ(parsed->cases.size(), 1u);
  EXPECT_EQ(parsed->cases[0].counter_series.at("perf/total/instructions"),
            (std::vector<double>{1000.0, 1010.0}));
  EXPECT_EQ(parsed->cases[0].counter_series.at("perf/total/cycles"),
            (std::vector<double>{400.0, 420.0}));
  EXPECT_TRUE(parsed->Validate().ok()) << parsed->Validate();
}

TEST(BenchReportTest, ValidateRejectsCounterSeriesLengthMismatch) {
  BenchReporter reporter("series_len");
  reporter.RecordRep("case", 10.0, 1.0);
  reporter.RecordRep("case", 11.0, 1.0);
  reporter.RecordSeriesValue("case", "perf/total/cycles", 400.0);
  BenchReport report = reporter.Build();  // series has 1 sample, 2 reps
  auto status = report.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("perf/total/cycles"), std::string::npos)
      << status;
}

}  // namespace
}  // namespace tdg::obs
