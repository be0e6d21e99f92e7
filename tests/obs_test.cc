// Tests for the tdg::obs observability subsystem: metrics registry
// arithmetic, histogram quantiles, JSON export round-trips, thread safety
// under ParallelFor (metrics and recorder spans), and the guarantee that
// observability never perturbs simulation results (sweep determinism).
// Span nesting and the Chrome-trace view are in flight_recorder_test.cc.
//
// Every test restores the global observability state it touches
// (metrics enabled, flight recorder stopped) so test order never matters.

#include "obs/obs.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "util/json.h"
#include "util/parallel_for.h"

namespace tdg::obs {
namespace {

TEST(CounterTest, RegistryReturnsSameHandleAndAccumulates) {
  Counter& counter =
      MetricsRegistry::Global().GetCounter("obs_test/counter");
  counter.Reset();
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42);
  // Repeat lookup must alias the same counter.
  Counter& again = MetricsRegistry::Global().GetCounter("obs_test/counter");
  EXPECT_EQ(&again, &counter);
  again.Add(-2);
  EXPECT_EQ(counter.Value(), 40);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
}

TEST(GaugeTest, TracksLastValueAndMaximum) {
  Gauge& gauge = MetricsRegistry::Global().GetGauge("obs_test/gauge");
  gauge.Reset();
  gauge.Set(3.5);
  gauge.Set(9.0);
  gauge.Set(1.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), 1.25);
  EXPECT_DOUBLE_EQ(gauge.Max(), 9.0);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
  EXPECT_DOUBLE_EQ(gauge.Max(), 0.0);
}

TEST(HistogramTest, ExactMomentsAndBucketedQuantiles) {
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("obs_test/histogram");
  histogram.Reset();
  for (int v = 1; v <= 1000; ++v) histogram.Record(v);

  EXPECT_EQ(histogram.Count(), 1000);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 500500.0);
  EXPECT_DOUBLE_EQ(histogram.Mean(), 500.5);
  EXPECT_DOUBLE_EQ(histogram.Min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Max(), 1000.0);

  // Quantiles are bucket-interpolated: relative error is bounded by one
  // log10 bucket (10^(1/16) ≈ 1.155), so allow 16%.
  EXPECT_NEAR(histogram.Quantile(0.50), 500.0, 0.16 * 500.0);
  EXPECT_NEAR(histogram.Quantile(0.95), 950.0, 0.16 * 950.0);
  EXPECT_NEAR(histogram.Quantile(0.99), 990.0, 0.16 * 990.0);
  // Extremes stay within the exact observed range (the top end clamps to
  // Max; the bottom end is bucket-interpolated like any other quantile).
  EXPECT_NEAR(histogram.Quantile(0.0), 1.0, 0.16 * 1.0);
  EXPECT_GE(histogram.Quantile(0.0), histogram.Min());
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 1000.0);

  histogram.Reset();
  EXPECT_EQ(histogram.Count(), 0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
}

TEST(HistogramTest, SingleSampleQuantilesAreExact) {
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("obs_test/histogram_single");
  histogram.Reset();
  histogram.Record(137.0);
  // One sample has no spread: every quantile is the sample itself, not a
  // point interpolated inside its (geometric, ~15.5% wide) bucket.
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.Quantile(q), 137.0) << "q=" << q;
  }
}

TEST(HistogramTest, AllSamplesEqualQuantilesAreExact) {
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("obs_test/histogram_equal");
  histogram.Reset();
  for (int i = 0; i < 100; ++i) histogram.Record(42.0);
  // Min == Max pins the interpolation range to the exact value even though
  // all mass sits in one bucket.
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.Quantile(q), 42.0) << "q=" << q;
  }
}

TEST(HistogramTest, AllSamplesInOneBucketInterpolateWithinMinMax) {
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("obs_test/histogram_bucket");
  histogram.Reset();
  // 100.0 and 110.0 share a log10 bucket (bucket width ~15.5%) but differ;
  // quantiles must stay inside the exact observed range and be monotone.
  ASSERT_EQ(Histogram::BucketIndex(100.0), Histogram::BucketIndex(110.0));
  for (int i = 0; i < 50; ++i) {
    histogram.Record(100.0);
    histogram.Record(110.0);
  }
  double previous = histogram.Quantile(0.0);
  for (double q : {0.5, 0.95, 0.99, 1.0}) {
    double value = histogram.Quantile(q);
    EXPECT_GE(value, 100.0) << "q=" << q;
    EXPECT_LE(value, 110.0) << "q=" << q;
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 110.0);
}

TEST(HistogramTest, TwoBucketEdgeQuantilesUseExactExtrema) {
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("obs_test/histogram_two");
  histogram.Reset();
  histogram.Record(1.0);
  histogram.Record(1000.0);
  // The first populated bucket holds no mass below Min() and the last none
  // above Max(): p99 may not overshoot the largest observation's bucket.
  EXPECT_GE(histogram.Quantile(0.01), 1.0);
  EXPECT_LE(histogram.Quantile(0.99), 1000.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 1000.0);
}

TEST(HistogramTest, BucketGeometryCoversEightDecades) {
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_DOUBLE_EQ(Histogram::BucketLowerBound(0), 0.0);
  // Every bucket maps back to itself through its lower bound.
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    double bound = Histogram::BucketLowerBound(i);
    EXPECT_EQ(Histogram::BucketIndex(bound), i) << "bucket " << i;
    EXPECT_GT(bound, Histogram::BucketLowerBound(i - 1));
  }
  // Values beyond the top bound land in the last bucket, not out of range.
  EXPECT_EQ(Histogram::BucketIndex(1e12), Histogram::kNumBuckets - 1);
}

TEST(MetricsTest, RuntimeDisableFreezesMutations) {
  Counter& counter =
      MetricsRegistry::Global().GetCounter("obs_test/disable_counter");
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("obs_test/disable_histogram");
  counter.Reset();
  histogram.Reset();

  ASSERT_TRUE(MetricsEnabled());  // library default
  SetMetricsEnabled(false);
  counter.Add(7);
  histogram.Record(5.0);
  TDG_OBS_COUNTER_ADD("obs_test/disable_counter", 7);
  EXPECT_EQ(counter.Value(), 0);
  EXPECT_EQ(histogram.Count(), 0);

  SetMetricsEnabled(true);
  counter.Add(7);
  histogram.Record(5.0);
  EXPECT_EQ(counter.Value(), 7);
  EXPECT_EQ(histogram.Count(), 1);
}

TEST(MetricsTest, SnapshotRoundTripsThroughJson) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("obs_test/snap_counter").Reset();
  registry.GetCounter("obs_test/snap_counter").Add(11);
  registry.GetGauge("obs_test/snap_gauge").Reset();
  registry.GetGauge("obs_test/snap_gauge").Set(2.5);
  Histogram& histogram = registry.GetHistogram("obs_test/snap_histogram");
  histogram.Reset();
  histogram.Record(10.0);
  histogram.Record(30.0);

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("obs_test/snap_counter"), 11);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("obs_test/snap_gauge").value, 2.5);
  EXPECT_EQ(snapshot.histograms.at("obs_test/snap_histogram").count, 2);
  EXPECT_DOUBLE_EQ(snapshot.histograms.at("obs_test/snap_histogram").mean,
                   20.0);

  // JSON round-trip through the repo's own parser.
  auto parsed = util::JsonValue::Parse(snapshot.ToJson().Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto counters = parsed->GetField("counters");
  ASSERT_TRUE(counters.ok());
  auto counter_value = counters->GetField("obs_test/snap_counter");
  ASSERT_TRUE(counter_value.ok());
  EXPECT_DOUBLE_EQ(counter_value->AsNumber(), 11.0);
  auto histograms = parsed->GetField("histograms");
  ASSERT_TRUE(histograms.ok());
  auto histogram_json = histograms->GetField("obs_test/snap_histogram");
  ASSERT_TRUE(histogram_json.ok());
  EXPECT_DOUBLE_EQ(histogram_json->GetField("p50")->AsNumber(),
                   snapshot.histograms.at("obs_test/snap_histogram").p50);

  // The table renders every metric name.
  std::string table = snapshot.ToTable();
  EXPECT_NE(table.find("obs_test/snap_gauge"), std::string::npos);
  EXPECT_NE(table.find("obs_test/snap_histogram"), std::string::npos);
}

TEST(ObsThreadingTest, ConcurrentRecordingIsLossless) {
  constexpr int kIterations = 1000;
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("obs_test/mt_counter");
  Histogram& histogram = registry.GetHistogram("obs_test/mt_histogram");
  counter.Reset();
  histogram.Reset();

  const std::string dump_path = testing::TempDir() + "/obs_threading.bin";
  FlightRecorder::Options recorder_options;
  recorder_options.path = dump_path;
  ASSERT_TRUE(FlightRecorder::Global().Start(recorder_options).ok());
  util::ParallelFor(4, kIterations, [&](int i) {
    TDG_ZONE(Zone::kSweepCell);
    counter.Add(1);
    histogram.Record(static_cast<double>(i % 100));
  });
  FlightRecorder::Global().Stop();

  EXPECT_EQ(counter.Value(), kIterations);
  EXPECT_EQ(histogram.Count(), kIterations);
  EXPECT_GE(histogram.Max(), 99.0);

#if !defined(TDG_OBS_DISABLED)
  auto dump = ReadBlackbox(dump_path);
  ASSERT_TRUE(dump.ok()) << dump.status();
  EXPECT_EQ(dump->overwritten, 0u);
  EXPECT_EQ(dump->events.size(), static_cast<size_t>(kIterations));
#endif
}

// Observability must never perturb results: gains from RunSweep are
// bit-identical whether metrics and the flight recorder are on or
// metrics are disabled at runtime. The compiled-out (TDG_OBS_DISABLED)
// build runs this same test, extending the guarantee to the compile-out
// path.
TEST(ObsDeterminismTest, SweepGainsUnchangedByObservability) {
  exp::SweepConfig config;
  config.name = "obs-determinism";
  config.policies = {"DyGroups-Star", "Random-Assignment"};
  config.n_values = {40};
  config.k_values = {4};
  config.alpha_values = {3};
  config.r_values = {0.5};
  config.modes = {InteractionMode::kStar};
  config.distributions = {random::SkillDistribution::kUniform};
  config.runs = 3;
  config.threads = 2;
  config.seed = 20260806;

  FlightRecorder::Options recorder_options;
  recorder_options.path = testing::TempDir() + "/obs_determinism.bin";
  ASSERT_TRUE(FlightRecorder::Global().Start(recorder_options).ok());
  auto observed = exp::RunSweep(config);
  FlightRecorder::Global().Stop();
  ASSERT_TRUE(observed.ok()) << observed.status();

  SetMetricsEnabled(false);
  auto unobserved = exp::RunSweep(config);
  SetMetricsEnabled(true);
  ASSERT_TRUE(unobserved.ok()) << unobserved.status();

  ASSERT_EQ(observed->cells.size(), unobserved->cells.size());
  for (size_t i = 0; i < observed->cells.size(); ++i) {
    const exp::SweepCell& a = observed->cells[i];
    const exp::SweepCell& b = unobserved->cells[i];
    EXPECT_EQ(a.policy, b.policy);
    // Bitwise, not approximate: observability may not change a single ulp.
    EXPECT_EQ(std::bit_cast<uint64_t>(a.mean_gain),
              std::bit_cast<uint64_t>(b.mean_gain))
        << "cell " << i << ": " << a.mean_gain << " vs " << b.mean_gain;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.stderr_gain),
              std::bit_cast<uint64_t>(b.stderr_gain));
  }

  // With metrics runtime-disabled the per-cell latency histogram is frozen,
  // so mean_micros degrades to 0 rather than lying.
  for (const exp::SweepCell& cell : unobserved->cells) {
    EXPECT_EQ(cell.mean_micros, 0.0);
  }
}

}  // namespace
}  // namespace tdg::obs
