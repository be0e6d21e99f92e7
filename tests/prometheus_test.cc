// Tests for the Prometheus text exposition renderer: metric-name folding,
// label escaping, cumulative bucket rendering, and a golden file pinning
// the full exposition of a hand-built snapshot.
//
// Regenerate the golden after an intentional format change by running
//   ./build/tests/tdg_tests --gtest_filter=PrometheusGoldenTest.*
// with TDG_UPDATE_GOLDEN=1 set in the environment.

#include "obs/prometheus.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.h"

namespace tdg::obs {
namespace {

TEST(PrometheusTest, MetricNameFoldsInvalidCharactersAndPrefixes) {
  EXPECT_EQ(PrometheusMetricName("sweep/cells_completed"),
            "tdg_sweep_cells_completed");
  EXPECT_EQ(PrometheusMetricName("thread_pool/task_micros"),
            "tdg_thread_pool_task_micros");
  EXPECT_EQ(PrometheusMetricName("a b.c-d"), "tdg_a_b_c_d");
  // Already-valid characters (including colons) survive.
  EXPECT_EQ(PrometheusMetricName("ns:name_1"), "tdg_ns:name_1");
}

TEST(PrometheusTest, LabelEscapingCoversBackslashQuoteNewline) {
  EXPECT_EQ(PrometheusEscapeLabel("plain"), "plain");
  EXPECT_EQ(PrometheusEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscapeLabel("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(PrometheusEscapeLabel("line\nbreak"), "line\\nbreak");
}

TEST(PrometheusTest, CountersRenderWithTotalSuffix) {
  MetricsSnapshot snapshot;
  snapshot.counters["sweep/cells_completed"] = 16;
  const std::string text = RenderPrometheusText(snapshot);
  EXPECT_NE(text.find("# TYPE tdg_sweep_cells_completed_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("tdg_sweep_cells_completed_total 16\n"),
            std::string::npos);
}

TEST(PrometheusTest, HistogramRendersCumulativeBucketsSumAndCount) {
  MetricsSnapshot snapshot;
  HistogramStats stats;
  stats.count = 7;
  stats.sum = 350;
  stats.buckets = {{10.0, 3}, {100.0, 6}};
  snapshot.histograms["sweep/process_micros"] = stats;

  const std::string text = RenderPrometheusText(snapshot);
  const std::string family = "tdg_sweep_process_micros";
  EXPECT_NE(text.find("# TYPE " + family + " histogram\n"),
            std::string::npos);
  // Cumulative, ascending, capped by the +Inf bucket == count.
  const size_t b10 = text.find(family + "_bucket{le=\"10\"} 3\n");
  const size_t b100 = text.find(family + "_bucket{le=\"100\"} 6\n");
  const size_t binf = text.find(family + "_bucket{le=\"+Inf\"} 7\n");
  EXPECT_NE(b10, std::string::npos);
  EXPECT_NE(b100, std::string::npos);
  EXPECT_NE(binf, std::string::npos);
  EXPECT_LT(b10, b100);
  EXPECT_LT(b100, binf);
  EXPECT_NE(text.find(family + "_sum 350\n"), std::string::npos);
  EXPECT_NE(text.find(family + "_count 7\n"), std::string::npos);
}

TEST(PrometheusTest, PerfCountersRenderAsLabeledFamilies) {
  MetricsSnapshot snapshot;
  snapshot.counters["perf/core/skills/sort/cycles"] = 100;
  snapshot.counters["perf/core/objective/swap_delta/cycles"] = 50;
  snapshot.counters["perf/core/skills/sort/calls"] = 7;
  snapshot.counters["perf/odd"] = 3;  // no domain/event split: stays plain
  snapshot.counters["sweep/cells_completed"] = 1;
  const std::string text = RenderPrometheusText(snapshot);

  // One family per event, every domain a labeled sample under it.
  const std::string header = "# TYPE tdg_perf_cycles_total counter\n";
  const size_t first = text.find(header);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(header, first + 1), std::string::npos);
  EXPECT_NE(
      text.find(
          "tdg_perf_cycles_total{domain=\"core/objective/swap_delta\"} 50\n"),
      std::string::npos);
  EXPECT_NE(text.find("tdg_perf_cycles_total{domain=\"core/skills/sort\"}"
                      " 100\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("tdg_perf_calls_total{domain=\"core/skills/sort\"} 7\n"),
      std::string::npos);
  // Names that don't parse as perf/<domain>/<event> keep plain rendering.
  EXPECT_NE(text.find("tdg_perf_odd_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("tdg_sweep_cells_completed_total 1\n"),
            std::string::npos);
}

TEST(PrometheusTest, PerfDomainLabelsAreEscaped) {
  MetricsSnapshot snapshot;
  snapshot.counters["perf/we\"ird\\dom/cycles"] = 9;
  const std::string text = RenderPrometheusText(snapshot);
  EXPECT_NE(
      text.find("tdg_perf_cycles_total{domain=\"we\\\"ird\\\\dom\"} 9\n"),
      std::string::npos);
}

TEST(PrometheusTest, BuildInfoRendersAsConstantGaugeWithLabels) {
  MetricsSnapshot snapshot;
  snapshot.build_info = {{"git_sha", "abc123"}, {"build type", "Release"}};
  const std::string text = RenderPrometheusText(snapshot);
  // Label keys are folded like metric names; values are escaped verbatim.
  EXPECT_NE(text.find(
                "tdg_build_info{build_type=\"Release\",git_sha=\"abc123\"}"
                " 1\n"),
            std::string::npos);
}

TEST(PrometheusTest, RegistrySnapshotBucketsMatchRecordedSamples) {
  // End-to-end through a real histogram: the snapshot's cumulative buckets
  // must cover every sample, and the renderer must agree with Count().
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("prometheus_test/histogram");
  histogram.Reset();
  for (double v : {1.0, 5.0, 50.0, 50.0, 5000.0}) histogram.Record(v);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const HistogramStats& stats =
      snapshot.histograms.at("prometheus_test/histogram");
  ASSERT_FALSE(stats.buckets.empty());
  EXPECT_EQ(stats.buckets.back().cumulative_count, 5);
  for (size_t i = 1; i < stats.buckets.size(); ++i) {
    EXPECT_GT(stats.buckets[i].upper_bound, stats.buckets[i - 1].upper_bound);
    EXPECT_GE(stats.buckets[i].cumulative_count,
              stats.buckets[i - 1].cumulative_count);
  }
  const std::string text = RenderPrometheusText(snapshot);
  EXPECT_NE(
      text.find("tdg_prometheus_test_histogram_bucket{le=\"+Inf\"} 5\n"),
      std::string::npos);
  histogram.Reset();
}

TEST(PrometheusTest, CommonLabelsAttachToEverySample) {
  // shard_index/shard_count — the sweep-shard labels — must reach every
  // family kind: counters, gauges, histogram series, perf families, and
  // build_info.
  MetricsSnapshot snapshot;
  snapshot.common_labels = {{"shard_index", "2"}, {"shard_count", "4"}};
  snapshot.build_info = {{"git_sha", "abc123"}};
  snapshot.counters["sweep/cells_completed"] = 16;
  snapshot.counters["perf/core/skills/sort/cycles"] = 100;
  snapshot.gauges["thread_pool/queue_depth"] = {2.0, 8.0};
  HistogramStats stats;
  stats.count = 2;
  stats.sum = 30;
  stats.buckets = {{10.0, 1}};
  snapshot.histograms["sweep/process_micros"] = stats;

  const std::string text = RenderPrometheusText(snapshot);
  const std::string labels = "{shard_count=\"4\",shard_index=\"2\"}";
  EXPECT_NE(text.find("tdg_sweep_cells_completed_total" + labels + " 16\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tdg_thread_pool_queue_depth" + labels + " 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("tdg_thread_pool_queue_depth_max" + labels + " 8\n"),
            std::string::npos);
  // Per-sample labels merge with (and sort among) the common ones.
  EXPECT_NE(
      text.find("tdg_sweep_process_micros_bucket{le=\"10\","
                "shard_count=\"4\",shard_index=\"2\"} 1\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("tdg_sweep_process_micros_sum" + labels + " 30\n"),
            std::string::npos);
  EXPECT_NE(text.find("tdg_sweep_process_micros_count" + labels + " 2\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("tdg_perf_cycles_total{domain=\"core/skills/sort\","
                "shard_count=\"4\",shard_index=\"2\"} 100\n"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("tdg_build_info{git_sha=\"abc123\",shard_count=\"4\","
                "shard_index=\"2\"} 1\n"),
      std::string::npos)
      << text;
}

TEST(PrometheusTest, PerSampleLabelWinsOverCommonLabelCollision) {
  MetricsSnapshot snapshot;
  snapshot.common_labels = {{"domain", "from-common"}};
  snapshot.counters["perf/core/skills/sort/cycles"] = 5;
  const std::string text = RenderPrometheusText(snapshot);
  EXPECT_NE(
      text.find("tdg_perf_cycles_total{domain=\"core/skills/sort\"} 5\n"),
      std::string::npos)
      << text;
  EXPECT_EQ(text.find("from-common"), std::string::npos);
}

TEST(PrometheusTest, RegistryCommonLabelsFlowIntoSnapshot) {
  MetricsRegistry::Global().SetCommonLabels(
      {{"shard_index", "1"}, {"shard_count", "2"}});
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.common_labels.at("shard_index"), "1");
  EXPECT_EQ(snapshot.common_labels.at("shard_count"), "2");
  MetricsRegistry::Global().SetCommonLabels({});
  EXPECT_TRUE(
      MetricsRegistry::Global().Snapshot().common_labels.empty());
}

std::string GoldenPath() {
  return std::string(TDG_TESTS_GOLDEN_DIR) + "/metrics.prom";
}

TEST(PrometheusGoldenTest, ExpositionMatchesGolden) {
  // Hand-built snapshot: fully deterministic, covers every family kind —
  // including the shard identity common labels every sample carries.
  MetricsSnapshot snapshot;
  snapshot.common_labels = {{"shard_index", "3"}, {"shard_count", "8"}};
  snapshot.build_info = {{"git_sha", "deadbeef"},
                         {"compiler", "GNU 12.0"},
                         {"build_type", "Release"}};
  snapshot.counters["sweep/cells_completed"] = 16;
  snapshot.counters["work_steal_queue/steals"] = 3;
  // Kernel-profiling counters: one labeled family per event, domains as
  // labels, including a domain exercising every label escape.
  snapshot.counters["perf/core/skills/sort/calls"] = 2240;
  snapshot.counters["perf/core/skills/sort/cycles"] = 41250000;
  snapshot.counters["perf/core/theory/clique_prefix/cycles"] = 9500000;
  snapshot.counters["perf/core/theory/clique_prefix/instructions"] =
      31000000;
  snapshot.counters["perf/we\"ird\\dom\nain/cycles"] = 7;
  snapshot.gauges["thread_pool/queue_depth"] = {2.0, 8.0};
  snapshot.gauges["process/peak_rss_bytes"] = {73728000.0, 73728000.0};
  HistogramStats histogram;
  histogram.count = 4;
  histogram.sum = 1234.5;
  histogram.min = 10;
  histogram.max = 1000;
  histogram.mean = 308.625;
  histogram.buckets = {{17.782794100389228, 1},
                       {177.82794100389228, 2},
                       {1000.0000000000002, 4}};
  snapshot.histograms["sweep/process_micros"] = histogram;

  const std::string rendered = RenderPrometheusText(snapshot);
  const std::string path = GoldenPath();

  if (std::getenv("TDG_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden file " << path;
    out << rendered;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot open golden file " << path
                         << " (regenerate with TDG_UPDATE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(rendered, golden.str())
      << "Prometheus exposition drifted from tests/golden/metrics.prom; "
         "if the format change is intentional, regenerate with "
         "TDG_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace tdg::obs
