#ifndef TDG_OBS_METRICS_H_
#define TDG_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"
#include "util/stopwatch.h"

namespace tdg::obs {

class WindowedHistogram;  // windowed_histogram.h

/// Runtime kill switch for every metric mutation (Add/Set/Record). Reads and
/// snapshots always work. Defaults to enabled. Cheap to query (one relaxed
/// atomic load), so hot paths may call it freely.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// A monotonically increasing named value (events, items processed).
/// Thread-safe; all mutations are relaxed atomics.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    if (MetricsEnabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A last-value-wins instantaneous measurement (queue depth, temperature)
/// that also tracks the maximum ever set — useful for peak queue depth.
class Gauge {
 public:
  void Set(double value);
  double Value() const { return value_.load(std::memory_order_relaxed); }
  double Max() const { return max_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::atomic<double> value_{0.0};
  std::atomic<double> max_{0.0};
};

/// A fixed-bucket latency/value histogram with geometric (log10) buckets:
/// kBucketsPerDecade buckets per decade over [0, 10^8), values above the top
/// bound land in the last bucket. Count/sum/min/max are tracked exactly, so
/// Mean() is exact; quantiles are bucket-interpolated (relative error bounded
/// by one bucket width, ~16%). Thread-safe, lock-free recording.
class Histogram {
 public:
  static constexpr int kBucketsPerDecade = 16;
  static constexpr int kNumBuckets = 8 * kBucketsPerDecade;  // up to 10^8

  void Record(double value);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Min() const;  // 0 when empty
  double Max() const;  // 0 when empty
  double Mean() const;  // exact (sum/count), 0 when empty

  /// Bucket-interpolated quantile for q in [0, 1]; 0 when empty.
  double Quantile(double q) const;

  /// The quantile walk behind Quantile, over any bucket counts in this
  /// geometry (WindowedHistogram runs it on merged epochs): `total` is the
  /// sum of `counts`, and the exact `min`/`max` tighten the edge buckets.
  static double QuantileOf(const std::array<int64_t, kNumBuckets>& counts,
                           int64_t total, double min, double max, double q);

  /// Consistent-enough (relaxed) count+sum pair, for before/after deltas
  /// taken by a single writer thread.
  struct Totals {
    int64_t count = 0;
    double sum = 0;
  };
  Totals GetTotals() const { return {Count(), Sum()}; }

  /// One populated bucket: `index` into the fixed geometry, `count` samples
  /// landed in it (non-cumulative).
  struct BucketCount {
    int index = 0;
    int64_t count = 0;
  };
  /// The populated buckets in ascending index order. Empty buckets are
  /// omitted — callers reconstruct bounds via BucketLowerBound().
  std::vector<BucketCount> NonEmptyBuckets() const;

  void Reset();

  /// Bucket geometry, exposed for tests: bucket i covers
  /// [LowerBound(i), LowerBound(i + 1)).
  static int BucketIndex(double value);
  static double BucketLowerBound(int index);

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  // valid iff count_ > 0
  std::atomic<double> max_{0.0};
};

/// RAII timer recording its scope's wall time (in microseconds) into a
/// histogram on destruction. Built on util::Stopwatch, so a caller can
/// Pause()/Resume() the exposed watch to exclude sections.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram& histogram)
      : histogram_(histogram) {}
  ~ScopedHistogramTimer() {
    histogram_.Record(static_cast<double>(watch_.TotalMicros()));
  }
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

  util::Stopwatch& watch() { return watch_; }

 private:
  Histogram& histogram_;
  util::Stopwatch watch_;
};

struct GaugeStats {
  double value = 0;
  double max = 0;
};

/// One rolling window of a WindowedHistogram snapshot. Value-domain fields
/// (min/max/mean/sum/quantiles) are already multiplied by the histogram's
/// output_scale; qps is events per second over the full window span (not
/// just the populated seconds).
struct WindowStats {
  int window_seconds = 0;
  std::string label;  // "10s", "1m", "5m"
  int64_t count = 0;
  int64_t errors = 0;
  double qps = 0;
  double error_rate = 0;  // errors / count, 0 when empty
  double sum = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

struct WindowedHistogramStats {
  /// One entry per composed window, ascending by span.
  std::vector<WindowStats> windows;
};

/// One cumulative histogram bucket in a snapshot: `count` samples at or
/// below `upper_bound` (Prometheus `le` semantics). The final implicit
/// "+Inf" bucket equals HistogramStats::count.
struct HistogramBucketStats {
  double upper_bound = 0;
  int64_t cumulative_count = 0;
};

struct HistogramStats {
  int64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  /// Cumulative counts for the *populated* buckets, ascending by bound.
  /// Shared by every exporter (JSON, Prometheus /metrics) so a single
  /// Snapshot() pass feeds them all.
  std::vector<HistogramBucketStats> buckets;
};

/// A point-in-time copy of every registered metric, exportable to the
/// repo's standard formats.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, GaugeStats> gauges;
  std::map<std::string, HistogramStats> histograms;
  /// Rolling-window views (WindowedHistogram), keyed by registry name.
  std::map<std::string, WindowedHistogramStats> windowed;
  /// Static build provenance labels (git sha, compiler, build type — see
  /// MetricsRegistry::SetBuildInfo). Rendered as the `tdg_build_info` gauge
  /// on /metrics and a "build_info" object in the JSON export.
  std::map<std::string, std::string> build_info;
  /// Identity labels stamped on *every* Prometheus sample (see
  /// MetricsRegistry::SetCommonLabels) — how a fleet scrape tells one
  /// sweep shard's families from another's.
  std::map<std::string, std::string> common_labels;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           windowed.empty();
  }

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  util::JsonValue ToJson() const;
  /// Fixed-width table for end-of-run reports.
  std::string ToTable(int digits = 2) const;
};

/// The process-wide named-metric registry. Get* registers on first use and
/// returns a reference that stays valid for the process lifetime (metrics
/// are never removed; Reset() zeroes values but keeps handles). Lookups take
/// a mutex — hot paths should cache the returned reference (the
/// TDG_OBS_*-macros below do this automatically).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();
  ~MetricsRegistry();  // out-of-line: WindowedHistogram is incomplete here

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);
  /// Rolling-window histogram (windowed_histogram.h). `output_scale` is
  /// applied only on first registration — later lookups of the same name
  /// return the existing instance regardless of the argument.
  WindowedHistogram& GetWindowed(std::string_view name,
                                 double output_scale = 1.0);

  /// Attaches static key/value provenance labels to every later Snapshot()
  /// (the `build_info` convention: git sha, compiler, build type).
  void SetBuildInfo(std::map<std::string, std::string> labels);

  /// Attaches identity labels (e.g. {"shard_index": "3", "shard_count":
  /// "8"}) that RenderPrometheusText stamps on every sample of every later
  /// Snapshot(), so scrapes from multiple sweep-shard workers never
  /// collide in one Prometheus. Empty (the default) renders nothing.
  /// RunSweepShard sets these whenever shard_count > 1.
  void SetCommonLabels(std::map<std::string, std::string> labels);

  MetricsSnapshot Snapshot() const;

  /// Counters only — the cheap subset (no histogram quantile computation).
  /// Used by ScopedBenchRep, which deltas counters once per benchmark
  /// repetition and cannot afford a full Snapshot() there.
  std::map<std::string, int64_t> SnapshotCounters() const;

  /// Zeroes every metric (handles stay valid). Intended for tests.
  void Reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>, std::less<>>
      windowed_;
  std::map<std::string, std::string> build_info_;
  std::map<std::string, std::string> common_labels_;
};

}  // namespace tdg::obs

/// Instrumentation macros. `name` must be a constant per call site (each
/// expansion caches its registry handle in a function-local static); use the
/// MetricsRegistry API directly for dynamic names.
#define TDG_OBS_COUNTER_ADD(name, delta)                         \
  do {                                                           \
    static ::tdg::obs::Counter& tdg_obs_counter_handle =         \
        ::tdg::obs::MetricsRegistry::Global().GetCounter(name);  \
    tdg_obs_counter_handle.Add(delta);                           \
  } while (0)
#define TDG_OBS_GAUGE_SET(name, value)                           \
  do {                                                           \
    static ::tdg::obs::Gauge& tdg_obs_gauge_handle =             \
        ::tdg::obs::MetricsRegistry::Global().GetGauge(name);    \
    tdg_obs_gauge_handle.Set(value);                             \
  } while (0)
#define TDG_OBS_HISTOGRAM_RECORD(name, value)                      \
  do {                                                             \
    static ::tdg::obs::Histogram& tdg_obs_histogram_handle =       \
        ::tdg::obs::MetricsRegistry::Global().GetHistogram(name);  \
    tdg_obs_histogram_handle.Record(value);                        \
  } while (0)

#endif  // TDG_OBS_METRICS_H_
