#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/windowed_histogram.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tdg::obs {
namespace {

std::atomic<bool> g_metrics_enabled{true};

// Atomically max-folds `value` into `slot` (relaxed; exact ordering of
// concurrent maxima does not matter, the final value is the true max).
void AtomicFoldMax(std::atomic<double>& slot, double value) {
  double current = slot.load(std::memory_order_relaxed);
  while (value > current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

void AtomicFoldMin(std::atomic<double>& slot, double value) {
  double current = slot.load(std::memory_order_relaxed);
  while (value < current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

void Gauge::Set(double value) {
  if (!MetricsEnabled()) return;
  value_.store(value, std::memory_order_relaxed);
  AtomicFoldMax(max_, value);
}

void Gauge::Reset() {
  value_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

int Histogram::BucketIndex(double value) {
  if (!(value > 0)) return 0;  // negatives and NaN land in the first bucket
  // The epsilon keeps exact bucket bounds in their own bucket: log10 of
  // BucketLowerBound(i) + 1 can round to just under i / kBucketsPerDecade.
  int index = static_cast<int>(
      std::floor(std::log10(value + 1.0) * kBucketsPerDecade + 1e-9));
  return std::clamp(index, 0, kNumBuckets - 1);
}

double Histogram::BucketLowerBound(int index) {
  if (index <= 0) return 0.0;
  return std::pow(10.0, static_cast<double>(index) / kBucketsPerDecade) - 1.0;
}

void Histogram::Record(double value) {
  if (!MetricsEnabled()) return;
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  // First-write initialization of min/max: claim the slot by bumping count_
  // *after* folding, so readers treating count_ == 0 as "empty" never see
  // half-initialized extrema. A racy first pair of records can each fold —
  // both folds are correct.
  if (count_.load(std::memory_order_relaxed) == 0) {
    double expected = 0.0;
    min_.compare_exchange_strong(expected, value, std::memory_order_relaxed);
  }
  AtomicFoldMin(min_, value);
  AtomicFoldMax(max_, value);
  sum_.fetch_add(value, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

double Histogram::Min() const {
  return Count() > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::Max() const {
  return Count() > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::Mean() const {
  int64_t count = Count();
  return count > 0 ? Sum() / static_cast<double>(count) : 0.0;
}

double Histogram::Quantile(double q) const {
  std::array<int64_t, kNumBuckets> counts;
  int64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  return QuantileOf(counts, total, Min(), Max(), q);
}

double Histogram::QuantileOf(const std::array<int64_t, kNumBuckets>& counts,
                             int64_t total, double min, double max,
                             double q) {
  q = std::clamp(q, 0.0, 1.0);
  if (total == 0) return 0.0;
  // A single sample has no within-bucket spread to interpolate: every
  // quantile is the sample itself, which `min` holds exactly.
  if (total == 1) return min;

  int first_nonempty = -1;
  int last_nonempty = -1;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (counts[i] > 0) {
      if (first_nonempty < 0) first_nonempty = i;
      last_nonempty = i;
    }
  }
  double target = q * static_cast<double>(total);
  if (target < 1.0) target = 1.0;
  int64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(cumulative + counts[i]) >= target) {
      double lo = BucketLowerBound(i);
      double hi = BucketLowerBound(i + 1);
      // The exact extrema tighten the interpolation range at the histogram
      // edges: the first populated bucket holds no mass below `min` and the
      // last none above `max`. With every sample in one bucket this
      // interpolates across [min, max] instead of the (much wider) bucket
      // bounds — and when min == max it returns that value exactly for
      // every q.
      if (i == first_nonempty) lo = std::max(lo, min);
      if (i == last_nonempty) hi = std::min(hi, max);
      double fraction = (target - static_cast<double>(cumulative)) /
                        static_cast<double>(counts[i]);
      double estimate = lo + fraction * (hi - lo);
      return std::clamp(estimate, min, max);
    }
    cumulative += counts[i];
  }
  return max;
}

std::vector<Histogram::BucketCount> Histogram::NonEmptyBuckets() const {
  std::vector<BucketCount> populated;
  for (int i = 0; i < kNumBuckets; ++i) {
    const int64_t count = buckets_[i].load(std::memory_order_relaxed);
    if (count > 0) populated.push_back({i, count});
  }
  return populated;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const kRegistry = new MetricsRegistry();
  return *kRegistry;
}

MetricsRegistry::~MetricsRegistry() = default;

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

WindowedHistogram& MetricsRegistry::GetWindowed(std::string_view name,
                                                double output_scale) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = windowed_.find(name);
  if (it == windowed_.end()) {
    WindowedHistogram::Options options;
    options.output_scale = output_scale;
    it = windowed_
             .emplace(std::string(name),
                      std::make_unique<WindowedHistogram>(options))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::SetBuildInfo(
    std::map<std::string, std::string> labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  build_info_ = std::move(labels);
}

void MetricsRegistry::SetCommonLabels(
    std::map<std::string, std::string> labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  common_labels_ = std::move(labels);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.build_info = build_info_;
  snapshot.common_labels = common_labels_;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = GaugeStats{gauge->Value(), gauge->Max()};
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramStats stats;
    stats.count = histogram->Count();
    stats.sum = histogram->Sum();
    stats.min = histogram->Min();
    stats.max = histogram->Max();
    stats.mean = histogram->Mean();
    stats.p50 = histogram->Quantile(0.50);
    stats.p95 = histogram->Quantile(0.95);
    stats.p99 = histogram->Quantile(0.99);
    // Cumulative bucket counts with Prometheus `le` upper bounds; bucket i
    // of the fixed geometry covers [LowerBound(i), LowerBound(i + 1)).
    int64_t cumulative = 0;
    for (const Histogram::BucketCount& bucket :
         histogram->NonEmptyBuckets()) {
      cumulative += bucket.count;
      stats.buckets.push_back(
          {Histogram::BucketLowerBound(bucket.index + 1), cumulative});
    }
    snapshot.histograms[name] = stats;
  }
  for (const auto& [name, windowed] : windowed_) {
    snapshot.windowed[name] = windowed->Snapshot();
  }
  return snapshot;
}

std::map<std::string, int64_t> MetricsRegistry::SnapshotCounters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, int64_t> counters;
  for (const auto& [name, counter] : counters_) {
    counters[name] = counter->Value();
  }
  return counters;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
  for (auto& [name, windowed] : windowed_) windowed->Reset();
}

util::JsonValue MetricsSnapshot::ToJson() const {
  util::JsonValue counters_json = util::JsonValue::MakeObject();
  for (const auto& [name, value] : counters) {
    counters_json.Set(name, static_cast<long long>(value));
  }
  util::JsonValue gauges_json = util::JsonValue::MakeObject();
  for (const auto& [name, stats] : gauges) {
    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("value", stats.value);
    entry.Set("max", stats.max);
    gauges_json.Set(name, std::move(entry));
  }
  util::JsonValue histograms_json = util::JsonValue::MakeObject();
  for (const auto& [name, stats] : histograms) {
    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("count", static_cast<long long>(stats.count));
    entry.Set("sum", stats.sum);
    entry.Set("min", stats.min);
    entry.Set("max", stats.max);
    entry.Set("mean", stats.mean);
    entry.Set("p50", stats.p50);
    entry.Set("p95", stats.p95);
    entry.Set("p99", stats.p99);
    util::JsonValue buckets = util::JsonValue::MakeArray();
    for (const HistogramBucketStats& bucket : stats.buckets) {
      util::JsonValue bucket_json = util::JsonValue::MakeObject();
      bucket_json.Set("le", bucket.upper_bound);
      bucket_json.Set("count",
                      static_cast<long long>(bucket.cumulative_count));
      buckets.Append(std::move(bucket_json));
    }
    entry.Set("buckets", std::move(buckets));
    histograms_json.Set(name, std::move(entry));
  }
  util::JsonValue windowed_json = util::JsonValue::MakeObject();
  for (const auto& [name, stats] : windowed) {
    util::JsonValue windows = util::JsonValue::MakeObject();
    for (const WindowStats& w : stats.windows) {
      util::JsonValue entry = util::JsonValue::MakeObject();
      entry.Set("count", static_cast<long long>(w.count));
      entry.Set("errors", static_cast<long long>(w.errors));
      entry.Set("qps", w.qps);
      entry.Set("error_rate", w.error_rate);
      entry.Set("min", w.min);
      entry.Set("max", w.max);
      entry.Set("mean", w.mean);
      entry.Set("p50", w.p50);
      entry.Set("p95", w.p95);
      entry.Set("p99", w.p99);
      windows.Set(w.label, std::move(entry));
    }
    windowed_json.Set(name, std::move(windows));
  }
  util::JsonValue root = util::JsonValue::MakeObject();
  if (!build_info.empty()) {
    util::JsonValue build_json = util::JsonValue::MakeObject();
    for (const auto& [key, value] : build_info) build_json.Set(key, value);
    root.Set("build_info", std::move(build_json));
  }
  root.Set("counters", std::move(counters_json));
  root.Set("gauges", std::move(gauges_json));
  root.Set("histograms", std::move(histograms_json));
  if (!windowed.empty()) root.Set("windowed", std::move(windowed_json));
  return root;
}

std::string MetricsSnapshot::ToTable(int digits) const {
  util::TablePrinter printer({"metric", "kind", "value", "count", "mean",
                              "min", "max", "p50", "p95", "p99"});
  auto fmt = [digits](double v) { return util::FormatDouble(v, digits); };
  for (const auto& [name, value] : counters) {
    printer.AddRow(
        {name, "counter", std::to_string(value), "", "", "", "", "", "", ""});
  }
  for (const auto& [name, stats] : gauges) {
    printer.AddRow({name, "gauge", fmt(stats.value), "", "", "",
                    fmt(stats.max), "", "", ""});
  }
  for (const auto& [name, stats] : histograms) {
    printer.AddRow({name, "histogram", "", std::to_string(stats.count),
                    fmt(stats.mean), fmt(stats.min), fmt(stats.max),
                    fmt(stats.p50), fmt(stats.p95), fmt(stats.p99)});
  }
  for (const auto& [name, stats] : windowed) {
    for (const WindowStats& w : stats.windows) {
      printer.AddRow({name + "[" + w.label + "]", "windowed", fmt(w.qps),
                      std::to_string(w.count), fmt(w.mean), fmt(w.min),
                      fmt(w.max), fmt(w.p50), fmt(w.p95), fmt(w.p99)});
    }
  }
  return printer.ToString();
}

}  // namespace tdg::obs
