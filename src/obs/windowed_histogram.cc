#include "obs/windowed_histogram.h"

#include <algorithm>
#include <string>

#include "util/stopwatch.h"

namespace tdg::obs {
namespace {

// Epoch counts merged over one window span; Histogram::QuantileOf walks
// these instead of live atomics.
struct MergedWindow {
  int64_t count = 0;
  int64_t errors = 0;
  double sum = 0;
  double min = 0;  // valid iff count > 0
  double max = 0;
  std::array<int64_t, WindowedHistogram::kNumBuckets> buckets{};
};

}  // namespace

std::string WindowLabel(int window_seconds) {
  if (window_seconds >= 60 && window_seconds % 60 == 0) {
    return std::to_string(window_seconds / 60) + "m";
  }
  return std::to_string(window_seconds) + "s";
}

WindowedHistogram::WindowedHistogram() : WindowedHistogram(Options{}) {}

WindowedHistogram::WindowedHistogram(Options options)
    : options_(options), ring_(kRingSeconds) {}

void WindowedHistogram::Record(double value, bool error) {
  RecordAt(util::MonotonicMicros(), value, error);
}

void WindowedHistogram::RecordAt(int64_t now_micros, double value,
                                 bool error) {
  if (!MetricsEnabled()) return;
  const int64_t second = now_micros / 1000000;
  std::lock_guard<std::mutex> lock(mutex_);
  Epoch& epoch = ring_[static_cast<size_t>(second % kRingSeconds)];
  if (epoch.second != second) {
    // Lazy rotation: the slot last belonged to `second - kRingSeconds` (or
    // was never used) — reclaim it for the current second.
    epoch = Epoch{};
    epoch.second = second;
  }
  if (epoch.count == 0) {
    epoch.min = value;
    epoch.max = value;
  } else {
    epoch.min = std::min(epoch.min, value);
    epoch.max = std::max(epoch.max, value);
  }
  ++epoch.count;
  if (error) ++epoch.errors;
  epoch.sum += value;
  ++epoch.buckets[static_cast<size_t>(Histogram::BucketIndex(value))];
}

WindowedHistogramStats WindowedHistogram::Snapshot() const {
  return SnapshotAt(util::MonotonicMicros());
}

WindowedHistogramStats WindowedHistogram::SnapshotAt(
    int64_t now_micros) const {
  const int64_t now_second = now_micros / 1000000;
  const double scale = options_.output_scale;
  std::lock_guard<std::mutex> lock(mutex_);
  WindowedHistogramStats stats;
  for (int window : kWindowSeconds) {
    MergedWindow merged;
    for (const Epoch& epoch : ring_) {
      // Fold epochs in (now_second - window, now_second]: the current
      // (partial) second plus the window - 1 before it. Stale stamps from
      // a previous ring lap fall outside the range and are skipped.
      if (epoch.second <= now_second - window || epoch.second > now_second) {
        continue;
      }
      if (epoch.count == 0) continue;
      if (merged.count == 0) {
        merged.min = epoch.min;
        merged.max = epoch.max;
      } else {
        merged.min = std::min(merged.min, epoch.min);
        merged.max = std::max(merged.max, epoch.max);
      }
      merged.count += epoch.count;
      merged.errors += epoch.errors;
      merged.sum += epoch.sum;
      for (int i = 0; i < kNumBuckets; ++i) {
        merged.buckets[i] += epoch.buckets[i];
      }
    }
    WindowStats w;
    w.window_seconds = window;
    w.label = WindowLabel(window);
    w.count = merged.count;
    w.errors = merged.errors;
    w.qps = static_cast<double>(merged.count) / static_cast<double>(window);
    if (merged.count > 0) {
      const double count = static_cast<double>(merged.count);
      w.error_rate = static_cast<double>(merged.errors) / count;
      w.sum = merged.sum * scale;
      w.min = merged.min * scale;
      w.max = merged.max * scale;
      w.mean = merged.sum / count * scale;
      auto quantile = [&merged, scale](double q) {
        return Histogram::QuantileOf(merged.buckets, merged.count,
                                     merged.min, merged.max, q) *
               scale;
      };
      w.p50 = quantile(0.50);
      w.p95 = quantile(0.95);
      w.p99 = quantile(0.99);
    }
    stats.windows.push_back(std::move(w));
  }
  return stats;
}

void WindowedHistogram::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Epoch& epoch : ring_) epoch = Epoch{};
}

}  // namespace tdg::obs
