#include "obs/progress.h"

#include <cstdio>

#include "util/stopwatch.h"
#include "util/string_util.h"

namespace tdg::obs {
namespace {

// EWMA weight for new observations. 0.2 follows load swings within ~5
// cells while smoothing one-off stragglers.
constexpr double kEwmaAlpha = 0.2;

// Minimum spacing of the --progress stderr lines.
constexpr int64_t kStderrIntervalMicros = 500000;

double Ewma(double current, double sample) {
  return current <= 0 ? sample
                      : current + kEwmaAlpha * (sample - current);
}

std::string FormatEta(double eta_seconds) {
  if (eta_seconds < 0) return "eta ?";
  if (eta_seconds < 90) {
    return util::StrFormat("eta %.0fs", eta_seconds);
  }
  if (eta_seconds < 5400) {
    return util::StrFormat("eta %.1fm", eta_seconds / 60.0);
  }
  return util::StrFormat("eta %.1fh", eta_seconds / 3600.0);
}

}  // namespace

util::JsonValue ProgressSnapshot::ToJson() const {
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("active", active);
  json.Set("name", name);
  json.Set("cells_total", cells_total);
  json.Set("cells_done", cells_done);
  json.Set("cells_restored", cells_restored);
  json.Set("elapsed_seconds", elapsed_seconds);
  json.Set("cell_latency_ewma_micros", cell_latency_ewma_micros);
  json.Set("cells_per_second", cells_per_second);
  json.Set("eta_seconds", eta_seconds);
  json.Set("current_cell", current_cell);
  return json;
}

std::string ProgressSnapshot::ToLine() const {
  const double percent =
      cells_total > 0
          ? 100.0 * static_cast<double>(cells_done) /
                static_cast<double>(cells_total)
          : 0.0;
  return util::StrFormat(
      "sweep %s: %lld/%lld cells (%.1f%%) | %.2f cells/s | %s | %s",
      name.c_str(), cells_done, cells_total, percent, cells_per_second,
      FormatEta(eta_seconds).c_str(), current_cell.c_str());
}

ProgressTracker& ProgressTracker::Global() {
  static ProgressTracker* const kTracker = new ProgressTracker();
  return *kTracker;
}

void ProgressTracker::SetStderrReport(bool enabled) {
  std::lock_guard<std::mutex> lock(mutex_);
  stderr_report_ = enabled;
}

void ProgressTracker::BeginRun(std::string_view name, long long cells_total,
                               long long cells_restored) {
  std::lock_guard<std::mutex> lock(mutex_);
  active_ = true;
  name_ = std::string(name);
  cells_total_ = cells_total;
  cells_done_ = cells_restored;
  cells_restored_ = cells_restored;
  run_start_micros_ = util::MonotonicMicros();
  last_completion_micros_ = 0;
  latency_ewma_micros_ = 0;
  interval_ewma_micros_ = 0;
  current_cell_.clear();
  stderr_last_micros_ = 0;
}

void ProgressTracker::RecordCell(std::string_view label,
                                 double cell_micros) {
  std::string report;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!active_) return;
    const int64_t now = util::MonotonicMicros();
    ++cells_done_;
    latency_ewma_micros_ = Ewma(latency_ewma_micros_, cell_micros);
    // The first completion's interval is measured from BeginRun, so the
    // rate (and hence the ETA) is finite as soon as one cell lands.
    const int64_t previous = last_completion_micros_ > 0
                                 ? last_completion_micros_
                                 : run_start_micros_;
    const double interval = static_cast<double>(now - previous);
    interval_ewma_micros_ = Ewma(interval_ewma_micros_, interval);
    last_completion_micros_ = now;
    current_cell_ = std::string(label);
    if (stderr_report_ &&
        (stderr_last_micros_ == 0 ||
         now - stderr_last_micros_ >= kStderrIntervalMicros ||
         cells_done_ == cells_total_)) {
      stderr_last_micros_ = now;
      ProgressSnapshot snapshot = SnapshotLocked(now);
      report = snapshot.ToLine();
    }
  }
  if (!report.empty()) {
    // \r keeps the report to one updating terminal line; the trailing
    // spaces erase a longer previous report.
    std::fprintf(stderr, "\r%s    ", report.c_str());
    std::fflush(stderr);
  }
}

void ProgressTracker::EndRun() {
  bool was_reporting = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    was_reporting = stderr_report_ && stderr_last_micros_ > 0;
    active_ = false;
  }
  if (was_reporting) {
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
  }
}

ProgressSnapshot ProgressTracker::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return SnapshotLocked(util::MonotonicMicros());
}

ProgressSnapshot ProgressTracker::SnapshotLocked(int64_t now_micros) const {
  ProgressSnapshot snapshot;
  snapshot.active = active_;
  snapshot.name = name_;
  snapshot.cells_total = cells_total_;
  snapshot.cells_done = cells_done_;
  snapshot.cells_restored = cells_restored_;
  snapshot.elapsed_seconds =
      active_ ? static_cast<double>(now_micros - run_start_micros_) / 1e6
              : 0.0;
  snapshot.cell_latency_ewma_micros = latency_ewma_micros_;
  snapshot.current_cell = current_cell_;
  if (interval_ewma_micros_ > 0) {
    snapshot.cells_per_second = 1e6 / interval_ewma_micros_;
    const long long remaining = cells_total_ - cells_done_;
    snapshot.eta_seconds =
        remaining > 0 ? static_cast<double>(remaining) *
                            interval_ewma_micros_ / 1e6
                      : 0.0;
  }
  return snapshot;
}

}  // namespace tdg::obs
