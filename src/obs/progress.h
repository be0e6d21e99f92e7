#ifndef TDG_OBS_PROGRESS_H_
#define TDG_OBS_PROGRESS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "util/json.h"

namespace tdg::obs {

/// Point-in-time view of a sweep's progress (what /progressz serves and the
/// --progress stderr line renders).
struct ProgressSnapshot {
  bool active = false;
  std::string name;               // sweep name
  long long cells_total = 0;      // cells this execution owns
  long long cells_done = 0;       // completed (restored + run)
  long long cells_restored = 0;   // replayed from a checkpoint
  double elapsed_seconds = 0;     // since BeginRun
  /// EWMA of per-cell wall latency (one worker's view of one cell).
  double cell_latency_ewma_micros = 0;
  /// Completion throughput from the EWMA of inter-completion intervals —
  /// parallelism is priced in automatically (k workers → k× the rate).
  double cells_per_second = 0;
  /// remaining / cells_per_second; -1 until the first completion makes the
  /// rate meaningful, finite afterwards.
  double eta_seconds = -1;
  std::string current_cell;       // grid coordinates of the last completion

  util::JsonValue ToJson() const;
  /// Single-line human report, e.g.
  /// "sweep 12/64 cells (18.8%) | 3.1 cells/s | eta 17s | log-normal/...".
  std::string ToLine() const;
};

/// Tracks cells done / total, per-cell latency EWMA, and an ETA across one
/// sweep execution. Wired into RunSweepShard's cell boundaries and always
/// on: a completed cell costs one mutex and one clock read, noise next to
/// the cell's α-processes. The sweep's outputs never depend on it — the
/// tracker observes, never participates.
///
/// Thread-safe: BeginRun/EndRun from the driver thread, RecordCell from any
/// worker, Snapshot from the stats server thread.
class ProgressTracker {
 public:
  ProgressTracker() = default;
  ProgressTracker(const ProgressTracker&) = delete;
  ProgressTracker& operator=(const ProgressTracker&) = delete;

  /// The process-wide instance the sweep layer reports into.
  static ProgressTracker& Global();

  /// Echo a single-line progress report to stderr on RecordCell, at most
  /// every 500 ms and on the last cell (the CLI's --progress flag).
  void SetStderrReport(bool enabled);

  void BeginRun(std::string_view name, long long cells_total,
                long long cells_restored);
  /// One cell finished; `label` is its grid coordinates, `cell_micros` its
  /// wall latency.
  void RecordCell(std::string_view label, double cell_micros);
  void EndRun();

  ProgressSnapshot Snapshot() const;

 private:
  /// Builds a snapshot with mutex_ already held.
  ProgressSnapshot SnapshotLocked(int64_t now_micros) const;

  mutable std::mutex mutex_;
  bool active_ = false;
  std::string name_;
  long long cells_total_ = 0;
  long long cells_done_ = 0;
  long long cells_restored_ = 0;
  int64_t run_start_micros_ = 0;
  int64_t last_completion_micros_ = 0;
  double latency_ewma_micros_ = 0;
  double interval_ewma_micros_ = 0;
  std::string current_cell_;
  bool stderr_report_ = false;
  int64_t stderr_last_micros_ = 0;
};

}  // namespace tdg::obs

#endif  // TDG_OBS_PROGRESS_H_
