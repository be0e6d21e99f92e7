// Tests for obs::ProgressTracker: the ETA is finite after a single
// completion, snapshots track counts/labels, and EndRun deactivates. Every
// test ends the global tracker's run so test order never matters.

#include "obs/progress.h"

#include <gtest/gtest.h>

#include <string>

#include "util/json.h"

namespace tdg::obs {
namespace {

/// Ends the global tracker's run when a test finishes (tests share the
/// process-wide instance with the sweep layer).
class TrackerRunGuard {
 public:
  ~TrackerRunGuard() { ProgressTracker::Global().EndRun(); }
};

TEST(ProgressTrackerTest, EtaIsUnknownBeforeAndFiniteAfterFirstCell) {
  TrackerRunGuard guard;
  ProgressTracker& tracker = ProgressTracker::Global();
  tracker.BeginRun("eta-test", 10, 0);

  ProgressSnapshot before = tracker.Snapshot();
  EXPECT_TRUE(before.active);
  EXPECT_EQ(before.cells_done, 0);
  EXPECT_LT(before.eta_seconds, 0);  // unknown until a cell lands

  tracker.RecordCell("cell-0", 500.0);
  ProgressSnapshot after = tracker.Snapshot();
  EXPECT_EQ(after.cells_done, 1);
  EXPECT_GT(after.cells_per_second, 0);
  EXPECT_GE(after.eta_seconds, 0);  // finite from the very first completion
  EXPECT_EQ(after.current_cell, "cell-0");
  EXPECT_DOUBLE_EQ(after.cell_latency_ewma_micros, 500.0);
}

TEST(ProgressTrackerTest, RestoredCellsCountTowardCompletion) {
  TrackerRunGuard guard;
  ProgressTracker& tracker = ProgressTracker::Global();
  tracker.BeginRun("resume-test", 16, /*cells_restored=*/12);

  ProgressSnapshot snapshot = tracker.Snapshot();
  EXPECT_EQ(snapshot.cells_total, 16);
  EXPECT_EQ(snapshot.cells_done, 12);
  EXPECT_EQ(snapshot.cells_restored, 12);

  tracker.RecordCell("cell-12", 100.0);
  tracker.RecordCell("cell-13", 300.0);
  snapshot = tracker.Snapshot();
  EXPECT_EQ(snapshot.cells_done, 14);
  EXPECT_EQ(snapshot.cells_restored, 12);
  // EWMA moved toward the second sample but remembers the first.
  EXPECT_GT(snapshot.cell_latency_ewma_micros, 100.0);
  EXPECT_LT(snapshot.cell_latency_ewma_micros, 300.0);
}

TEST(ProgressTrackerTest, EndRunDeactivatesAndEtaReachesZeroWhenDone) {
  TrackerRunGuard guard;
  ProgressTracker& tracker = ProgressTracker::Global();
  tracker.BeginRun("end-test", 2, 0);
  tracker.RecordCell("a", 10);
  tracker.RecordCell("b", 10);

  ProgressSnapshot done = tracker.Snapshot();
  EXPECT_EQ(done.cells_done, 2);
  EXPECT_DOUBLE_EQ(done.eta_seconds, 0.0);  // nothing remaining

  tracker.EndRun();
  EXPECT_FALSE(tracker.Snapshot().active);
}

TEST(ProgressSnapshotTest, JsonAndLineCarryTheHeadlineNumbers) {
  ProgressSnapshot snapshot;
  snapshot.active = true;
  snapshot.name = "paper-grid";
  snapshot.cells_total = 64;
  snapshot.cells_done = 12;
  snapshot.cells_per_second = 3.1;
  snapshot.eta_seconds = 17.0;
  snapshot.current_cell = "log-normal/star n=100 k=5 a=5 r=0.5/DyGroups-Star";

  util::JsonValue json = snapshot.ToJson();
  EXPECT_EQ(json.GetField("name")->AsString(), "paper-grid");
  EXPECT_EQ(static_cast<long long>(json.GetField("cells_done")->AsNumber()),
            12);
  EXPECT_EQ(
      static_cast<long long>(json.GetField("cells_total")->AsNumber()), 64);

  const std::string line = snapshot.ToLine();
  EXPECT_NE(line.find("paper-grid"), std::string::npos);
  EXPECT_NE(line.find("12/64"), std::string::npos);
  EXPECT_NE(line.find("eta 17s"), std::string::npos);
  EXPECT_NE(line.find("DyGroups-Star"), std::string::npos);
}

}  // namespace
}  // namespace tdg::obs
