// Crash-injection integration test (the fault-injection satellite of the
// crash-safe sweep layer): a real child process (tdg_sweep_shard_child) is
// killed mid-sweep by the TDG_TEST_CRASH_AFTER_CELLS hook at several cut
// points, resumed — possibly crashing again — until its shard completes,
// and the merged shard checkpoints must be byte-identical to an
// uninterrupted monolithic run. Repeated across 1, 2 and 8 worker threads:
// the determinism contract holds through crashes, resumes, sharding and
// scheduling.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "exp/sweep_shard.h"
#include "sweep_shard_test_util.h"

#ifndef TDG_SWEEP_SHARD_CHILD_BIN
#error "TDG_SWEEP_SHARD_CHILD_BIN must be defined by tests/CMakeLists.txt"
#endif

namespace tdg::exp {
namespace {

using test::CsvBytes;
using test::JsonBytes;
using test::MakeScratchDir;
using test::MetricsOffGuard;
using test::TinyConfig;

// Runs the child shard binary; `crash_after_cells < 0` disables the fault
// hook, and a non-empty `progress_log` turns on --progress with stderr
// written there. Returns the child's exit code (or -1 on abnormal
// termination).
int RunChild(const std::string& config_path,
             const std::string& checkpoint_path, int shard_index,
             int shard_count, int threads, bool resume,
             int crash_after_cells, const std::string& progress_log = "") {
  std::string command;
  if (crash_after_cells >= 0) {
    command += "TDG_TEST_CRASH_AFTER_CELLS=" +
               std::to_string(crash_after_cells) + " ";
  }
  command += std::string("'") + TDG_SWEEP_SHARD_CHILD_BIN + "'";
  command += " --config='" + config_path + "'";
  command += " --checkpoint='" + checkpoint_path + "'";
  command += " --shard_index=" + std::to_string(shard_index);
  command += " --shard_count=" + std::to_string(shard_count);
  command += " --threads=" + std::to_string(threads);
  if (resume) command += " --resume";
  if (!progress_log.empty()) {
    command += " --progress 2>'" + progress_log + "'";
  }
  command += " >/dev/null";
  const int status = std::system(command.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(SweepCrashTest, InterruptedShardsResumeAndMergeByteIdentical) {
#if !defined(TDG_TEST_HOOKS)
  GTEST_SKIP() << "fault-injection hooks compiled out (TDG_TEST_HOOKS=OFF)";
#endif
  MetricsOffGuard metrics_off;
  SweepConfig config = TinyConfig(1);

  // The reference: one uninterrupted in-process run (16 cells).
  auto reference = RunSweep(config);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::string reference_csv = CsvBytes(reference.value());
  const std::string reference_json = JsonBytes(reference.value());

  constexpr int kShardCount = 2;  // 8 cells per shard
  // Kill each shard at several cut points before letting it finish: shard
  // 0 dies after 1 cell, again after 3 more, then completes; shard 1 dies
  // after 5, then completes. Exercises first-cell, mid-run and
  // nearly-done interruptions.
  const std::vector<std::vector<int>> crash_schedules = {{1, 3}, {5}};

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir = MakeScratchDir();
    const std::string config_path = dir + "/sweep.cfg";
    {
      std::ofstream out(config_path);
      ASSERT_TRUE(out.good());
      out << config.ToText();
    }

    std::vector<std::string> checkpoints;
    for (int shard = 0; shard < kShardCount; ++shard) {
      SCOPED_TRACE("shard=" + std::to_string(shard));
      const std::string checkpoint =
          dir + "/shard" + std::to_string(shard) + ".ckpt";
      checkpoints.push_back(checkpoint);

      bool resume = false;
      for (int crash_after : crash_schedules[shard]) {
        ASSERT_EQ(RunChild(config_path, checkpoint, shard, kShardCount,
                           threads, resume, crash_after),
                  kCrashHookExitCode)
            << "the fault hook should have killed the child";
        resume = true;
      }
      ASSERT_EQ(RunChild(config_path, checkpoint, shard, kShardCount,
                         threads, resume, /*crash_after_cells=*/-1),
                0)
          << "final resume of shard " << shard << " failed";
    }

    auto merged = MergeSweepCheckpoints(checkpoints);
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_EQ(CsvBytes(merged.value()), reference_csv);
    EXPECT_EQ(JsonBytes(merged.value()), reference_json);
  }
}

TEST(SweepCrashTest, MergeRefusesCheckpointStillMissingCells) {
#if !defined(TDG_TEST_HOOKS)
  GTEST_SKIP() << "fault-injection hooks compiled out (TDG_TEST_HOOKS=OFF)";
#endif
  MetricsOffGuard metrics_off;
  const std::string dir = MakeScratchDir();
  const std::string config_path = dir + "/sweep.cfg";
  {
    std::ofstream out(config_path);
    ASSERT_TRUE(out.good());
    out << TinyConfig(1).ToText();
  }
  const std::string checkpoint = dir + "/shard0.ckpt";
  // Single shard, killed after 2 of 16 cells and never resumed.
  ASSERT_EQ(RunChild(config_path, checkpoint, 0, 1, /*threads=*/1,
                     /*resume=*/false, /*crash_after_cells=*/2),
            kCrashHookExitCode);
  auto merged = MergeSweepCheckpoints({checkpoint});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(),
            util::StatusCode::kFailedPrecondition);
}

// The last cell count a --progress child printed to `log` before it died.
long long LastProgressCount(const std::string& log) {
  std::ifstream in(log);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string marker = "\rsweep shard-test: ";
  const std::size_t at = text.rfind(marker);
  EXPECT_NE(at, std::string::npos) << text;
  if (at == std::string::npos) return -1;
  return std::atoll(text.c_str() + at + marker.size());
}

TEST(SweepCrashTest, ProgressCountNeverExceedsTheDurableRecords) {
#if !defined(TDG_TEST_HOOKS)
  GTEST_SKIP() << "fault-injection hooks compiled out (TDG_TEST_HOOKS=OFF)";
#endif
  MetricsOffGuard metrics_off;
  const std::string dir = MakeScratchDir();
  const std::string config_path = dir + "/sweep.cfg";
  {
    std::ofstream out(config_path);
    ASSERT_TRUE(out.good());
    out << TinyConfig(2).ToText();
  }
  const std::string checkpoint = dir + "/shard0.ckpt";
  const std::string log = dir + "/progress.log";
  // A fresh run killed after its first cell, then resumes killed after 3
  // and after 1 more. The first cell of an execution always prints, so a
  // kill after one cell leaves its exact count on stderr; a later kill may
  // fall between two throttled lines.
  bool resume = false;
  long long durable_before = 0;
  for (int crash_after : {1, 3, 1}) {
    SCOPED_TRACE("crash_after=" + std::to_string(crash_after));
    ASSERT_EQ(RunChild(config_path, checkpoint, 0, 1, /*threads=*/2, resume,
                       crash_after, log),
              kCrashHookExitCode);
    auto read = ReadSweepCheckpoint(checkpoint);
    ASSERT_TRUE(read.ok()) << read.status();
    const long long durable = static_cast<long long>(read->cells.size());
    ASSERT_EQ(durable, durable_before + crash_after);
    const long long printed = LastProgressCount(log);
    if (crash_after == 1) {
      EXPECT_EQ(printed, durable);
    } else {
      EXPECT_GT(printed, durable_before);
      EXPECT_LE(printed, durable);
    }
    durable_before = durable;
    resume = true;
  }
}

}  // namespace
}  // namespace tdg::exp
