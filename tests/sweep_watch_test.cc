// Tests for the checkpoint watch behind `tdg_sweepmerge --watch`
// (exp::WatchSweepCheckpoints): each shard's state follows from its
// checkpoint alone — durable records, the shard plan in the header, and
// the file's mtime, which the tests set themselves.

#include "exp/sweep_shard.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>

#include <string>
#include <vector>

#include "sweep_shard_test_util.h"
#include "util/file_util.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace tdg::exp {
namespace {

using test::MakeScratchDir;
using test::MetricsOffGuard;
using test::TinyConfig;

constexpr long long kStaleAfterMs = 10000;

void SetMtime(const std::string& path, long long unix_ms) {
  struct timespec times[2];
  times[0].tv_sec = static_cast<time_t>(unix_ms / 1000);
  times[0].tv_nsec = static_cast<long>(unix_ms % 1000) * 1000000;
  times[1] = times[0];
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

class SweepWatchTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeScratchDir(); }

  // Runs one shard of `config` to completion; returns its checkpoint.
  std::string CompleteShard(const SweepConfig& config, int shard_index,
                            int shard_count) {
    SweepShardOptions options;
    options.shard_index = shard_index;
    options.shard_count = shard_count;
    options.checkpoint_path =
        dir_ + "/" + config.name + std::to_string(shard_index) + ".ckpt";
    auto result = RunSweepShard(config, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return options.checkpoint_path;
  }

  // A checkpoint of the 16-cell TinyConfig shard that has written its
  // header and `cells` cell records, plus `tail` bytes of the next record
  // (a torn final line when non-empty).
  std::string PartialShard(const std::string& name, int cells,
                           const std::string& tail = "") {
    if (complete_.empty()) complete_ = CompleteShard(TinyConfig(), 0, 1);
    auto content = util::ReadFileToString(complete_);
    EXPECT_TRUE(content.ok()) << content.status();
    const std::vector<std::string> lines = util::Split(*content, '\n');
    std::string prefix;
    for (int i = 0; i <= cells; ++i) prefix += lines[i] + "\n";
    const std::string path = dir_ + "/" + name;
    EXPECT_TRUE(util::WriteStringToFile(path, prefix + tail).ok());
    return path;
  }

  SweepWatchFrame Watch(const std::vector<std::string>& paths,
                        long long now_unix_ms,
                        const SweepWatchFrame* previous = nullptr) {
    return WatchSweepCheckpoints(paths, now_unix_ms, kStaleAfterMs, previous);
  }

  MetricsOffGuard metrics_off_;
  std::string dir_;
  std::string complete_;
};

TEST_F(SweepWatchTest, CompletedShardReadsDoneAtAnyAge) {
  const std::string path = CompleteShard(TinyConfig(), 0, 1);
  const long long now = util::UnixMillis();
  SweepWatchFrame frame = Watch({path}, now);
  ASSERT_EQ(frame.rows.size(), 1u);
  EXPECT_EQ(frame.rows[0].state, "done");
  EXPECT_EQ(frame.rows[0].header.name, "shard-test");
  EXPECT_EQ(frame.rows[0].cells_done, 16);
  EXPECT_EQ(frame.rows[0].cells_owned, 16);
  EXPECT_TRUE(frame.all_done);
  EXPECT_NE(frame.table.find("fleet: 16/16 cells done, eta done"),
            std::string::npos)
      << frame.table;

  // A finished shard never goes stale.
  SetMtime(path, now - 3600 * 1000);
  frame = Watch({path}, now);
  EXPECT_EQ(frame.rows[0].state, "done");
  EXPECT_EQ(frame.rows[0].age_ms, 3600 * 1000);
}

TEST_F(SweepWatchTest, PartialShardReadsRunningUntilItsCheckpointAges) {
  const std::string path = PartialShard("partial.ckpt", 5);
  const long long now = util::UnixMillis();
  SetMtime(path, now - 1000);
  SweepWatchFrame frame = Watch({path}, now);
  EXPECT_EQ(frame.rows[0].state, "running");
  EXPECT_EQ(frame.rows[0].cells_done, 5);
  EXPECT_EQ(frame.rows[0].cells_owned, 16);
  EXPECT_FALSE(frame.all_done);

  SetMtime(path, now - kStaleAfterMs - 1);
  frame = Watch({path}, now);
  EXPECT_EQ(frame.rows[0].state, "stale");
  EXPECT_FALSE(frame.all_done);
}

TEST_F(SweepWatchTest, TornTailCountsOnlyDurableRecords) {
  const std::string path =
      PartialShard("torn_tail.ckpt", 5, "{\"record\":\"cell\",\"cell_in");
  SweepWatchFrame frame = Watch({path}, util::UnixMillis());
  EXPECT_EQ(frame.rows[0].state, "running");
  EXPECT_EQ(frame.rows[0].cells_done, 5);
}

TEST_F(SweepWatchTest, NoDurableHeaderOrUnreadableFileReadsTorn) {
  const std::string torn_header = dir_ + "/torn_header.ckpt";
  ASSERT_TRUE(util::WriteStringToFile(
                  torn_header, "{\"record\":\"header\",\"schema\":\"tdg.sw")
                  .ok());
  const std::string empty = dir_ + "/empty.ckpt";
  ASSERT_TRUE(util::WriteStringToFile(empty, "").ok());
  const std::string corrupt = dir_ + "/corrupt.ckpt";
  ASSERT_TRUE(util::WriteStringToFile(corrupt, "not json\n").ok());
  // A header whose shard plan is impossible must not reach the planner.
  const std::string bad_plan = dir_ + "/bad_plan.ckpt";
  ASSERT_TRUE(util::WriteStringToFile(
                  bad_plan,
                  "{\"record\":\"header\",\"schema\":"
                  "\"tdg.sweep_checkpoint.v1\",\"name\":\"x\",\"digest\":"
                  "\"d\",\"shard_index\":3,\"shard_count\":2,"
                  "\"cells_total\":16}\n")
                  .ok());

  SweepWatchFrame frame =
      Watch({torn_header, empty, corrupt, bad_plan}, util::UnixMillis());
  ASSERT_EQ(frame.rows.size(), 4u);
  for (const SweepWatchRow& row : frame.rows) {
    EXPECT_EQ(row.state, "torn") << row.path;
    EXPECT_TRUE(row.header.schema.empty()) << row.path;
  }
  EXPECT_FALSE(frame.all_done);
  EXPECT_NE(frame.table.find("fleet: 0/0 cells done, eta ?"),
            std::string::npos)
      << frame.table;
}

TEST_F(SweepWatchTest, AbsentCheckpointReadsMissing) {
  SweepWatchFrame frame = Watch({dir_ + "/nope.ckpt"}, util::UnixMillis());
  EXPECT_EQ(frame.rows[0].state, "missing");
  EXPECT_FALSE(frame.all_done);
}

TEST_F(SweepWatchTest, FinishedShardThatOwnsNoCellsReadsDone) {
  // A one-cell grid over two shards: shard 0 owns nothing.
  SweepConfig config = TinyConfig();
  config.name = "one-cell";
  config.policies = {"DyGroups-Star"};
  config.n_values = {12};
  config.r_values = {0.25};
  config.modes = {InteractionMode::kStar};
  const std::vector<std::string> paths = {CompleteShard(config, 0, 2),
                                          CompleteShard(config, 1, 2)};
  SweepWatchFrame frame = Watch(paths, util::UnixMillis());
  ASSERT_EQ(frame.rows.size(), 2u);
  EXPECT_EQ(frame.rows[0].cells_owned, 0);
  EXPECT_EQ(frame.rows[0].state, "done");
  EXPECT_EQ(frame.rows[1].cells_owned, 1);
  EXPECT_EQ(frame.rows[1].state, "done");
  EXPECT_TRUE(frame.all_done);
  EXPECT_TRUE(MergeSweepCheckpoints(paths).ok());
}

TEST_F(SweepWatchTest, RateAndEtaComeFromConsecutiveFrames) {
  const std::string path = PartialShard("growing.ckpt", 2);
  const long long now = util::UnixMillis();
  SweepWatchFrame first = Watch({path}, now);
  EXPECT_EQ(first.rows[0].state, "running");
  EXPECT_NE(first.table.find("fleet: 2/16 cells done, eta ?"),
            std::string::npos)
      << first.table;

  // Four more durable records two seconds later: 2 cells/s, 10 to go.
  PartialShard("growing.ckpt", 6);
  SweepWatchFrame second = Watch({path}, now + 2000, &first);
  EXPECT_EQ(second.rows[0].state, "running");
  EXPECT_NE(second.table.find("| 2.0 "), std::string::npos) << second.table;
  EXPECT_NE(second.table.find("fleet: 6/16 cells done, eta 5s"),
            std::string::npos)
      << second.table;
}

TEST_F(SweepWatchTest, FleetFooterTotalsTheReadableShards) {
  // The footer's total is the grid from the readable headers, so shard 1's
  // cells stay "not done" while its checkpoint is missing.
  const std::string shard0 = CompleteShard(TinyConfig(), 0, 2);
  const std::string shard1 = dir_ + "/shard-test1.ckpt";
  SweepWatchFrame frame = Watch({shard0, shard1}, util::UnixMillis());
  ASSERT_EQ(frame.rows.size(), 2u);
  EXPECT_EQ(frame.rows[0].state, "done");
  EXPECT_EQ(frame.rows[0].cells_owned, 8);
  EXPECT_EQ(frame.rows[1].state, "missing");
  EXPECT_FALSE(frame.all_done);
  EXPECT_NE(frame.table.find("fleet: 8/16 cells done, eta ?"),
            std::string::npos)
      << frame.table;

  CompleteShard(TinyConfig(), 1, 2);
  frame = Watch({shard0, shard1}, util::UnixMillis());
  EXPECT_TRUE(frame.all_done);
  EXPECT_NE(frame.table.find("fleet: 16/16 cells done, eta done"),
            std::string::npos)
      << frame.table;

  // Checkpoints of two different grids have no fleet total.
  SweepConfig other = TinyConfig();
  other.name = "other";
  other.n_values = {12};
  frame = Watch({shard0, CompleteShard(other, 0, 1)}, util::UnixMillis());
  EXPECT_NE(frame.table.find("fleet: checkpoints disagree on cells_total"),
            std::string::npos)
      << frame.table;
}

}  // namespace
}  // namespace tdg::exp
