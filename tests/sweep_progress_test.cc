// Tests for the sweep's --progress line (exp::SweepProgressLine and
// SweepShardOptions::progress): restored cells count toward done but not
// toward the rate, the ETA follows the checkpoint watch's rule, and the
// cell loop's last line reads N/N.

#include <gtest/gtest.h>

#include <string>

#include "exp/sweep_shard.h"
#include "sweep_shard_test_util.h"
#include "util/string_util.h"

namespace tdg::exp {
namespace {

TEST(SweepProgressTest, LineCarriesTheHeadlineNumbers) {
  EXPECT_EQ(SweepProgressLine("paper-grid", 118, 256, 118, 34.5),
            "sweep paper-grid: 118/256 cells (46.1%) | 3.42 cells/s | "
            "eta 40s");
}

TEST(SweepProgressTest, EtaIsUnknownBeforeAndFiniteAfterFirstRunCell) {
  EXPECT_EQ(SweepProgressLine("eta", 0, 10, 0, 0.5),
            "sweep eta: 0/10 cells (0.0%) | 0.00 cells/s | eta ?");
  // One cell in 2 s: 9 to go at 0.5 cells/s.
  EXPECT_EQ(SweepProgressLine("eta", 1, 10, 1, 2.0),
            "sweep eta: 1/10 cells (10.0%) | 0.50 cells/s | eta 18s");
}

TEST(SweepProgressTest, RestoredCellsCountTowardDoneButNotTheRate) {
  // 12 cells restored, 2 run in 4 s: the rate is 0.5 cells/s, not 3.5.
  EXPECT_EQ(SweepProgressLine("resume", 14, 16, 2, 4.0),
            "sweep resume: 14/16 cells (87.5%) | 0.50 cells/s | eta 4s");
  // Restored cells alone give no rate, hence no ETA.
  EXPECT_EQ(SweepProgressLine("resume", 12, 16, 0, 4.0),
            "sweep resume: 12/16 cells (75.0%) | 0.00 cells/s | eta ?");
}

TEST(SweepProgressTest, LastCellReadsHundredPercent) {
  EXPECT_EQ(SweepProgressLine("end", 16, 16, 4, 2.0),
            "sweep end: 16/16 cells (100.0%) | 2.00 cells/s | eta done");
}

TEST(SweepProgressTest, CellLoopPrintsUntilTheLastCell) {
  SweepShardOptions options;
  options.progress = true;
  ::testing::internal::CaptureStderr();
  auto result = RunSweepShard(test::TinyConfig(2), options);
  const std::string printed = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(result.ok()) << result.status();
  // \r-updated lines in count order, the first cell's always among them,
  // then one newline.
  ASSERT_TRUE(util::EndsWith(printed, "\n")) << printed;
  EXPECT_EQ(printed.find("\rsweep shard-test: 1/16 cells"), 0u) << printed;
  const std::string last = printed.substr(printed.rfind('\r'));
  EXPECT_NE(last.find("16/16 cells (100.0%)"), std::string::npos) << last;
  EXPECT_NE(last.find("eta done"), std::string::npos) << last;
}

}  // namespace
}  // namespace tdg::exp
