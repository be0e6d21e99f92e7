// Unit tests for the crash-safe sweep execution layer (exp/sweep_shard.h):
// checkpoint write/read round-trips, resume semantics, the digest fatal
// path, failure-path semantics of corrupt checkpoints, the unpersisted
// run behind RunSweep, and the headline contract — shards merged with
// MergeSweepCheckpoints are byte-identical to the uninterrupted
// monolithic RunSweep across 1/2/8 worker threads.

#include "exp/sweep_shard.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "sweep_shard_test_util.h"
#include "util/file_util.h"

namespace tdg::exp {
namespace {

using test::CsvBytes;
using test::JsonBytes;
using test::MakeScratchDir;
using test::MetricsOffGuard;
using test::TinyConfig;

class SweepShardTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeScratchDir(); }

  std::string CheckpointPath(int shard_index) const {
    return dir_ + "/shard" + std::to_string(shard_index) + ".ckpt";
  }

  // Runs every shard to completion, returning the checkpoint paths.
  std::vector<std::string> RunAllShards(const SweepConfig& config,
                                        int shard_count) {
    std::vector<std::string> paths;
    for (int shard = 0; shard < shard_count; ++shard) {
      SweepShardOptions options;
      options.shard_index = shard;
      options.shard_count = shard_count;
      options.checkpoint_path = CheckpointPath(shard);
      auto result = RunSweepShard(config, options);
      EXPECT_TRUE(result.ok()) << result.status();
      paths.push_back(options.checkpoint_path);
    }
    return paths;
  }

  MetricsOffGuard metrics_off_;
  std::string dir_;
};

TEST_F(SweepShardTest, MergedShardsMatchMonolithBytesAcrossThreadCounts) {
  auto reference = RunSweep(TinyConfig(1));
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::string reference_csv = CsvBytes(reference.value());
  const std::string reference_json = JsonBytes(reference.value());

  for (int threads : {1, 2, 8}) {
    for (int shard_count : {1, 2, 3}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shard_count));
      SweepConfig config = TinyConfig(threads);
      dir_ = MakeScratchDir();  // fresh checkpoints per combination
      std::vector<std::string> paths = RunAllShards(config, shard_count);
      auto merged = MergeSweepCheckpoints(paths);
      ASSERT_TRUE(merged.ok()) << merged.status();
      EXPECT_EQ(CsvBytes(merged.value()), reference_csv);
      EXPECT_EQ(JsonBytes(merged.value()), reference_json);
    }
  }
}

TEST_F(SweepShardTest, SingleShardResultEqualsMonolith) {
  auto reference = RunSweep(TinyConfig(1));
  ASSERT_TRUE(reference.ok()) << reference.status();
  SweepShardOptions options;
  options.checkpoint_path = CheckpointPath(0);
  auto shard = RunSweepShard(TinyConfig(1), options);
  ASSERT_TRUE(shard.ok()) << shard.status();
  EXPECT_EQ(CsvBytes(shard->result), CsvBytes(reference.value()));
  EXPECT_EQ(JsonBytes(shard->result), JsonBytes(reference.value()));
}

TEST_F(SweepShardTest, CheckpointRoundTripsThroughReader) {
  SweepConfig config = TinyConfig(1);
  RunAllShards(config, 2);
  auto checkpoint = ReadSweepCheckpoint(CheckpointPath(0));
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  EXPECT_EQ(checkpoint->header.schema, kSweepCheckpointSchema);
  EXPECT_EQ(checkpoint->header.name, config.name);
  EXPECT_EQ(checkpoint->header.digest, SweepDigest(config));
  EXPECT_EQ(checkpoint->header.shard_index, 0);
  EXPECT_EQ(checkpoint->header.shard_count, 2);
  EXPECT_EQ(checkpoint->header.cells_total, 16);
  EXPECT_EQ(checkpoint->cells.size(), 8u);
  EXPECT_FALSE(checkpoint->torn_tail_dropped);
  for (const SweepCheckpointCell& record : checkpoint->cells) {
    const CellSeeds seeds =
        SeedsForCell(config.seed, record.cell_index,
                     config.policies.size());
    EXPECT_EQ(record.point_seed, seeds.point_seed);
    EXPECT_EQ(record.policy_seed, seeds.policy_seed);
    EXPECT_EQ(static_cast<int>(record.run_gains.size()),
              record.cell.runs);
  }
}

TEST_F(SweepShardTest, DigestIgnoresThreadsButNotSeedOrGrid) {
  const std::string base = SweepDigest(TinyConfig(1));
  EXPECT_EQ(SweepDigest(TinyConfig(8)), base);
  SweepConfig reseeded = TinyConfig(1);
  reseeded.seed = 8;
  EXPECT_NE(SweepDigest(reseeded), base);
  SweepConfig regridded = TinyConfig(1);
  regridded.n_values = {12};
  EXPECT_NE(SweepDigest(regridded), base);
}

TEST_F(SweepShardTest, ResumeOfCompleteShardRunsNothing) {
  SweepConfig config = TinyConfig(2);
  SweepShardOptions options;
  options.shard_index = 0;
  options.shard_count = 2;
  options.checkpoint_path = CheckpointPath(0);
  auto first = RunSweepShard(config, options);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->cells_run, 8);

  options.resume = true;
  auto second = RunSweepShard(config, options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->cells_restored, 8);
  EXPECT_EQ(second->cells_run, 0);
  EXPECT_EQ(CsvBytes(second->result), CsvBytes(first->result));
}

TEST_F(SweepShardTest, ResumeRerunsOnlyDroppedCellsEvenWithNewThreadCount) {
  SweepConfig config = TinyConfig(1);
  SweepShardOptions options;
  options.checkpoint_path = CheckpointPath(0);
  auto full = RunSweepShard(config, options);
  ASSERT_TRUE(full.ok()) << full.status();

  // Drop the last two complete records (simulating a crash after cell 14).
  auto content = util::ReadFileToString(options.checkpoint_path);
  ASSERT_TRUE(content.ok());
  std::string text = content.value();
  for (int i = 0; i < 2; ++i) {
    text.erase(text.find_last_of('\n', text.size() - 2) + 1);
  }
  ASSERT_TRUE(util::WriteFileAtomic(options.checkpoint_path, text).ok());

  config.threads = 8;  // thread count is not part of the identity digest
  options.resume = true;
  auto resumed = RunSweepShard(config, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->cells_restored, 14);
  EXPECT_EQ(resumed->cells_run, 2);
  EXPECT_EQ(CsvBytes(resumed->result), CsvBytes(full->result));
  EXPECT_EQ(JsonBytes(resumed->result), JsonBytes(full->result));
}

TEST_F(SweepShardTest, ExistingCheckpointWithoutResumeIsRefused) {
  SweepConfig config = TinyConfig(1);
  SweepShardOptions options;
  options.checkpoint_path = CheckpointPath(0);
  ASSERT_TRUE(RunSweepShard(config, options).ok());
  auto again = RunSweepShard(config, options);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(SweepShardTest, UnpersistedRunWritesNothingAndMatchesCheckpointedRun) {
  // Run from inside the empty scratch dir, so a stray relative-path write
  // would show up in it.
  char cwd[4096];
  ASSERT_NE(::getcwd(cwd, sizeof(cwd)), nullptr);
  ASSERT_EQ(::chdir(dir_.c_str()), 0);
  auto unpersisted = RunSweepShard(TinyConfig(2), SweepShardOptions{});
  ASSERT_EQ(::chdir(cwd), 0);
  ASSERT_TRUE(unpersisted.ok()) << unpersisted.status();
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
  EXPECT_EQ(unpersisted->cells_run, 16);
  EXPECT_EQ(unpersisted->cells_restored, 0);

  SweepShardOptions options;
  options.checkpoint_path = CheckpointPath(0);
  auto checkpointed = RunSweepShard(TinyConfig(2), options);
  ASSERT_TRUE(checkpointed.ok()) << checkpointed.status();
  EXPECT_EQ(CsvBytes(unpersisted->result), CsvBytes(checkpointed->result));
  EXPECT_EQ(JsonBytes(unpersisted->result),
            JsonBytes(checkpointed->result));
  EXPECT_EQ(unpersisted->cell_indices, checkpointed->cell_indices);
}

TEST_F(SweepShardTest, ShardedOrResumedRunWithoutCheckpointIsInvalid) {
  SweepShardOptions sharded;
  sharded.shard_count = 2;
  auto result = RunSweepShard(TinyConfig(1), sharded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);

  SweepShardOptions resumed;
  resumed.resume = true;
  result = RunSweepShard(TinyConfig(1), resumed);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(SweepShardTest, ResumeUnderDifferentShardGeometryIsRefused) {
  SweepConfig config = TinyConfig(1);
  SweepShardOptions options;
  options.shard_index = 0;
  options.shard_count = 2;
  options.checkpoint_path = CheckpointPath(0);
  ASSERT_TRUE(RunSweepShard(config, options).ok());
  options.shard_count = 4;
  options.resume = true;
  auto result = RunSweepShard(config, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(SweepShardTest, MidFileCorruptionIsAHardError) {
  SweepConfig config = TinyConfig(1);
  SweepShardOptions options;
  options.checkpoint_path = CheckpointPath(0);
  ASSERT_TRUE(RunSweepShard(config, options).ok());

  // Overwrite the second line (first cell record) with newline-terminated
  // garbage. That cannot come from a torn append — it is corruption.
  auto content = util::ReadFileToString(options.checkpoint_path);
  ASSERT_TRUE(content.ok());
  std::string text = content.value();
  const size_t first_newline = text.find('\n');
  const size_t second_newline = text.find('\n', first_newline + 1);
  text.replace(first_newline + 1, second_newline - first_newline - 1,
               "{not json!");
  ASSERT_TRUE(util::WriteFileAtomic(options.checkpoint_path, text).ok());

  auto checkpoint = ReadSweepCheckpoint(options.checkpoint_path);
  ASSERT_FALSE(checkpoint.ok());
  EXPECT_NE(checkpoint.status().message().find("malformed"),
            std::string::npos)
      << checkpoint.status();
}

TEST_F(SweepShardTest, DuplicateCellRecordIsAHardError) {
  SweepConfig config = TinyConfig(1);
  SweepShardOptions options;
  options.checkpoint_path = CheckpointPath(0);
  ASSERT_TRUE(RunSweepShard(config, options).ok());

  auto content = util::ReadFileToString(options.checkpoint_path);
  ASSERT_TRUE(content.ok());
  std::string text = content.value();
  const size_t first_newline = text.find('\n');
  const size_t second_newline = text.find('\n', first_newline + 1);
  // Re-append the first cell record verbatim.
  text += text.substr(first_newline + 1,
                      second_newline - first_newline);
  ASSERT_TRUE(util::WriteFileAtomic(options.checkpoint_path, text).ok());

  auto checkpoint = ReadSweepCheckpoint(options.checkpoint_path);
  ASSERT_FALSE(checkpoint.ok());
  EXPECT_NE(checkpoint.status().message().find("duplicate"),
            std::string::npos)
      << checkpoint.status();
}

TEST_F(SweepShardTest, MergeRefusesIncompleteCoverage) {
  SweepConfig config = TinyConfig(1);
  RunAllShards(config, 2);
  auto merged = MergeSweepCheckpoints({CheckpointPath(0)});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_NE(merged.status().message().find("missing"), std::string::npos)
      << merged.status();
}

TEST_F(SweepShardTest, MergeRefusesOverlappingShards) {
  SweepConfig config = TinyConfig(1);
  std::vector<std::string> paths = RunAllShards(config, 2);
  auto merged =
      MergeSweepCheckpoints({paths[0], paths[1], paths[0]});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("more than one checkpoint"),
            std::string::npos)
      << merged.status();
}

TEST_F(SweepShardTest, TornHeaderDegeneratesToFreshStart) {
  // A crash can land before even the header's newline reached disk. The
  // torn header is dropped and the shard starts over — no error, no
  // leftover bytes.
  SweepShardOptions options;
  options.checkpoint_path = CheckpointPath(0);
  std::ofstream out(options.checkpoint_path, std::ios::binary);
  out << "{\"record\":\"header\",\"schema\":\"tdg.swe";  // no newline
  out.close();
  options.resume = true;
  auto result = RunSweepShard(TinyConfig(1), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->cells_restored, 0);
  EXPECT_EQ(result->cells_run, 16);
  EXPECT_TRUE(result->torn_tail_dropped);
  auto checkpoint = ReadSweepCheckpoint(options.checkpoint_path);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  EXPECT_EQ(checkpoint->cells.size(), 16u);
}

using SweepShardDeathTest = SweepShardTest;

TEST_F(SweepShardDeathTest, DigestMismatchOnResumeDiesLoudly) {
  // Resuming the same checkpoint under a different config (here: a
  // different seed — same effect as a rebuilt binary) must abort the
  // process, not quietly mix incomparable cells.
  SweepConfig config = TinyConfig(1);
  SweepShardOptions options;
  options.checkpoint_path = CheckpointPath(0);
  ASSERT_TRUE(RunSweepShard(config, options).ok());

  SweepConfig other = config;
  other.seed = 8;
  options.resume = true;
  EXPECT_DEATH((void)RunSweepShard(other, options),
               "checkpoint digest mismatch");
}

}  // namespace
}  // namespace tdg::exp
