// Torn-write walk over a cohort journal (the torn-tail rule stated at
// util::ReadDurableJsonl; DESIGN.md §8, §13), following
// sweep_torn_write_test: a crash can cut a journal at ANY byte, its header
// included. For every cut, CohortManager::Open must succeed and restore
// exactly the cohort that the journal's complete lines describe — bitwise,
// RNG stream included — or no cohort at all when the header was cut, and it
// must leave the file ending at its last newline.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "serve/cohort.h"
#include "serve/cohort_manager.h"
#include "sweep_shard_test_util.h"
#include "util/file_util.h"

namespace tdg::serve {
namespace {

TEST(ServeTornWriteTest, OpenRecoversFromEveryTruncationOffset) {
  CohortManager::Options options;
  options.state_dir = test::MakeScratchDir() + "/state";
  const std::string path = options.state_dir + "/rand.cohort";

  // A churny random-policy cohort: the RNG stream is the acid test.
  CohortConfig config;
  config.group_size = 3;
  config.policy = CohortPolicy::kRandom;
  config.mode = InteractionMode::kClique;
  config.learning_rate = 0.2;
  config.seed = 99;
  std::vector<CohortParticipant> participants;
  for (int i = 0; i < 9; ++i) {
    std::string key = "p";
    key += std::to_string(i);
    participants.push_back({key, 1.0 + 0.37 * i});
  }
  const std::vector<CohortOp> ops = {
      {},
      {.kind = CohortOp::kJoin, .key = "late-1", .skill = 2.5},
      {},
      {.kind = CohortOp::kLeave, .key = "p3"},
      {.kind = CohortOp::kJoin, .key = "late-2", .skill = 0.75},
      {},
      {},
  };

  {
    auto manager = CohortManager::Open(options);
    ASSERT_TRUE(manager.ok()) << manager.status();
    ASSERT_TRUE((*manager)->Enroll("rand", config, participants).ok());
    for (const CohortOp& op : ops) {
      ASSERT_TRUE((*manager)->Apply("rand", op).ok());
    }
  }
  // references[j]: the uninterrupted cohort after its first j ops.
  std::vector<Cohort> references;
  {
    auto cohort = Cohort::Create("rand", config, participants);
    ASSERT_TRUE(cohort.ok()) << cohort.status();
    references.push_back(*cohort);
    for (const CohortOp& op : ops) {
      ASSERT_TRUE(cohort->Apply(op).ok());
      references.push_back(*cohort);
    }
  }

  auto content = util::ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  const std::string bytes = *content;
  ASSERT_EQ(bytes.back(), '\n');
  const size_t header_end = bytes.find('\n') + 1;

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                 std::to_string(bytes.size()) + " bytes");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    // The complete lines end at the last newline before the cut.
    const size_t durable =
        cut == 0 ? 0 : bytes.find_last_of('\n', cut - 1) + 1;

    auto restored = CohortManager::Open(options);
    ASSERT_TRUE(restored.ok()) << restored.status();
    if (durable < header_end) {
      // The enroll was never acknowledged: a fresh start.
      EXPECT_EQ((*restored)->num_cohorts(), 0);
      EXPECT_FALSE(util::FileExists(path));
      continue;
    }
    const auto complete_ops = static_cast<size_t>(std::count(
        bytes.begin() + static_cast<std::ptrdiff_t>(header_end),
        bytes.begin() + static_cast<std::ptrdiff_t>(durable), '\n'));
    auto cohort = (*restored)->SnapshotCohort("rand");
    ASSERT_TRUE(cohort.ok()) << cohort.status();
    const Cohort& reference = references[complete_ops];
    ASSERT_EQ(cohort->rounds(), reference.rounds());
    ASSERT_EQ(cohort->participants(), reference.participants());
    // The next round consumes the RNG stream where the reference does.
    Cohort next = reference;
    ASSERT_TRUE(cohort->Advance().ok());
    ASSERT_TRUE(next.Advance().ok());
    ASSERT_EQ(cohort->rounds().back(), next.rounds().back());

    auto healed = util::ReadFileToString(path);
    ASSERT_TRUE(healed.ok());
    EXPECT_EQ(*healed, bytes.substr(0, durable));
  }
}

}  // namespace
}  // namespace tdg::serve
