// Property test for the serving plane under churn: ~200 randomized
// join/leave/advance schedules across all three policies, checking on every
// advanced round that
//
//   * every resident is grouped (keys/assignment cover exactly the current
//     population),
//   * group sizes stay within the m/m+1 policy bounds (single group of n
//     when n < m),
//   * the round gain is finite and non-negative,
//
// that every generated op survives AppendCohortOpJson → ParseCohortOp
// unchanged, that Cohort::Check answers every join, leave, rejoin,
// duplicate join and advance with the status (code and message) of a
// linear scan of the residents, and, for a sample of schedules, that
// journaling the schedule to disk and replaying it through
// CohortManager::Open reconstructs the cohort bitwise — rounds, skills,
// and the RNG stream position (checked by advancing once more on both
// sides).
//
// Seeds are fixed: the schedule corpus is identical on every run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "random/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "serve/cohort.h"
#include "serve/cohort_manager.h"
#include "sweep_shard_test_util.h"
#include "util/json.h"

namespace tdg::serve {
namespace {

struct Schedule {
  CohortConfig config;
  std::vector<CohortParticipant> initial;
  std::vector<CohortOp> ops;
};

Schedule RandomSchedule(random::Rng& rng, int index) {
  Schedule schedule;
  schedule.config.group_size = 2 + static_cast<int>(rng.NextBounded(4));
  switch (rng.NextBounded(3)) {
    case 0:
      schedule.config.policy = CohortPolicy::kStar;
      break;
    case 1:
      schedule.config.policy = CohortPolicy::kClique;
      break;
    default:
      schedule.config.policy = CohortPolicy::kRandom;
      break;
  }
  schedule.config.mode = rng.NextBounded(2) == 0 ? InteractionMode::kStar
                                                 : InteractionMode::kClique;
  schedule.config.learning_rate = 0.05 + 0.9 * rng.NextDouble();
  schedule.config.seed = 1 + rng.NextBounded(1000000);

  int next_key = 0;
  auto fresh_key = [&next_key, index] {
    // Built with += to dodge GCC 12's false -Wrestrict (PR105651) on
    // `"s" + std::to_string(...)` in Release builds.
    std::string key = "s";
    key += std::to_string(index);
    key += "-p";
    key += std::to_string(next_key++);
    return key;
  };
  auto fresh_skill = [&rng] { return 0.25 + 4.0 * rng.NextDouble(); };

  uint64_t initial_count = 1 + rng.NextBounded(12);
  for (uint64_t i = 0; i < initial_count; ++i) {
    schedule.initial.push_back({fresh_key(), fresh_skill()});
  }

  // Track the live population so leaves always target a resident and the
  // cohort never empties (an empty cohort cannot advance, which is its own
  // test elsewhere — here every advance must succeed).
  std::vector<std::string> resident;
  for (const CohortParticipant& participant : schedule.initial) {
    resident.push_back(participant.key);
  }
  uint64_t op_count = 6 + rng.NextBounded(15);
  for (uint64_t i = 0; i < op_count; ++i) {
    switch (rng.NextBounded(4)) {
      case 0: {
        CohortOp op{.kind = CohortOp::kJoin,
                    .key = fresh_key(),
                    .skill = fresh_skill()};
        resident.push_back(op.key);
        schedule.ops.push_back(std::move(op));
        break;
      }
      case 1: {
        if (resident.size() <= 1) {
          schedule.ops.push_back({});
          break;
        }
        size_t victim = rng.NextBounded(resident.size());
        schedule.ops.push_back(
            {.kind = CohortOp::kLeave, .key = resident[victim]});
        resident.erase(resident.begin() +
                       static_cast<std::ptrdiff_t>(victim));
        break;
      }
      default:
        schedule.ops.push_back({});
        break;
    }
  }
  // Every schedule ends with at least one round.
  schedule.ops.push_back({});
  return schedule;
}

/// The per-round invariants, checked against the population that was
/// resident when the round ran.
void CheckRound(const CohortRound& round,
                const std::vector<std::string>& population, int group_size,
                const std::string& context) {
  SCOPED_TRACE(context);
  const int n = static_cast<int>(population.size());
  ASSERT_NE(round.ids, nullptr);
  ASSERT_NE(round.assignment, nullptr);
  std::vector<std::string> keys;
  for (size_t i = 0; i < round.ids->size(); ++i) keys.push_back(round.key(i));
  ASSERT_EQ(keys, population) << "a resident was not grouped";
  ASSERT_EQ(round.assignment->size(), population.size());
  ASSERT_GE(round.num_groups, 1);
  std::vector<int> sizes(static_cast<size_t>(round.num_groups), 0);
  for (int group : *round.assignment) {
    ASSERT_GE(group, 0);
    ASSERT_LT(group, round.num_groups);
    ++sizes[static_cast<size_t>(group)];
  }
  if (n < group_size) {
    EXPECT_EQ(round.num_groups, 1);
    EXPECT_EQ(sizes[0], n);
  } else {
    // Balanced profile: k = floor(n/m) groups of floor(n/k) / ceil(n/k),
    // so no group is undersized and the spread is at most one.
    const int k = n / group_size;
    EXPECT_EQ(round.num_groups, k);
    const auto [smallest, largest] =
        std::minmax_element(sizes.begin(), sizes.end());
    EXPECT_GE(*smallest, group_size) << "undersized group";
    EXPECT_EQ(*smallest, n / k);
    EXPECT_LE(*largest - *smallest, 1) << "unbalanced groups";
  }
  EXPECT_TRUE(std::isfinite(round.gain));
  EXPECT_GE(round.gain, 0.0);
}

TEST(ServeChurnPropertyTest, RandomSchedulesKeepEveryRoundWithinPolicy) {
  random::Rng rng(0x5EDC0117ull);
  for (int index = 0; index < 200; ++index) {
    Schedule schedule = RandomSchedule(rng, index);
    SCOPED_TRACE("schedule " + std::to_string(index));
    auto cohort = Cohort::Create("churn", schedule.config, schedule.initial);
    ASSERT_TRUE(cohort.ok()) << cohort.status();

    std::vector<std::string> population;
    for (const CohortParticipant& participant : schedule.initial) {
      population.push_back(participant.key);
    }
    int rounds = 0;
    for (size_t i = 0; i < schedule.ops.size(); ++i) {
      const CohortOp& op = schedule.ops[i];
      // The journal's grammar carries every generated op exactly.
      std::string line;
      AppendCohortOpJson(op, line);
      auto json = util::JsonValue::Parse(line);
      ASSERT_TRUE(json.ok()) << json.status();
      auto parsed = ParseCohortOp(*json);
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      ASSERT_EQ(*parsed, op) << line;

      util::Status applied = cohort->Apply(op);
      ASSERT_TRUE(applied.ok()) << applied;
      switch (op.kind) {
        case CohortOp::kJoin:
          population.push_back(op.key);
          break;
        case CohortOp::kLeave: {
          auto at = std::find(population.begin(), population.end(), op.key);
          ASSERT_NE(at, population.end());
          population.erase(at);
          break;
        }
        case CohortOp::kAdvance: {
          ASSERT_EQ(cohort->rounds_advanced(), rounds + 1);
          CheckRound(cohort->rounds().back(), population,
                     schedule.config.group_size,
                     "op " + std::to_string(i) + " (round " +
                         std::to_string(rounds) + ")");
          ++rounds;
          break;
        }
      }
    }
    EXPECT_EQ(cohort->num_participants(),
              static_cast<int>(population.size()));
  }
}

TEST(ServeChurnPropertyTest, JournaledSchedulesReplayBitwise) {
  // A sample of randomized schedules, each run twice: once through a
  // disk-backed manager that is then dropped and reopened (journal replay),
  // once through an in-memory manager as the uninterrupted reference.
  random::Rng rng(0x0BADF00Dull);
  const std::string scratch = test::MakeScratchDir();
  for (int index = 0; index < 25; ++index) {
    Schedule schedule = RandomSchedule(rng, index);
    SCOPED_TRACE("schedule " + std::to_string(index));
    const std::string id = "replay-" + std::to_string(index);
    CohortManager::Options disk;
    disk.state_dir = scratch + "/state-" + std::to_string(index);

    auto apply = [&schedule, &id](CohortManager& manager) {
      ASSERT_TRUE(
          manager.Enroll(id, schedule.config, schedule.initial).ok());
      for (const CohortOp& op : schedule.ops) {
        ASSERT_TRUE(manager.Apply(id, op).ok());
      }
    };

    {
      auto durable = CohortManager::Open(disk);
      ASSERT_TRUE(durable.ok()) << durable.status();
      apply(**durable);
    }  // process "dies"; only the journal survives

    auto reference = CohortManager::Open({});
    ASSERT_TRUE(reference.ok()) << reference.status();
    apply(**reference);

    auto restored = CohortManager::Open(disk);
    ASSERT_TRUE(restored.ok()) << restored.status();
    ASSERT_EQ((*restored)->restored_cohorts(), 1);
    auto restored_cohort = (*restored)->SnapshotCohort(id);
    auto reference_cohort = (*reference)->SnapshotCohort(id);
    ASSERT_TRUE(restored_cohort.ok()) << restored_cohort.status();
    ASSERT_TRUE(reference_cohort.ok());
    // Deep == on CohortRound (key and assignment contents, not epoch
    // identity), defaulted == on CohortParticipant: exact doubles.
    ASSERT_EQ(restored_cohort->rounds(), reference_cohort->rounds());
    ASSERT_EQ(restored_cohort->participants(),
              reference_cohort->participants());

    // RNG stream position: the next round after restore must match the
    // uninterrupted run's next round (bitwise, including kRandom cohorts).
    auto restored_gain = (*restored)->Advance(id);
    auto reference_gain = (*reference)->Advance(id);
    ASSERT_TRUE(restored_gain.ok()) << restored_gain.status();
    ASSERT_TRUE(reference_gain.ok());
    ASSERT_EQ(*restored_gain, *reference_gain);
    const int last = restored_cohort->rounds_advanced();
    auto restored_round = (*restored)->GetRound(id, last);
    auto reference_round = (*reference)->GetRound(id, last);
    ASSERT_TRUE(restored_round.ok());
    ASSERT_TRUE(reference_round.ok());
    ASSERT_EQ(*restored_round, *reference_round);
  }
}

/// What Check answered when it scanned the residents linearly: the
/// reference for the key table's O(1) residency.
util::Status LinearScanCheck(const Cohort& cohort, const CohortOp& op) {
  bool resident = false;
  for (const CohortParticipant& participant : cohort.participants()) {
    resident = resident || participant.key == op.key;
  }
  switch (op.kind) {
    case CohortOp::kJoin:
      if (util::Status key = ValidateParticipantKey(op.key); !key.ok()) {
        return key;
      }
      if (!(op.skill > 0.0) || !std::isfinite(op.skill)) {
        return util::Status::InvalidArgument(util::StrFormat(
            "skill must be a finite positive number, got %g", op.skill));
      }
      if (resident) {
        return util::Status::FailedPrecondition(util::StrFormat(
            "participant '%s' is already resident in cohort '%s'",
            op.key.c_str(), cohort.id().c_str()));
      }
      return util::Status::OK();
    case CohortOp::kLeave:
      if (!resident) {
        return util::Status::NotFound(util::StrFormat(
            "participant '%s' is not resident in cohort '%s'",
            op.key.c_str(), cohort.id().c_str()));
      }
      return util::Status::OK();
    case CohortOp::kAdvance:
      if (cohort.participants().empty()) {
        return util::Status::FailedPrecondition(util::StrFormat(
            "cohort '%s' has no residents to group", cohort.id().c_str()));
      }
      return util::Status::OK();
  }
  return util::Status::InvalidArgument("unknown cohort op");
}

TEST(ServeChurnPropertyTest, CheckMatchesALinearResidencyScan) {
  random::Rng rng(0xC4EC4ull);
  for (int index = 0; index < 100; ++index) {
    SCOPED_TRACE("schedule " + std::to_string(index));
    CohortConfig config;
    config.group_size = 2 + static_cast<int>(rng.NextBounded(3));
    // Every key the schedule has used; joins and leaves draw from it, so
    // they hit residents, keys that left, and (for leaves) keys never seen.
    std::vector<std::string> used;
    auto fresh_key = [&used] {
      std::string key = "k";
      key += std::to_string(used.size());
      used.push_back(std::move(key));
      return used.back();
    };
    std::vector<CohortParticipant> initial;
    const uint64_t initial_count = rng.NextBounded(8);
    for (uint64_t i = 0; i < initial_count; ++i) {
      initial.push_back({fresh_key(), 1.0 + static_cast<double>(i)});
    }
    auto cohort = Cohort::Create("parity", config, initial);
    ASSERT_TRUE(cohort.ok()) << cohort.status();

    for (int i = 0; i < 60; ++i) {
      CohortOp op;
      const uint64_t draw = rng.NextBounded(10);
      if (draw < 2) {
        op = {.kind = CohortOp::kJoin, .key = fresh_key()};
      } else if (draw < 5 && !used.empty()) {
        // A rejoin, or a duplicate join when the key is resident.
        op = {.kind = CohortOp::kJoin,
              .key = used[rng.NextBounded(used.size())]};
      } else if (draw < 8 && !used.empty()) {
        op = {.kind = CohortOp::kLeave,
              .key = used[rng.NextBounded(used.size())]};
      } else if (draw < 9) {
        op = {.kind = CohortOp::kLeave, .key = "never-seen"};
      }
      if (op.kind == CohortOp::kJoin) {
        // Mostly valid skills; a bad one must win over residency.
        const uint64_t skill = rng.NextBounded(20);
        op.skill = skill == 0   ? 0.0
                   : skill == 1 ? -1.0
                                : 0.5 + rng.NextDouble();
      }
      SCOPED_TRACE("op " + std::to_string(i));
      const util::Status expected = LinearScanCheck(*cohort, op);
      const util::Status checked = cohort->Check(op);
      ASSERT_EQ(checked.code(), expected.code()) << checked;
      ASSERT_EQ(checked.message(), expected.message());
      const util::Status applied = cohort->Apply(op);
      ASSERT_EQ(applied.code(), expected.code()) << applied;
      ASSERT_EQ(applied.message(), expected.message());
      if (applied.ok() && op.kind == CohortOp::kAdvance) {
        std::vector<std::string> population;
        for (const CohortParticipant& participant : cohort->participants()) {
          population.push_back(participant.key);
        }
        CheckRound(cohort->rounds().back(), population, config.group_size,
                   "round " + std::to_string(cohort->rounds_advanced() - 1));
      }
    }
  }
}

}  // namespace
}  // namespace tdg::serve
