// Tests for the serving plane's resident state machine (serve::Cohort) and
// its write-ahead journal layer (serve::CohortManager):
//
//   * equivalence — a churn-free, evenly divisible cohort reproduces the
//     batch core::RunProcess run *bitwise* (groupings, gains, skills),
//     which is what makes served groupings offline-auditable;
//   * the m/m+1 size profile and the join/leave/advance validation grammar,
//     and the strict integer fields of the enroll config;
//   * durability — journals replay to bitwise-identical state (RNG stream
//     included), a torn final line is healed, a corrupt middle line or a
//     foreign digest is refused, and a restored cohort's *future* rounds
//     match an uninterrupted one's.

#include "serve/cohort.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/dygroups.h"
#include "core/process.h"
#include "serve/cohort_manager.h"
#include "serve/cohort_server.h"
#include "sweep_shard_test_util.h"
#include "util/file_util.h"
#include "util/json.h"
#include "util/net.h"

namespace tdg::serve {
namespace {

std::vector<CohortParticipant> MakeParticipants(int n) {
  std::vector<CohortParticipant> participants;
  for (int i = 0; i < n; ++i) {
    // Built with += rather than `"p" + std::to_string(i)` to dodge GCC 12's
    // -Wrestrict false positive (PR105651) on rvalue string concatenation.
    std::string key = "p";
    key += std::to_string(i);
    participants.push_back({std::move(key), 1.0 + 0.37 * static_cast<double>(i)});
  }
  return participants;
}

CohortConfig StarConfig(int group_size) {
  CohortConfig config;
  config.group_size = group_size;
  config.policy = CohortPolicy::kStar;
  config.mode = InteractionMode::kStar;
  config.learning_rate = 0.25;
  return config;
}

TEST(ServeCohortTest, SizeProfileCoversAllRegimes) {
  // n < m: one undersized group.
  auto tiny = Cohort::SizeProfileFor(3, 5);
  ASSERT_TRUE(tiny.ok()) << tiny.status();
  EXPECT_EQ(*tiny, std::vector<int>({3}));
  // Even split.
  auto even = Cohort::SizeProfileFor(12, 4);
  ASSERT_TRUE(even.ok()) << even.status();
  EXPECT_EQ(*even, std::vector<int>({4, 4, 4}));
  // Remainder spreads +1 over the first groups.
  auto ragged = Cohort::SizeProfileFor(14, 4);
  ASSERT_TRUE(ragged.ok()) << ragged.status();
  EXPECT_EQ(*ragged, std::vector<int>({5, 5, 4}));
  // m <= n < 2m: one group absorbs the whole remainder (an m/m+1 split
  // does not exist — the original spread-over-k loop overflowed here).
  auto absorbed = Cohort::SizeProfileFor(7, 5);
  ASSERT_TRUE(absorbed.ok()) << absorbed.status();
  EXPECT_EQ(*absorbed, std::vector<int>({7}));
  // n mod m > k but k > 1: balanced, never undersized.
  auto balanced = Cohort::SizeProfileFor(11, 4);
  ASSERT_TRUE(balanced.ok()) << balanced.status();
  EXPECT_EQ(*balanced, std::vector<int>({6, 5}));

  EXPECT_FALSE(Cohort::SizeProfileFor(0, 4).ok());
  EXPECT_FALSE(Cohort::SizeProfileFor(4, 0).ok());
}

TEST(ServeCohortTest, ValidationGrammar) {
  EXPECT_TRUE(ValidateCohortId("algebra-101_B").ok());
  EXPECT_FALSE(ValidateCohortId("").ok());
  EXPECT_FALSE(ValidateCohortId("has space").ok());
  EXPECT_FALSE(ValidateCohortId("slash/y").ok());
  EXPECT_FALSE(ValidateCohortId(std::string(65, 'a')).ok());

  EXPECT_TRUE(ValidateParticipantKey("alice@example").ok());
  EXPECT_FALSE(ValidateParticipantKey("").ok());
  EXPECT_FALSE(ValidateParticipantKey("a/b").ok());
  EXPECT_FALSE(ValidateParticipantKey("quo\"te").ok());
  EXPECT_FALSE(ValidateParticipantKey("ctrl\x01").ok());

  // An initial list that repeats a key names the first repeat.
  auto repeated = MakeParticipants(4);
  repeated.push_back({"p2", 9.0});
  repeated.push_back({"p1", 9.0});
  auto duplicate = Cohort::Create("c", StarConfig(2), repeated);
  EXPECT_EQ(duplicate.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(duplicate.status().message(),
            "participant 'p2' is already resident in cohort 'c'");

  auto cohort = Cohort::Create("c", StarConfig(2), MakeParticipants(4));
  ASSERT_TRUE(cohort.ok()) << cohort.status();
  // Join: bad skills and duplicates.
  EXPECT_EQ(cohort->Join("x", 0.0).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(cohort->Join("x", -1.0).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(cohort->Join("p0", 2.0).code(),
            util::StatusCode::kFailedPrecondition);
  // Leave: absent key.
  EXPECT_EQ(cohort->Leave("ghost").code(), util::StatusCode::kNotFound);
  // Leave preserves insertion order of the others.
  ASSERT_TRUE(cohort->Leave("p1").ok());
  ASSERT_EQ(cohort->num_participants(), 3);
  EXPECT_EQ(cohort->participants()[0].key, "p0");
  EXPECT_EQ(cohort->participants()[1].key, "p2");
  EXPECT_EQ(cohort->participants()[2].key, "p3");
  // Advance on an empty cohort is a precondition failure.
  for (const char* key : {"p0", "p2", "p3"}) {
    ASSERT_TRUE(cohort->Leave(key).ok());
  }
  EXPECT_EQ(cohort->Advance().status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(ServeCohortTest, ConfigFromJsonIsStrictOnIntegerFields) {
  auto parse = [](const std::string& text) {
    auto json = util::JsonValue::Parse(text);
    EXPECT_TRUE(json.ok()) << text;
    return CohortConfig::FromJson(*json);
  };
  auto config = parse(R"({"group_size": 3, "seed": 9007199254740992})");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->group_size, 3);
  EXPECT_EQ(config->seed, uint64_t{1} << 53);
  EXPECT_TRUE(parse(R"({"seed": 0})").ok());

  // Non-integers and values outside the field's range are refused before
  // any cast: group_size is an int, and the seed must survive the journal
  // header's signed 64-bit round trip.
  for (const char* bad :
       {R"({"group_size": 2.5})", R"({"group_size": 1e10})",
        R"({"group_size": -1e10})", R"({"group_size": 1e20})",
        R"({"group_size": -1})", R"({"seed": -1})", R"({"seed": 2.5})",
        R"({"seed": 1e19})", R"({"seed": 1e20})"}) {
    EXPECT_EQ(parse(bad).status().code(), util::StatusCode::kInvalidArgument)
        << bad;
  }

  // Over HTTP the same refusal is a 400 on enroll.
  auto manager = CohortManager::Open({});
  ASSERT_TRUE(manager.ok()) << manager.status();
  auto server = CohortServer::Start(manager->get(), {});
  ASSERT_TRUE(server.ok()) << server.status();
  auto response = util::net::HttpDo(
      (*server)->port(), "POST", "/cohorts",
      R"({"id": "frac", "config": {"group_size": 2.5},)"
      R"( "participants": [{"key": "a", "skill": 1.0}]})");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(*util::net::HttpStatusCode(*response), 400) << *response;
  EXPECT_NE(response->find("group_size"), std::string::npos) << *response;
  EXPECT_EQ((*manager)->num_cohorts(), 0);
}

// The load-bearing equivalence: a churn-free cohort whose size divides
// evenly reproduces the batch RunProcess run bitwise, for both DyGroups
// policies. (The sized-grouping constructions reduce exactly to the
// equi-sized algorithms on an all-equal profile, and both drivers run the
// same ApplyRound kernel.)
TEST(ServeCohortTest, ChurnFreeCohortMatchesRunProcessBitwise) {
  const int n = 12, group_size = 3, rounds = 6;
  struct Case {
    CohortPolicy policy;
    InteractionMode mode;
  };
  for (const Case& c : {Case{CohortPolicy::kStar, InteractionMode::kStar},
                        Case{CohortPolicy::kClique,
                             InteractionMode::kClique}}) {
    CohortConfig config;
    config.group_size = group_size;
    config.policy = c.policy;
    config.mode = c.mode;
    config.learning_rate = 0.3;
    auto participants = MakeParticipants(n);
    auto cohort = Cohort::Create("equiv", config, participants);
    ASSERT_TRUE(cohort.ok()) << cohort.status();
    for (int t = 0; t < rounds; ++t) {
      ASSERT_TRUE(cohort->Advance().ok());
    }

    SkillVector skills;
    for (const CohortParticipant& participant : participants) {
      skills.push_back(participant.skill);
    }
    auto gain = LinearGain::Create(config.learning_rate);
    ASSERT_TRUE(gain.ok());
    ProcessConfig process_config;
    process_config.num_groups = n / group_size;
    process_config.num_rounds = rounds;
    process_config.mode = c.mode;
    process_config.record_history = true;
    auto policy = MakeDyGroupsPolicy(c.mode);
    auto result = RunProcess(skills, process_config, *gain, *policy);
    ASSERT_TRUE(result.ok()) << result.status();

    ASSERT_EQ(cohort->rounds_advanced(), rounds);
    for (int t = 0; t < rounds; ++t) {
      const CohortRound& round =
          cohort->rounds()[static_cast<size_t>(t)];
      const RoundRecord& record =
          result->history[static_cast<size_t>(t)];
      // Gains bitwise (== on doubles, no tolerance).
      EXPECT_EQ(round.gain,
                result->round_gains[static_cast<size_t>(t)])
          << "round " << t;
      // Same partition with the same group labels.
      std::vector<int> expected(static_cast<size_t>(n), 0);
      for (size_t g = 0; g < record.grouping.groups.size(); ++g) {
        for (int id : record.grouping.groups[g]) {
          expected[static_cast<size_t>(id)] = static_cast<int>(g);
        }
      }
      EXPECT_EQ(*round.assignment, expected) << "round " << t;
    }
    // Final skills bitwise.
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(cohort->participants()[static_cast<size_t>(i)].skill,
                result->final_skills[static_cast<size_t>(i)])
          << "participant " << i;
    }
  }
}

TEST(ServeCohortTest, KeyEpochsAreSharedUntilChurn) {
  auto cohort = Cohort::Create("epochs", StarConfig(3), MakeParticipants(7));
  ASSERT_TRUE(cohort.ok()) << cohort.status();
  const std::vector<std::string> enrolled = {"p0", "p1", "p2", "p3",
                                             "p4", "p5", "p6"};
  ASSERT_TRUE(cohort->Advance().ok());
  ASSERT_TRUE(cohort->Advance().ok());
  ASSERT_TRUE(cohort->Join("late", 2.0).ok());
  ASSERT_TRUE(cohort->Advance().ok());
  // Held by value across the Leave: a round never changes after the fact.
  const CohortRound with_late = cohort->rounds()[2];
  ASSERT_TRUE(cohort->Leave("p2").ok());
  ASSERT_TRUE(cohort->Advance().ok());
  ASSERT_TRUE(cohort->Advance().ok());

  const std::vector<CohortRound>& rounds = cohort->rounds();
  ASSERT_EQ(rounds.size(), 5u);
  // No churn between rounds 0 and 1, nor between 3 and 4: one epoch each.
  EXPECT_EQ(rounds[0].keys, rounds[1].keys);
  EXPECT_EQ(rounds[3].keys, rounds[4].keys);
  // A Join, and then a Leave, each start a new epoch.
  EXPECT_NE(rounds[1].keys, rounds[2].keys);
  EXPECT_NE(rounds[2].keys, rounds[3].keys);
  // Every round owns its assignment.
  EXPECT_NE(rounds[0].assignment, rounds[1].assignment);

  // Older epochs keep their keys after the later Leave.
  EXPECT_EQ(*rounds[0].keys, enrolled);
  std::vector<std::string> joined = enrolled;
  joined.push_back("late");
  EXPECT_EQ(*with_late.keys, joined);
  EXPECT_EQ(with_late.keys, rounds[2].keys);
  EXPECT_EQ(with_late, rounds[2]);
  std::vector<std::string> left = joined;
  left.erase(left.begin() + 2);
  EXPECT_EQ(*rounds[3].keys, left);

  // == compares contents, not epoch identity.
  CohortRound copy = rounds[0];
  copy.keys = std::make_shared<const std::vector<std::string>>(*copy.keys);
  copy.assignment = std::make_shared<const std::vector<int>>(*copy.assignment);
  EXPECT_EQ(copy, rounds[0]);
  copy.keys = rounds[3].keys;
  EXPECT_NE(copy, rounds[0]);
}

TEST(ServeConcurrentReadTest, RoundsReadUnderChurnAreWholeAndStable) {
  auto manager = CohortManager::Open({});
  ASSERT_TRUE(manager.ok()) << manager.status();
  CohortManager& m = **manager;
  ASSERT_TRUE(m.Enroll("live", StarConfig(4), MakeParticipants(96)).ok());
  ASSERT_TRUE(m.Advance("live").ok());

  constexpr int kAdvances = 300;
  constexpr int kChurns = 200;
  constexpr int kReaders = 3;
  constexpr size_t kMinReads = 100;
  // The writers start once every reader is reading.
  std::atomic<int> readers_started{0};
  std::atomic<int> writers_running{2};
  auto await_readers = [&] {
    while (readers_started.load() < kReaders) std::this_thread::yield();
  };
  std::thread advancer([&] {
    await_readers();
    for (int i = 0; i < kAdvances; ++i) (void)m.Advance("live");
    --writers_running;
  });
  std::thread churner([&] {
    await_readers();
    for (int i = 0; i < kChurns; ++i) {
      std::string key = "j";
      key += std::to_string(i);
      (void)m.Join("live", key, 1.5 + 0.01 * i);
      if (i % 3 != 0) (void)m.Leave("live", key);
    }
    --writers_running;
  });

  // Each reader keeps (round, bytes) for every read: a torn round shows as
  // a size mismatch, a round mutated after the read as different bytes on
  // the re-read below.
  struct Read {
    int round;
    std::string bytes;
  };
  std::vector<std::vector<Read>> reads(kReaders);
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(static_cast<unsigned>(r));
      std::vector<Read>& mine = reads[static_cast<size_t>(r)];
      ++readers_started;
      while (writers_running.load() > 0 || mine.size() < kMinReads) {
        auto summary = m.GetSummary("live");
        if (!summary.ok()) continue;
        const int t = static_cast<int>(
            rng() % static_cast<unsigned>(summary->rounds));
        auto round = m.GetRound("live", t);
        if (!round.ok()) continue;
        if (round->keys->size() != round->assignment->size()) ++torn;
        std::string bytes;
        AppendCohortRoundJson(*round, t, bytes);
        mine.push_back({t, std::move(bytes)});
      }
    });
  }
  advancer.join();
  churner.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(torn.load(), 0);
  size_t total = 0;
  for (const std::vector<Read>& mine : reads) {
    for (const Read& read : mine) {
      auto round = m.GetRound("live", read.round);
      ASSERT_TRUE(round.ok()) << round.status();
      std::string bytes;
      AppendCohortRoundJson(*round, read.round, bytes);
      ASSERT_EQ(bytes, read.bytes) << "round " << read.round;
      ++total;
    }
  }
  EXPECT_GE(total, kReaders * kMinReads);
}

// --- journal layer --------------------------------------------------------

class ServeJournalTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = test::MakeScratchDir(); }

  CohortManager::Options DiskOptions() const {
    CohortManager::Options options;
    options.state_dir = dir_ + "/state";
    return options;
  }

  std::string JournalPath(const std::string& id) const {
    return dir_ + "/state/" + id + ".cohort";
  }

  /// Enrolls a random-policy cohort (the RNG-stream acid test) and runs a
  /// churny schedule against `manager`.
  void RunChurnySchedule(CohortManager& manager) {
    CohortConfig config;
    config.group_size = 3;
    config.policy = CohortPolicy::kRandom;
    config.mode = InteractionMode::kClique;
    config.learning_rate = 0.2;
    config.seed = 99;
    ASSERT_TRUE(manager.Enroll("rand", config, MakeParticipants(9)).ok());
    ASSERT_TRUE(manager.Advance("rand").ok());
    ASSERT_TRUE(manager.Join("rand", "late-1", 2.5).ok());
    ASSERT_TRUE(manager.Advance("rand").ok());
    ASSERT_TRUE(manager.Leave("rand", "p3").ok());
    ASSERT_TRUE(manager.Join("rand", "late-2", 0.75).ok());
    ASSERT_TRUE(manager.Advance("rand").ok());
    ASSERT_TRUE(manager.Advance("rand").ok());
  }

  std::string dir_;
};

TEST_F(ServeJournalTest, ReplayRestoresBitwiseStateAndRngStream) {
  {
    auto manager = CohortManager::Open(DiskOptions());
    ASSERT_TRUE(manager.ok()) << manager.status();
    RunChurnySchedule(**manager);
  }  // drop the manager; journals stay

  // An uninterrupted in-memory run of the same schedule is the reference.
  auto reference = CohortManager::Open({});
  ASSERT_TRUE(reference.ok()) << reference.status();
  RunChurnySchedule(**reference);

  auto restored = CohortManager::Open(DiskOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->restored_cohorts(), 1);

  auto restored_cohort = (*restored)->SnapshotCohort("rand");
  auto reference_cohort = (*reference)->SnapshotCohort("rand");
  ASSERT_TRUE(restored_cohort.ok()) << restored_cohort.status();
  ASSERT_TRUE(reference_cohort.ok());
  // Bitwise state: every round (keys, assignment, gain) and every resident
  // skill. CohortRound equality is deep (contents, not epoch identity) and
  // CohortParticipant's is defaulted ==, i.e. exact doubles.
  EXPECT_EQ(restored_cohort->rounds(), reference_cohort->rounds());
  EXPECT_EQ(restored_cohort->participants(),
            reference_cohort->participants());

  // The acid test for the random policy: the NEXT round after restore
  // consumes the RNG stream exactly where the pre-crash process left it.
  auto restored_gain = (*restored)->Advance("rand");
  auto reference_gain = (*reference)->Advance("rand");
  ASSERT_TRUE(restored_gain.ok()) << restored_gain.status();
  ASSERT_TRUE(reference_gain.ok());
  EXPECT_EQ(*restored_gain, *reference_gain);
  auto restored_after = (*restored)->GetRound("rand", 4);
  auto reference_after = (*reference)->GetRound("rand", 4);
  ASSERT_TRUE(restored_after.ok());
  ASSERT_TRUE(reference_after.ok());
  EXPECT_EQ(*restored_after, *reference_after);
}

TEST_F(ServeJournalTest, TornFinalLineIsHealedByTruncation) {
  {
    auto manager = CohortManager::Open(DiskOptions());
    ASSERT_TRUE(manager.ok()) << manager.status();
    RunChurnySchedule(**manager);
  }
  const std::string path = JournalPath("rand");
  auto intact = util::ReadFileToString(path);
  ASSERT_TRUE(intact.ok());
  // Simulate a crash mid-append: a half-written op with no newline.
  ASSERT_TRUE(util::WriteFileAtomic(path, *intact + "{\"op\":\"adv").ok());

  auto restored = CohortManager::Open(DiskOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  auto summary = (*restored)->GetSummary("rand");
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->rounds, 4);
  // The torn tail is gone from disk (not just skipped), so the journal is
  // clean for the next appender.
  auto healed = util::ReadFileToString(path);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, *intact);
  // And the healed journal accepts new ops.
  ASSERT_TRUE((*restored)->Advance("rand").ok());
}

TEST_F(ServeJournalTest, CorruptMiddleLineIsRefused) {
  {
    auto manager = CohortManager::Open(DiskOptions());
    ASSERT_TRUE(manager.ok()) << manager.status();
    RunChurnySchedule(**manager);
  }
  const std::string path = JournalPath("rand");
  auto intact = util::ReadFileToString(path);
  ASSERT_TRUE(intact.ok());
  // Flip bytes in the middle of the file (inside some op line) — this is
  // real corruption, not a torn append, and must not be silently skipped.
  std::string corrupt = *intact;
  corrupt[corrupt.size() / 2] = '\x01';
  ASSERT_TRUE(util::WriteFileAtomic(path, corrupt).ok());

  auto restored = CohortManager::Open(DiskOptions());
  EXPECT_FALSE(restored.ok());
}

TEST_F(ServeJournalTest, ForeignDigestIsRefused) {
  {
    auto manager = CohortManager::Open(DiskOptions());
    ASSERT_TRUE(manager.ok()) << manager.status();
    ASSERT_TRUE(
        manager.value()
            ->Enroll("star", StarConfig(2), MakeParticipants(4))
            .ok());
  }
  const std::string path = JournalPath("star");
  auto intact = util::ReadFileToString(path);
  ASSERT_TRUE(intact.ok());
  // Tamper with the config in the header without refreshing the digest —
  // as an edited file or a different build would.
  std::string tampered = *intact;
  const std::string needle = "\"group_size\":2";
  const size_t at = tampered.find(needle);
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, needle.size(), "\"group_size\":3");
  ASSERT_TRUE(util::WriteFileAtomic(path, tampered).ok());

  auto restored = CohortManager::Open(DiskOptions());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(ServeJournalTest, DuplicateEnrollAndUnknownCohortAreErrors) {
  auto manager = CohortManager::Open(DiskOptions());
  ASSERT_TRUE(manager.ok()) << manager.status();
  ASSERT_TRUE(manager.value()
                  ->Enroll("star", StarConfig(2), MakeParticipants(4))
                  .ok());
  EXPECT_EQ(manager.value()
                ->Enroll("star", StarConfig(2), MakeParticipants(4))
                .code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ((*manager)->Advance("ghost").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ((*manager)->GetRound("star", 0).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ((*manager)->CohortIds(), std::vector<std::string>({"star"}));
}

}  // namespace
}  // namespace tdg::serve
