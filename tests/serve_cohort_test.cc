// Tests for the serving plane's resident state machine (serve::Cohort) and
// its write-ahead journal layer (serve::CohortManager):
//
//   * equivalence — a churn-free, evenly divisible cohort reproduces the
//     batch core::RunProcess run *bitwise* (groupings, gains, skills),
//     which is what makes served groupings offline-auditable;
//   * the m/m+1 size profile and the join/leave/advance validation grammar,
//     and the strict integer fields of the enroll config;
//   * the key table — rounds share id vectors until churn, copies of a
//     cohort own their residency, a rejoin goes last under its old id, and
//     rounds read under churn stay whole while the table grows;
//   * durability — journals replay to bitwise-identical state (RNG stream
//     included), a torn final line is healed, a torn header is a fresh
//     start, a corrupt durable line or a foreign digest is refused, the
//     journal bytes are pinned, and a restored cohort's *future* rounds
//     match an uninterrupted one's;
//   * the op grammar — ParseCohortOp's rejections.

#include "serve/cohort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dygroups.h"
#include "core/process.h"
#include "serve/cohort_manager.h"
#include "serve/cohort_server.h"
#include "sweep_shard_test_util.h"
#include "util/file_util.h"
#include "util/json.h"
#include "util/net.h"
#include "util/string_util.h"

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

TEST(ServeCohortTest, OpGrammar) {
  auto parse = [](const std::string& text) {
    auto json = util::JsonValue::Parse(text);
    EXPECT_TRUE(json.ok()) << text;
    return ParseCohortOp(*json);
  };
  auto join = parse(R"({"op": "join", "key": "a\\b", "skill": 2.5})");
  ASSERT_TRUE(join.ok()) << join.status();
  EXPECT_EQ(*join,
            (CohortOp{.kind = CohortOp::kJoin, .key = "a\\b", .skill = 2.5}));
  auto leave = parse(R"({"op": "leave", "key": "a"})");
  ASSERT_TRUE(leave.ok()) << leave.status();
  EXPECT_EQ(*leave, (CohortOp{.kind = CohortOp::kLeave, .key = "a"}));
  auto advance = parse(R"({"op": "advance", "key": 5})");
  ASSERT_TRUE(advance.ok()) << advance.status();
  EXPECT_EQ(*advance, CohortOp{});

  // A route carries the verb in its path and the fields in its body.
  auto routed =
      ParseCohortOp("leave", *util::JsonValue::Parse(R"({"key":"a"})"));
  ASSERT_TRUE(routed.ok()) << routed.status();
  EXPECT_EQ(*routed, *leave);

  for (const char* bad :
       {R"({"op": "join", "skill": 1})", R"({"op": "leave"})",
        R"({"op": "leave", "key": 3})", R"({"op": "join", "key": "a"})",
        R"({"op": "join", "key": "a", "skill": "1.5"})",
        R"({"op": "join", "key": "a", "skill": null})",
        R"({"op": "rewind"})", R"({"op": 1})", R"({"key": "a"})",
        R"([])"}) {
    EXPECT_EQ(parse(bad).status().code(), util::StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(ParseCohortOp("join", util::JsonValue::MakeArray()).status().code(),
            util::StatusCode::kInvalidArgument);

  std::string line;
  AppendCohortOpJson(*join, line);
  EXPECT_EQ(line, R"({"key":"a\\b","op":"join","skill":2.5})");
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

std::vector<std::string> RoundKeys(const CohortRound& round) {
  std::vector<std::string> keys;
  for (size_t i = 0; i < round.ids->size(); ++i) keys.push_back(round.key(i));
  return keys;
}

std::vector<std::string> ResidentKeys(const Cohort& cohort) {
  std::vector<std::string> keys;
  for (const CohortParticipant& participant : cohort.participants()) {
    keys.push_back(participant.key);
  }
  return keys;
}

std::string RoundBytes(const CohortRound& round, int t) {
  std::string bytes;
  AppendCohortRoundJson(round, t, bytes);
  return bytes;
}

TEST(ServeCohortTest, IdVectorsAreSharedUntilChurn) {
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
  // No churn between rounds 0 and 1, nor between 3 and 4: one id vector
  // each.
  EXPECT_EQ(rounds[0].ids, rounds[1].ids);
  EXPECT_EQ(rounds[3].ids, rounds[4].ids);
  // A Join, and then a Leave, each start a new id vector.
  EXPECT_NE(rounds[1].ids, rounds[2].ids);
  EXPECT_NE(rounds[2].ids, rounds[3].ids);
  // Every round owns its assignment; all share the cohort's key table.
  EXPECT_NE(rounds[0].assignment, rounds[1].assignment);
  EXPECT_EQ(rounds[0].table, rounds[4].table);

  // Older rounds keep their keys after the later Leave.
  EXPECT_EQ(RoundKeys(rounds[0]), enrolled);
  std::vector<std::string> joined = enrolled;
  joined.push_back("late");
  EXPECT_EQ(RoundKeys(with_late), joined);
  EXPECT_EQ(with_late.ids, rounds[2].ids);
  EXPECT_EQ(with_late, rounds[2]);
  std::vector<std::string> left = joined;
  left.erase(left.begin() + 2);
  EXPECT_EQ(RoundKeys(rounds[3]), left);

  // == compares resolved keys and contents, not table or vector identity:
  // the same keys under other ids in another table are the same round.
  CohortRound copy = rounds[0];
  auto table = std::make_shared<KeyTable>();
  auto ids = std::make_shared<std::vector<uint32_t>>();
  for (size_t i = 0; i < enrolled.size(); ++i) {
    ASSERT_TRUE(table->Append(static_cast<uint32_t>(i),
                              enrolled[enrolled.size() - 1 - i]));
    ids->insert(ids->begin(), static_cast<uint32_t>(i));
  }
  EXPECT_FALSE(table->Append(0, "taken"));
  copy.table = table;
  copy.ids = ids;
  copy.assignment = std::make_shared<const std::vector<int>>(*copy.assignment);
  EXPECT_EQ(copy, rounds[0]);
  copy.table = rounds[3].table;
  copy.ids = rounds[3].ids;
  EXPECT_NE(copy, rounds[0]);
}

// A Cohort is a value: a copy owns its residency, and an op on one copy
// never changes another, even while the copies share a key table.
TEST(ServeCohortTest, CopiesOwnTheirResidency) {
  auto original = Cohort::Create("copies", StarConfig(2), MakeParticipants(5));
  ASSERT_TRUE(original.ok()) << original.status();
  ASSERT_TRUE(original->Advance().ok());
  const CohortRound first = original->rounds()[0];
  const std::string first_bytes = RoundBytes(first, 0);
  const std::vector<std::string> enrolled = ResidentKeys(*original);

  // A join on the copy takes the next id in the shared table.
  Cohort copy = *original;
  ASSERT_TRUE(copy.Join("fresh", 2.0).ok());
  const CohortOp join_fresh{.kind = CohortOp::kJoin, .key = "fresh",
                            .skill = 3.0};
  const CohortOp leave_fresh{.kind = CohortOp::kLeave, .key = "fresh"};
  EXPECT_EQ(copy.Check(join_fresh).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(original->Check(join_fresh).ok());
  EXPECT_EQ(original->Check(leave_fresh).code(), util::StatusCode::kNotFound);
  EXPECT_EQ(ResidentKeys(*original), enrolled);
  EXPECT_EQ(RoundBytes(original->rounds()[0], 0), first_bytes);

  // The original's own join finds that id taken and continues on a
  // private table; each side sees only its own keys.
  ASSERT_TRUE(original->Join("other", 4.0).ok());
  EXPECT_EQ(copy.Check({.kind = CohortOp::kLeave, .key = "other"}).code(),
            util::StatusCode::kNotFound);
  ASSERT_TRUE(original->Advance().ok());
  ASSERT_TRUE(copy.Advance().ok());
  std::vector<std::string> with_other = enrolled;
  with_other.push_back("other");
  std::vector<std::string> with_fresh = enrolled;
  with_fresh.push_back("fresh");
  EXPECT_EQ(RoundKeys(original->rounds()[1]), with_other);
  EXPECT_EQ(RoundKeys(copy.rounds()[1]), with_fresh);
  EXPECT_NE(original->rounds()[1].table, copy.rounds()[1].table);

  // A leave on a copy of the copy leaves the copy resident.
  Cohort second = copy;
  ASSERT_TRUE(second.Leave("p1").ok());
  EXPECT_TRUE(copy.Check({.kind = CohortOp::kLeave, .key = "p1"}).ok());
  EXPECT_EQ(copy.num_participants(), 6);

  // Two copies that grow the shared table at once, across chunk
  // boundaries: each ends with exactly its own keys.
  Cohort left = *original;
  Cohort right = *original;
  constexpr int kJoins = 300;
  auto grow = [](Cohort& cohort, const std::string& prefix) {
    for (int i = 0; i < kJoins; ++i) {
      std::string key = prefix;
      key += std::to_string(i);
      ASSERT_TRUE(cohort.Join(key, 1.0 + i).ok());
    }
    ASSERT_TRUE(cohort.Advance().ok());
  };
  std::thread left_thread([&] { grow(left, "l"); });
  std::thread right_thread([&] { grow(right, "r"); });
  left_thread.join();
  right_thread.join();
  for (auto [cohort, prefix] :
       {std::pair<Cohort*, std::string>{&left, "l"}, {&right, "r"}}) {
    std::vector<std::string> expected = with_other;
    for (int i = 0; i < kJoins; ++i) {
      expected.push_back(prefix + std::to_string(i));
    }
    EXPECT_EQ(RoundKeys(cohort->rounds().back()), expected) << prefix;
    EXPECT_EQ(ResidentKeys(*cohort), expected) << prefix;
  }
  EXPECT_EQ(ResidentKeys(*original), with_other);

  // Held by value across all of it: the first round keeps its bytes, in
  // every copy.
  EXPECT_EQ(RoundBytes(first, 0), first_bytes);
  for (const Cohort* cohort : {&*original, &copy, &second, &left, &right}) {
    EXPECT_EQ(RoundBytes(cohort->rounds()[0], 0), first_bytes);
  }
}

TEST(ServeCohortTest, ChurnOrderAndRejoins) {
  auto cohort = Cohort::Create("order", StarConfig(2), MakeParticipants(5));
  ASSERT_TRUE(cohort.ok()) << cohort.status();
  ASSERT_TRUE(cohort->Advance().ok());
  const CohortRound first = cohort->rounds()[0];
  const std::string first_bytes = RoundBytes(first, 0);

  // A key that left and rejoins goes to the end of the resident order,
  // under the id it was first admitted with.
  ASSERT_TRUE(cohort->Leave("p1").ok());
  ASSERT_TRUE(cohort->Join("p1", 7.0).ok());
  EXPECT_EQ(ResidentKeys(*cohort),
            (std::vector<std::string>{"p0", "p2", "p3", "p4", "p1"}));
  ASSERT_TRUE(cohort->Advance().ok());
  const CohortRound& second = cohort->rounds()[1];
  EXPECT_EQ(RoundKeys(second),
            (std::vector<std::string>{"p0", "p2", "p3", "p4", "p1"}));
  EXPECT_EQ(second.ids->back(), (*first.ids)[1]);
  EXPECT_EQ(second.table, first.table);

  // A key that joined since the last advance can leave, and rejoin,
  // before the next one; so can an enrolled key.
  ASSERT_TRUE(cohort->Join("x", 2.0).ok());
  ASSERT_TRUE(cohort->Leave("x").ok());
  EXPECT_EQ(cohort->Leave("x").code(), util::StatusCode::kNotFound);
  ASSERT_TRUE(cohort->Join("x", 3.0).ok());
  EXPECT_EQ(cohort->Join("x", 3.0).code(),
            util::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cohort->Leave("p0").ok());
  ASSERT_TRUE(cohort->Join("p0", 4.0).ok());
  // A rejoin brings the skill it joins with.
  EXPECT_EQ(cohort->participants().back().skill, 4.0);
  ASSERT_TRUE(cohort->Advance().ok());
  const std::vector<std::string> order = {"p2", "p3", "p4", "p1", "x", "p0"};
  EXPECT_EQ(ResidentKeys(*cohort), order);
  EXPECT_EQ(RoundKeys(cohort->rounds()[2]), order);

  // Held by value across all of it: the first round keeps its bytes.
  EXPECT_EQ(RoundBytes(first, 0), first_bytes);
  EXPECT_EQ(RoundBytes(cohort->rounds()[0], 0), first_bytes);
}

// A key of `length` bytes drawn from `alphabet`.
std::string RandomKey(std::mt19937_64& rng, std::string_view alphabet,
                      size_t length) {
  std::uniform_int_distribution<size_t> pick(0, alphabet.size() - 1);
  std::string key(length, ' ');
  for (char& c : key) c = alphabet[pick(rng)];
  return key;
}

// The round's wire form built member by member as a JsonValue and
// serialized: the oracle for AppendCohortRoundJson's sized pass.
std::string RoundOracle(const CohortRound& round, int round_index) {
  util::JsonValue assignment = util::JsonValue::MakeArray();
  for (int group : *round.assignment) assignment.Append(group);
  util::JsonValue keys = util::JsonValue::MakeArray();
  for (size_t i = 0; i < round.ids->size(); ++i) keys.Append(round.key(i));
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("assignment", std::move(assignment));
  json.Set("gain", round.gain);
  json.Set("keys", std::move(keys));
  json.Set("num_groups", round.num_groups);
  json.Set("round", round_index);
  return json.Serialize();
}

TEST(ServeCohortTest, RoundWireFormMatchesTheDomOracle) {
  // Every byte ValidateParticipantKey admits, and the same without '\\'
  // (the common round, whose keys are copied whole).
  std::string admitted;
  for (int c = 0x20; c < 0x7f; ++c) {
    if (c != '/' && c != '"') admitted.push_back(static_cast<char>(c));
  }
  std::string plain = admitted;
  std::erase(plain, '\\');
  // Group indices on both sides of every digit-count step up to 4 digits;
  // an assignment also draws the int extremes, which no round holds.
  const std::vector<int> boundaries = {0, 1, 9, 10, 99, 100, 999, 1000};
  const std::vector<int> extremes = {-1, -10, 9999, 10000, INT_MAX, INT_MIN};
  const std::vector<double> gains = {0,     3,          1e14, -2,
                                     1e15,  0.1,        1.0 / 3,
                                     -0.5,  12345.678,  2.5e-300};
  const std::vector<size_t> sizes = {1, 2, 9, 10, 64, 4096, 5000};
  std::mt19937_64 rng(0x5EED);
  auto uniform = [&rng](size_t lo, size_t hi) {
    return std::uniform_int_distribution<size_t>(lo, hi)(rng);
  };
  bool saw_backslash = false;
  for (size_t trial = 0; trial < 20; ++trial) {
    const size_t n = trial < sizes.size() ? sizes[trial] : uniform(1, 5000);
    const std::string_view alphabet = trial % 2 == 0 ? admitted : plain;
    SCOPED_TRACE(util::StrFormat("trial %zu: n=%zu, %s keys", trial, n,
                                 trial % 2 == 0 ? "any" : "plain"));
    // More keys admitted than resident: the round's ids are a churned
    // subset of the table in shuffled order.
    auto table = std::make_shared<KeyTable>();
    std::vector<uint32_t> ids(n + uniform(0, n));
    for (uint32_t id = 0; id < ids.size(); ++id) {
      const size_t length = id % 3 == 0 ? 1 : id % 3 == 1 ? 128
                                                          : uniform(1, 128);
      const std::string key = RandomKey(rng, alphabet, length);
      ASSERT_TRUE(ValidateParticipantKey(key).ok()) << key;
      saw_backslash |= key.find('\\') != std::string::npos;
      ASSERT_TRUE(table->Append(id, key));
      ids[id] = id;
    }
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(n);
    // Two rounds share the id vector, as churn-free rounds do.
    const auto shared_ids =
        std::make_shared<const std::vector<uint32_t>>(std::move(ids));
    for (size_t copy = 0; copy < 2; ++copy) {
      const size_t draw = 2 * trial + copy;
      std::vector<int> assignment(n);
      for (int& group : assignment) {
        switch (uniform(0, 7)) {
          case 0:
            group = extremes[uniform(0, extremes.size() - 1)];
            break;
          case 1:
          case 2:
          case 3:
            group = boundaries[uniform(0, boundaries.size() - 1)];
            break;
          default:
            group = static_cast<int>(uniform(0, 1000));
        }
      }
      CohortRound round;
      round.table = table;
      round.ids = shared_ids;
      round.assignment =
          std::make_shared<const std::vector<int>>(std::move(assignment));
      round.num_groups = boundaries[draw % boundaries.size()] + 1;
      round.gain = gains[draw % gains.size()];
      const int t = draw % 3 == 0   ? 0
                    : draw % 3 == 1 ? 1'000'000'000
                                    : static_cast<int>(uniform(1, 999'999'999));
      // A response head already in the buffer stays in front of the round.
      const std::string prefix = copy == 0 ? "" : "HTTP/1.1 200 OK\r\n\r\n";
      std::string out = prefix;
      AppendCohortRoundJson(round, t, out);
      // A spare byte, so the route's trailing '\n' does not reallocate.
      EXPECT_GT(out.capacity(), out.size());
      std::string expected = prefix;
      expected += RoundOracle(round, t);
      ASSERT_EQ(out, expected) << "round " << t << ", gain " << round.gain;
      // The oracle shares the escape with the writer; the parse does not.
      auto parsed = util::JsonValue::Parse(
          std::string_view(out).substr(prefix.size()));
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      const util::JsonValue keys = *parsed->GetField("keys");
      ASSERT_EQ(keys.AsArray().size(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(keys.AsArray()[i].AsString(), round.key(i))
            << "resident " << i;
      }
      EXPECT_EQ(parsed->GetField("gain")->AsNumber(), round.gain);
      EXPECT_EQ(parsed->GetField("round")->AsNumber(), t);
    }
  }
  EXPECT_TRUE(saw_backslash);
}

TEST(ServeConcurrentReadTest, RoundsReadUnderChurnAreWholeAndStable) {
  auto manager = CohortManager::Open({});
  ASSERT_TRUE(manager.ok()) << manager.status();
  CohortManager& m = **manager;
  ASSERT_TRUE(m.Enroll("live", StarConfig(4), MakeParticipants(96)).ok());
  ASSERT_TRUE(m.Advance("live").ok());

  constexpr int kAdvances = 300;
  // 96 enrolled keys plus one fresh key per churn fill the key table past
  // the starts of chunks 2 (id 192) and 3 (id 448).
  constexpr int kChurns = 400;
  static_assert(96 + kChurns > 448);
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
    std::string previous;
    for (int i = 0; i < kChurns; ++i) {
      std::string key = "j";
      key += std::to_string(i);
      (void)m.Join("live", key, 1.5 + 0.01 * i);
      if (i % 3 != 0) (void)m.Leave("live", key);
      // j(i-1) left at i-1 (i-1 = 1 mod 3): it rejoins under its old id.
      if (i % 3 == 2) (void)m.Join("live", previous, 2.5);
      previous = std::move(key);
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
        if (round->ids->size() != round->assignment->size()) ++torn;
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
  // skill. CohortRound equality is deep (resolved keys and contents, not
  // table or vector identity) and
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

TEST_F(ServeJournalTest, CorruptFinalLineIsRefused) {
  {
    auto manager = CohortManager::Open(DiskOptions());
    ASSERT_TRUE(manager.ok()) << manager.status();
    ASSERT_TRUE(
        (*manager)->Enroll("star", StarConfig(2), MakeParticipants(4)).ok());
    for (int t = 0; t < 3; ++t) {
      ASSERT_TRUE((*manager)->Advance("star").ok());
    }
  }
  const std::string path = JournalPath("star");
  auto intact = util::ReadFileToString(path);
  ASSERT_TRUE(intact.ok());
  // The last op line keeps its newline, so a torn append cannot explain
  // it: it is an acknowledged op gone bad, and dropping it would silently
  // lose a round.
  std::string corrupt = *intact;
  ASSERT_EQ(corrupt.substr(corrupt.size() - 2), "}\n");
  corrupt[corrupt.size() - 2] = 'x';
  ASSERT_TRUE(util::WriteFileAtomic(path, corrupt).ok());

  auto restored = CohortManager::Open(DiskOptions());
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("malformed"), std::string::npos)
      << restored.status();
  auto after = util::ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, corrupt) << "Open changed a journal it refused";
}

TEST_F(ServeJournalTest, TornHeaderIsAFreshStart) {
  // A crash during an enroll, before its header line was durable: the
  // enroll was never acknowledged. Open removes the journal and serves the
  // other cohorts, and the id can be enrolled again.
  {
    auto manager = CohortManager::Open(DiskOptions());
    ASSERT_TRUE(manager.ok()) << manager.status();
    ASSERT_TRUE(
        (*manager)->Enroll("star", StarConfig(2), MakeParticipants(4)).ok());
    ASSERT_TRUE(
        (*manager)->Enroll("torn", StarConfig(2), MakeParticipants(4)).ok());
  }
  const std::string path = JournalPath("torn");
  auto intact = util::ReadFileToString(path);
  ASSERT_TRUE(intact.ok());
  ASSERT_TRUE(util::TruncateFile(path, intact->size() / 2).ok());

  auto restored = CohortManager::Open(DiskOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->restored_cohorts(), 1);
  EXPECT_EQ((*restored)->CohortIds(), std::vector<std::string>({"star"}));
  EXPECT_FALSE(util::FileExists(path));
  ASSERT_TRUE(
      (*restored)->Enroll("torn", StarConfig(2), MakeParticipants(4)).ok());
  auto reenrolled = util::ReadFileToString(path);
  ASSERT_TRUE(reenrolled.ok());
  EXPECT_EQ(*reenrolled, *intact);
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

TEST_F(ServeJournalTest, JournalBytesArePinned) {
  // The on-disk grammar of a journal, byte for byte: sorted keys, integral
  // numbers as integers and the rest as %.17g, JSON string escaping (the
  // key "b\k" carries a backslash). Only the header's digest is masked:
  // it hashes the build's provenance.
  {
    auto manager = CohortManager::Open(DiskOptions());
    ASSERT_TRUE(manager.ok()) << manager.status();
    CohortConfig config = StarConfig(2);
    config.seed = 3;
    ASSERT_TRUE((*manager)
                    ->Enroll("pin", config,
                             {{"a", 1.5}, {"b\\k", 0.1}, {"c", 2}})
                    .ok());
    ASSERT_TRUE((*manager)->Advance("pin").ok());
    ASSERT_TRUE((*manager)->Join("pin", "d", 0.30000000000000004).ok());
    ASSERT_TRUE((*manager)->Leave("pin", "b\\k").ok());
    ASSERT_TRUE((*manager)->Join("pin", "b\\k", 7).ok());
    ASSERT_TRUE((*manager)->Advance("pin").ok());
  }
  auto bytes = util::ReadFileToString(JournalPath("pin"));
  ASSERT_TRUE(bytes.ok());
  std::string journal = *bytes;
  const std::string digest_key = "\"digest\":\"";
  const size_t digest_at = journal.find(digest_key);
  ASSERT_NE(digest_at, std::string::npos);
  const size_t digest_begin = digest_at + digest_key.size();
  // The count-and-char replace: GCC 12 flags the const char* one with a
  // false -Wrestrict (PR105651) in Release builds.
  journal.replace(digest_begin, journal.find('"', digest_begin) - digest_begin,
                  1, '*');
  EXPECT_EQ(journal,
            "{\"config\":{\"group_size\":2,\"learning_rate\":0.25,"
            "\"mode\":\"star\",\"policy\":\"star\",\"seed\":3},"
            "\"digest\":\"*\",\"id\":\"pin\",\"participants\":["
            "{\"key\":\"a\",\"skill\":1.5},"
            "{\"key\":\"b\\\\k\",\"skill\":0.10000000000000001},"
            "{\"key\":\"c\",\"skill\":2}],"
            "\"schema\":\"tdg.cohort_journal.v1\"}\n"
            "{\"op\":\"advance\"}\n"
            "{\"key\":\"d\",\"op\":\"join\",\"skill\":0.30000000000000004}\n"
            "{\"key\":\"b\\\\k\",\"op\":\"leave\"}\n"
            "{\"key\":\"b\\\\k\",\"op\":\"join\",\"skill\":7}\n"
            "{\"op\":\"advance\"}\n");
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
