// CohortManager::Open replays journals in two phases (DESIGN.md §13): a
// parallel read phase that replays every journal into its own slot and
// writes nothing, then a serial commit phase in name order that repairs the
// files and inserts the cohorts. These tests pin what that split must not
// change:
//
//   * parallel == serial — every restored cohort equals a local
//     serve::Cohort replay of the same ops, bitwise, RNG stream included,
//     across star, clique and random cohorts with churn and torn tails;
//   * error precedence — the first bad journal in name order decides the
//     error, and the files end as a one-at-a-time replay leaves them;
//   * enroll races — concurrent enrolls of one id create one journal with
//     one header, so the state dir always replays;
//   * /statusz reports the restore.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/cohort.h"
#include "serve/cohort_manager.h"
#include "serve/cohort_server.h"
#include "sweep_shard_test_util.h"
#include "util/file_util.h"
#include "util/json.h"
#include "util/net.h"
#include "util/parallel_for.h"

namespace tdg::serve {
namespace {

/// One cohort's journal as the ops that wrote it.
struct Schedule {
  std::string id;
  CohortConfig config;
  std::vector<CohortParticipant> participants;
  std::vector<CohortOp> ops;
};

/// Cohort `j` of a mixed state dir: star, clique and random policies in
/// turn, uneven sizes, and joins and leaves between the advances.
Schedule MakeSchedule(int j) {
  Schedule schedule;
  schedule.id = "c";
  if (j < 10) schedule.id += "0";
  schedule.id += std::to_string(j);
  CohortConfig& config = schedule.config;
  config.group_size = 2 + j % 3;
  config.learning_rate = 0.2 + 0.01 * j;
  config.seed = static_cast<uint64_t>(100 + j);
  switch (j % 3) {
    case 0:
      config.policy = CohortPolicy::kStar;
      config.mode = InteractionMode::kStar;
      break;
    case 1:
      config.policy = CohortPolicy::kClique;
      config.mode = InteractionMode::kClique;
      break;
    default:
      config.policy = CohortPolicy::kRandom;
      config.mode =
          j % 2 == 0 ? InteractionMode::kStar : InteractionMode::kClique;
      break;
  }
  const int n = 7 + j;
  for (int i = 0; i < n; ++i) {
    std::string key = "p";
    key += std::to_string(i);
    schedule.participants.push_back({std::move(key), 1.0 + 0.37 * i + 0.11 * j});
  }
  const int rounds = 5 + j % 4;
  for (int t = 0; t < rounds; ++t) {
    schedule.ops.push_back({});
    if ((t + j) % 3 == 0) {
      std::string key = "late-";
      key += std::to_string(t);
      schedule.ops.push_back(
          {.kind = CohortOp::kJoin, .key = key, .skill = 0.5 + 0.3 * t});
    }
    if ((t + j) % 4 == 1) {
      std::string key = "p";
      key += std::to_string(t);
      schedule.ops.push_back({.kind = CohortOp::kLeave, .key = key});
    }
  }
  return schedule;
}

/// The cohort after the first `count` ops of `schedule`, replayed locally.
Cohort Replayed(const Schedule& schedule, size_t count) {
  auto cohort =
      Cohort::Create(schedule.id, schedule.config, schedule.participants);
  EXPECT_TRUE(cohort.ok()) << cohort.status();
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(cohort->Apply(schedule.ops[i]).ok());
  }
  return *std::move(cohort);
}

/// Rounds, residents, and the next round (which consumes the RNG stream).
void ExpectSameCohort(const Cohort& restored, const Cohort& reference) {
  EXPECT_EQ(restored.rounds(), reference.rounds());
  EXPECT_EQ(restored.participants(), reference.participants());
  Cohort restored_next = restored;
  Cohort reference_next = reference;
  ASSERT_TRUE(restored_next.Advance().ok());
  ASSERT_TRUE(reference_next.Advance().ok());
  EXPECT_EQ(restored_next.rounds().back(), reference_next.rounds().back());
}

std::string ReadOrDie(const std::string& path) {
  auto content = util::ReadFileToString(path);
  EXPECT_TRUE(content.ok()) << content.status();
  return content.ok() ? *content : std::string();
}

void AppendBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

class ServeParallelReplayTest : public testing::Test {
 protected:
  void SetUp() override {
    options_.state_dir = test::MakeScratchDir() + "/state";
  }

  std::string JournalPath(const std::string& id) const {
    return options_.state_dir + "/" + id + ".cohort";
  }

  /// Enrolls `schedule` on a fresh manager over the state dir and applies
  /// its ops.
  void Write(const Schedule& schedule) {
    auto manager = CohortManager::Open(options_);
    ASSERT_TRUE(manager.ok()) << manager.status();
    ASSERT_TRUE((*manager)
                    ->Enroll(schedule.id, schedule.config,
                             schedule.participants)
                    .ok());
    for (const CohortOp& op : schedule.ops) {
      ASSERT_TRUE((*manager)->Apply(schedule.id, op).ok());
    }
  }

  CohortManager::Options options_;
};

TEST_F(ServeParallelReplayTest, ParallelOpenEqualsLocalSerialReplay) {
  constexpr int kJournals = 14;
  std::vector<Schedule> schedules;
  for (int j = 0; j < kJournals; ++j) schedules.push_back(MakeSchedule(j));
  {
    auto manager = CohortManager::Open(options_);
    ASSERT_TRUE(manager.ok()) << manager.status();
    for (const Schedule& schedule : schedules) {
      ASSERT_TRUE((*manager)
                      ->Enroll(schedule.id, schedule.config,
                               schedule.participants)
                      .ok());
    }
    // Interleave the cohorts' ops, as a served run does.
    for (size_t step = 0;; ++step) {
      bool any = false;
      for (const Schedule& schedule : schedules) {
        if (step >= schedule.ops.size()) continue;
        any = true;
        ASSERT_TRUE((*manager)->Apply(schedule.id, schedule.ops[step]).ok());
      }
      if (!any) break;
    }
  }

  // Tear some tails: a crash mid-append cut the last op of j % 4 == 1, and
  // left a fragment of a never-acknowledged op after j % 4 == 3.
  std::vector<size_t> durable_ops;
  std::vector<std::string> healed;
  long long total_ops = 0;
  for (int j = 0; j < kJournals; ++j) {
    const std::string path = JournalPath(schedules[j].id);
    std::string bytes = ReadOrDie(path);
    size_t ops = schedules[j].ops.size();
    if (j % 4 == 1) {
      const size_t last_line = bytes.find_last_of('\n', bytes.size() - 2) + 1;
      ASSERT_TRUE(util::TruncateFile(path, last_line + 5).ok());
      bytes.resize(last_line);
      --ops;
    } else if (j % 4 == 3) {
      AppendBytes(path, "{\"op\":\"jo");
    }
    durable_ops.push_back(ops);
    healed.push_back(bytes);
    total_ops += static_cast<long long>(ops);
  }

  auto restored = CohortManager::Open(options_);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->restored_cohorts(), kJournals);
  const CohortManager::RestoreStats& stats = (*restored)->restore_stats();
  EXPECT_EQ(stats.journals, kJournals);
  EXPECT_EQ(stats.ops, total_ops);
  EXPECT_EQ(stats.threads, std::min(util::AvailableCpus(), kJournals));
  EXPECT_GE(stats.seconds, 0.0);
  for (int j = 0; j < kJournals; ++j) {
    SCOPED_TRACE(schedules[j].id);
    auto cohort = (*restored)->SnapshotCohort(schedules[j].id);
    ASSERT_TRUE(cohort.ok()) << cohort.status();
    ExpectSameCohort(*cohort, Replayed(schedules[j], durable_ops[j]));
    EXPECT_EQ(ReadOrDie(JournalPath(schedules[j].id)), healed[j]);
  }
}

TEST_F(ServeParallelReplayTest, FirstBadJournalInNameOrderWins) {
  // a: an enroll that crashed before its header was durable.
  // b: a corrupt newline-terminated line, which refuses to open.
  // c: good.
  // d: a torn tail, which a successful Open would truncate.
  Schedule schedule = MakeSchedule(2);
  for (const char* id : {"a", "b", "c", "d"}) {
    schedule.id = id;
    Write(schedule);
  }
  const std::string a = JournalPath("a");
  ASSERT_TRUE(util::TruncateFile(a, ReadOrDie(a).find('\n') / 2).ok());
  const std::string b = JournalPath("b");
  std::string corrupt = ReadOrDie(b);
  ASSERT_EQ(corrupt.substr(corrupt.size() - 2), "}\n");
  corrupt[corrupt.size() - 2] = 'x';
  ASSERT_TRUE(util::WriteFileAtomic(b, corrupt).ok());
  AppendBytes(JournalPath("d"), "{\"op\":\"adv");
  const std::string c_bytes = ReadOrDie(JournalPath("c"));
  const std::string d_bytes = ReadOrDie(JournalPath("d"));

  auto restored = CohortManager::Open(options_);
  ASSERT_FALSE(restored.ok());
  const std::string& message = restored.status().message();
  EXPECT_NE(message.find("b.cohort"), std::string::npos) << message;
  EXPECT_NE(message.find("malformed"), std::string::npos) << message;
  // The commit before b ran; nothing from b on did.
  EXPECT_FALSE(util::FileExists(a));
  EXPECT_EQ(ReadOrDie(b), corrupt);
  EXPECT_EQ(ReadOrDie(JournalPath("c")), c_bytes);
  EXPECT_EQ(ReadOrDie(JournalPath("d")), d_bytes) << "d was truncated";
}

TEST_F(ServeParallelReplayTest, StatuszReportsTheRestore) {
  const Schedule schedule = MakeSchedule(1);
  Write(schedule);
  auto manager = CohortManager::Open(options_);
  ASSERT_TRUE(manager.ok()) << manager.status();
  CohortServer::Options server_options;
  server_options.num_workers = 1;
  auto server = CohortServer::Start(manager->get(), server_options);
  ASSERT_TRUE(server.ok()) << server.status();
  auto response = util::net::HttpGet((*server)->port(), "/statusz");
  (*server)->Stop();
  ASSERT_TRUE(response.ok()) << response.status();
  auto body = util::net::HttpBody(*response);
  ASSERT_TRUE(body.ok()) << body.status();
  auto json = util::JsonValue::Parse(*body);
  ASSERT_TRUE(json.ok()) << json.status();
  auto restore = json->GetField("restore");
  ASSERT_TRUE(restore.ok()) << *body;
  EXPECT_EQ(restore->GetField("journals")->AsNumber(), 1.0);
  EXPECT_EQ(restore->GetField("ops")->AsNumber(),
            static_cast<double>(schedule.ops.size()));
  // One journal replays inline on the caller.
  EXPECT_EQ(restore->GetField("threads")->AsNumber(), 1.0);
  EXPECT_GE(restore->GetField("seconds")->AsNumber(), 0.0);
}

TEST(ServeEnrollRaceTest, ConcurrentEnrollsOfOneIdWriteOneHeader) {
  constexpr int kThreads = 8;
  constexpr int kIds = 50;
  CohortManager::Options options;
  options.state_dir = test::MakeScratchDir() + "/state";
  const Schedule schedule = MakeSchedule(0);
  std::vector<std::string> ids;
  for (int i = 0; i < kIds; ++i) ids.push_back("race-" + std::to_string(i));
  {
    auto manager = CohortManager::Open(options);
    ASSERT_TRUE(manager.ok()) << manager.status();
    std::vector<std::atomic<int>> wins(kIds);
    std::atomic<int> unexpected{0};
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (int i = 0; i < kIds; ++i) {
          const util::Status status = (*manager)->Enroll(
              ids[static_cast<size_t>(i)], schedule.config,
              schedule.participants);
          if (status.ok()) {
            wins[static_cast<size_t>(i)].fetch_add(1);
          } else if (status.code() != util::StatusCode::kFailedPrecondition) {
            unexpected.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(unexpected.load(), 0);
    for (int i = 0; i < kIds; ++i) {
      EXPECT_EQ(wins[static_cast<size_t>(i)].load(), 1) << ids[i];
    }
  }

  auto restored = CohortManager::Open(options);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->restored_cohorts(), kIds);
  for (const std::string& id : ids) {
    const std::string journal =
        ReadOrDie(options.state_dir + "/" + id + ".cohort");
    EXPECT_EQ(std::count(journal.begin(), journal.end(), '\n'), 1) << id;
  }
}

}  // namespace
}  // namespace tdg::serve
