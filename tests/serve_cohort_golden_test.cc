// Golden-file test for served cohort rounds: fixed cohorts run fixed
// join/leave/advance scripts, and every round's canonical wire form
// (CohortRoundToJson(...).Serialize()) plus the residents' post-round skills
// must be byte-identical to tests/golden/cohort_rounds.jsonl.
//
// The scripts cover what the churn-free served == RunProcess checks cannot:
// star and clique cohorts whose size does not divide by the group size
// (including n mod m > k, where the balanced sizes are not m and m+1),
// join/leave churn between advances, one group spanning m <= n < 2m, an
// undersized cohort (n < m), and singleton groups (group_size 1). Skills
// print with %.17g, so string equality is bitwise equality.
//
// To regenerate after an intentional output change, run
//   ./build/tests/tdg_tests --gtest_filter='ServeCohortGoldenTest.*'
// with TDG_UPDATE_GOLDEN=1 set in the environment, and commit the
// rewritten file.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "random/distributions.h"
#include "random/rng.h"
#include "serve/cohort.h"
#include "util/json.h"

#ifndef TDG_TESTS_GOLDEN_DIR
#error "TDG_TESTS_GOLDEN_DIR must be defined by tests/CMakeLists.txt"
#endif

namespace tdg::serve {
namespace {

const char kGoldenFile[] = "cohort_rounds.jsonl";

struct GoldenCohort {
  const char* id;
  CohortPolicy policy;
  InteractionMode mode;
  int group_size;
  int initial;  // residents enrolled at creation
  bool ties;    // draw skills from a coarse grid (many exact ties)
  // One op per character: 'a' advances, '+' joins a fresh participant,
  // '-' removes the resident at the position given by the next digit.
  const char* script;
};

// Sizes along each churned script (m = 4): 11 -> {6,5}, 13 -> {5,4,4},
// 10 -> {5,5}, 17 -> {5,4,4,4}, 7 -> {7}, 39 -> {5,5,5,4,4,4,4,4,4}.
constexpr char kChurn[] =
    "aa++a-0-5-9a+++++++aa-3-0-1-7-2-4-6-1-2-0aa"
    "++++++++++++++++++++++++++++++++aa";

const GoldenCohort kCohorts[] = {
    {"star-churn", CohortPolicy::kStar, InteractionMode::kStar, 4, 11, false,
     kChurn},
    {"clique-churn", CohortPolicy::kClique, InteractionMode::kClique, 4, 11,
     false, kChurn},
    {"star-churn-ties", CohortPolicy::kStar, InteractionMode::kStar, 4, 11,
     true, kChurn},
    {"clique-churn-ties", CohortPolicy::kClique, InteractionMode::kClique, 4,
     11, true, kChurn},
    {"star-layout-clique-mode", CohortPolicy::kStar, InteractionMode::kClique,
     3, 14, false, "aa+a-2a"},
    {"clique-layout-star-mode", CohortPolicy::kClique, InteractionMode::kStar,
     3, 14, false, "aa+a-2a"},
    {"random-churn", CohortPolicy::kRandom, InteractionMode::kClique, 3, 10,
     false, "a+a-4aa"},
    // m <= n < 2m: a single group absorbs the whole remainder.
    {"star-one-group", CohortPolicy::kStar, InteractionMode::kStar, 5, 7,
     false, "aa"},
    {"clique-one-group", CohortPolicy::kClique, InteractionMode::kClique, 5, 7,
     false, "aa"},
    // n < m: one undersized group.
    {"star-undersized", CohortPolicy::kStar, InteractionMode::kStar, 6, 4,
     false, "a-0a-0a"},
    {"clique-undersized", CohortPolicy::kClique, InteractionMode::kClique, 6,
     4, false, "a-0a-0a"},
    // group_size 1: every group is a singleton and nobody learns.
    {"star-singletons", CohortPolicy::kStar, InteractionMode::kStar, 1, 5,
     false, "a+a"},
    {"clique-singletons", CohortPolicy::kClique, InteractionMode::kClique, 1,
     5, false, "a+a"},
};

class SkillSource {
 public:
  SkillSource(uint64_t seed, bool ties) : rng_(seed), ties_(ties) {}
  double Next() {
    if (ties_) return 1.0 + 0.5 * static_cast<double>(rng_() % 6);
    return random::UniformReal(rng_, 0.5, 20.0);
  }

 private:
  random::Rng rng_;
  bool ties_;
};

// Runs one cohort's script and returns one JSON line per advanced round.
std::string RunCohort(const GoldenCohort& spec, uint64_t seed) {
  SCOPED_TRACE(spec.id);
  SkillSource skills(seed, spec.ties);
  int next_key = 0;
  auto fresh_key = [&next_key] {
    std::string key = "k";
    key += std::to_string(next_key++);
    return key;
  };
  std::vector<CohortParticipant> initial;
  for (int i = 0; i < spec.initial; ++i) {
    initial.push_back({fresh_key(), skills.Next()});
  }
  CohortConfig config;
  config.group_size = spec.group_size;
  config.policy = spec.policy;
  config.mode = spec.mode;
  config.learning_rate = 0.3;
  config.seed = seed;
  auto cohort = Cohort::Create(spec.id, config, initial);
  EXPECT_TRUE(cohort.ok()) << cohort.status();
  if (!cohort.ok()) return "";

  std::string out;
  for (const char* op = spec.script; *op != '\0'; ++op) {
    if (*op == '+') {
      EXPECT_TRUE(cohort->Join(fresh_key(), skills.Next()).ok());
    } else if (*op == '-') {
      const size_t position = static_cast<size_t>(*++op - '0');
      const std::string key = cohort->participants().at(position).key;
      EXPECT_TRUE(cohort->Leave(key).ok());
    } else {
      EXPECT_EQ(*op, 'a');
      EXPECT_TRUE(cohort->Advance().ok());
      const int t = cohort->rounds_advanced() - 1;
      util::JsonValue skills_after = util::JsonValue::MakeArray();
      for (const CohortParticipant& participant : cohort->participants()) {
        skills_after.Append(participant.skill);
      }
      util::JsonValue line = util::JsonValue::MakeObject();
      line.Set("cohort", std::string(spec.id));
      line.Set("round", CohortRoundToJson(
                            cohort->rounds()[static_cast<size_t>(t)], t));
      line.Set("skills_after", std::move(skills_after));
      out += line.Serialize();
      out += '\n';
    }
  }
  return out;
}

std::string GoldenPath() {
  return std::string(TDG_TESTS_GOLDEN_DIR) + "/" + kGoldenFile;
}

TEST(ServeCohortGoldenTest, RoundsMatchGolden) {
  std::string actual;
  uint64_t seed = 41;
  for (const GoldenCohort& spec : kCohorts) {
    actual += RunCohort(spec, seed++);
    if (HasFatalFailure()) return;
  }

  if (std::getenv("TDG_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden file " << GoldenPath();
    out << actual;
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }
  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot open golden file " << GoldenPath()
                         << " (regenerate with TDG_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  // Line by line, so a mismatch names the cohort and round.
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  int line = 0;
  while (std::getline(want, want_line)) {
    ++line;
    ASSERT_TRUE(std::getline(got, got_line)) << "missing line " << line;
    EXPECT_EQ(got_line, want_line) << "line " << line;
  }
  EXPECT_FALSE(std::getline(got, got_line)) << "extra line " << line + 1;
}

}  // namespace
}  // namespace tdg::serve
