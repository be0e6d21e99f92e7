// Parameterized invariants across (gain family x interaction mode):
// everything the learning model promises must hold for every combination,
// including the non-linear concave extensions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>

#include "core/dygroups.h"
#include "core/interaction.h"
#include "core/process.h"
#include "core/reference/reference_kernels.h"
#include "random/distributions.h"

namespace tdg {
namespace {

// Plain bytes, no pointers and no padding: gtest lists each test with a
// byte dump of its parameter, so a std::string member here would put a heap
// address into the listed test name and change it from run to run.
struct GainModeCase {
  char gain_name[36];  // constructor key, NUL-terminated
  InteractionMode mode;

  std::string Name() const {
    std::string name = std::string(gain_name) + "_" +
                       std::string(InteractionModeName(mode));
    for (char& c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    return name;
  }
};

std::unique_ptr<LearningGainFunction> MakeGain(const std::string& key) {
  if (key == "linear") return std::make_unique<LinearGain>(0.5);
  if (key == "linear-low") return std::make_unique<LinearGain>(0.1);
  if (key == "power") return std::make_unique<PowerGain>(0.5, 0.5);
  if (key == "log") return std::make_unique<LogGain>(0.8);
  if (key == "satexp") {
    return std::make_unique<SaturatingExpGain>(0.9, 2.0);
  }
  return nullptr;
}

class GainModePropertyTest : public testing::TestWithParam<GainModeCase> {
 protected:
  SkillVector MakeSkills(uint64_t seed, int n) const {
    random::Rng rng(seed);
    SkillVector skills = random::GenerateSkills(
        rng, random::SkillDistribution::kLogNormal, n);
    return skills;
  }
};

TEST_P(GainModePropertyTest, TeacherUnalteredAndSkillsMonotone) {
  auto gain = MakeGain(GetParam().gain_name);
  ASSERT_NE(gain, nullptr);
  SkillVector skills = MakeSkills(1, 24);
  SkillVector before = skills;
  Grouping grouping;
  grouping.groups.resize(4);
  for (int i = 0; i < 24; ++i) grouping.groups[i % 4].push_back(i);

  auto result = ApplyRound(GetParam().mode, grouping, *gain, skills);
  ASSERT_TRUE(result.ok());
  int top = static_cast<int>(
      std::max_element(before.begin(), before.end()) - before.begin());
  EXPECT_DOUBLE_EQ(skills[top], before[top]);
  for (size_t i = 0; i < skills.size(); ++i) {
    EXPECT_GE(skills[i], before[i] - 1e-12);
  }
}

TEST_P(GainModePropertyTest, NobodyOvertakesTheirBestTeacher) {
  auto gain = MakeGain(GetParam().gain_name);
  SkillVector skills = MakeSkills(2, 20);
  SkillVector before = skills;
  Grouping grouping;
  grouping.groups.resize(2);
  for (int i = 0; i < 20; ++i) grouping.groups[i % 2].push_back(i);
  ASSERT_TRUE(ApplyRound(GetParam().mode, grouping, *gain, skills).ok());
  for (const auto& group : grouping.groups) {
    double group_max = 0.0;
    for (int id : group) group_max = std::max(group_max, before[id]);
    for (int id : group) {
      EXPECT_LE(skills[id], group_max + 1e-12);
    }
  }
}

TEST_P(GainModePropertyTest, GainMatchesSkillDeltaOverProcess) {
  auto gain = MakeGain(GetParam().gain_name);
  SkillVector skills = MakeSkills(3, 30);
  auto policy = MakeDyGroupsPolicy(GetParam().mode);
  ProcessConfig config;
  config.num_groups = 3;
  config.num_rounds = 4;
  config.mode = GetParam().mode;
  auto result = RunProcess(skills, config, *gain, *policy);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_gain,
              TotalSkill(result->final_skills) - TotalSkill(skills),
              1e-7 * std::max(1.0, TotalSkill(skills)));
}

TEST_P(GainModePropertyTest, FastAndNaiveUpdatesAgree) {
  auto gain = MakeGain(GetParam().gain_name);
  SkillVector fast = MakeSkills(4, 18);
  SkillVector naive = fast;
  Grouping grouping;
  grouping.groups.resize(3);
  for (int i = 0; i < 18; ++i) grouping.groups[i % 3].push_back(i);
  auto fast_gain = ApplyRound(GetParam().mode, grouping, *gain, fast);
  auto naive_gain =
      reference::ApplyRoundNaive(GetParam().mode, grouping, *gain, naive);
  ASSERT_TRUE(fast_gain.ok() && naive_gain.ok());
  EXPECT_NEAR(fast_gain.value(), naive_gain.value(), 1e-9);
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], naive[i], 1e-9);
  }
}

std::vector<GainModeCase> MakeCases() {
  std::vector<GainModeCase> cases;
  for (const char* gain :
       {"linear", "linear-low", "power", "log", "satexp"}) {
    for (InteractionMode mode :
         {InteractionMode::kStar, InteractionMode::kClique}) {
      GainModeCase c{};
      std::snprintf(c.gain_name, sizeof(c.gain_name), "%s", gain);
      c.mode = mode;
      cases.push_back(c);
    }
  }
  return cases;
}

static_assert(sizeof(GainModeCase) == 40 &&
                  std::has_unique_object_representations_v<GainModeCase>,
              "the parameter's byte dump must not contain padding");

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, GainModePropertyTest, testing::ValuesIn(MakeCases()),
    [](const testing::TestParamInfo<GainModeCase>& info) {
      return info.param.Name();
    });

}  // namespace
}  // namespace tdg
