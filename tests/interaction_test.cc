#include "core/interaction.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/learning_gain.h"
#include "core/reference/reference_kernels.h"
#include "random/distributions.h"

namespace tdg {
namespace {

// --- Worked examples from paper §II ------------------------------------

// Star mode, group [0.9, 0.5, 0.3], r = 0.5: 0.5 -> 0.7, 0.3 -> 0.6,
// group gain 0.5.
TEST(StarModeTest, PaperSectionIIExample) {
  SkillVector skills = {0.9, 0.5, 0.3};
  Grouping grouping({{0, 1, 2}});
  LinearGain gain(0.5);
  auto result = ApplyRound(InteractionMode::kStar, grouping, gain, skills);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value(), 0.5);
  EXPECT_DOUBLE_EQ(skills[0], 0.9);
  EXPECT_DOUBLE_EQ(skills[1], 0.7);
  EXPECT_DOUBLE_EQ(skills[2], 0.6);
}

// Clique mode, same group: 0.3 -> 0.3 + (0.5*0.2 + 0.5*0.6)/2 = 0.5,
// 0.5 -> 0.7, group gain 0.4.
TEST(CliqueModeTest, PaperSectionIIExample) {
  SkillVector skills = {0.9, 0.5, 0.3};
  Grouping grouping({{0, 1, 2}});
  LinearGain gain(0.5);
  auto result = ApplyRound(InteractionMode::kClique, grouping, gain, skills);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value(), 0.4);
  EXPECT_DOUBLE_EQ(skills[0], 0.9);
  EXPECT_DOUBLE_EQ(skills[1], 0.7);
  EXPECT_DOUBLE_EQ(skills[2], 0.5);
}

// Pairwise interaction from §II: 0.3 with 0.9 at r=0.5 -> 0.6.
TEST(StarModeTest, PairwiseInteraction) {
  SkillVector skills = {0.3, 0.9};
  Grouping grouping({{0, 1}});
  LinearGain gain(0.5);
  auto result = ApplyRound(InteractionMode::kStar, grouping, gain, skills);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value(), 0.3);
  EXPECT_DOUBLE_EQ(skills[0], 0.6);
  EXPECT_DOUBLE_EQ(skills[1], 0.9);
}

// --- Structural properties ----------------------------------------------

TEST(InteractionTest, TeacherUnalteredInBothModes) {
  for (InteractionMode mode :
       {InteractionMode::kStar, InteractionMode::kClique}) {
    SkillVector skills = {0.2, 0.95, 0.4, 0.6};
    Grouping grouping({{0, 1, 2, 3}});
    LinearGain gain(0.3);
    ASSERT_TRUE(ApplyRound(mode, grouping, gain, skills).ok());
    EXPECT_DOUBLE_EQ(skills[1], 0.95) << InteractionModeName(mode);
  }
}

TEST(InteractionTest, GainEqualsSumOfSkillDeltas) {
  random::Rng rng(7);
  for (InteractionMode mode :
       {InteractionMode::kStar, InteractionMode::kClique}) {
    SkillVector skills =
        random::GenerateSkills(rng, random::SkillDistribution::kUniform, 12);
    for (double& s : skills) s += 0.01;  // ensure strictly positive
    SkillVector before = skills;
    Grouping grouping({{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}});
    LinearGain gain(0.5);
    auto result = ApplyRound(mode, grouping, gain, skills);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result.value(), AggregateGain(before, skills), 1e-12);
  }
}

TEST(InteractionTest, SkillsNeverDecrease) {
  random::Rng rng(11);
  for (InteractionMode mode :
       {InteractionMode::kStar, InteractionMode::kClique}) {
    SkillVector skills =
        random::GenerateSkills(rng, random::SkillDistribution::kLogNormal, 10);
    SkillVector before = skills;
    Grouping grouping({{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}});
    LinearGain gain(0.7);
    ASSERT_TRUE(ApplyRound(mode, grouping, gain, skills).ok());
    for (size_t i = 0; i < skills.size(); ++i) {
      EXPECT_GE(skills[i], before[i]);
    }
  }
}

// The clique averaging preserves within-group skill order (the design
// rationale stated in §II).
TEST(CliqueModeTest, PreservesWithinGroupOrder) {
  random::Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    SkillVector skills =
        random::GenerateSkills(rng, random::SkillDistribution::kUniform, 6);
    for (double& s : skills) s += 0.01;
    SkillVector before = skills;
    Grouping grouping({{0, 1, 2, 3, 4, 5}});
    LinearGain gain(0.9);
    ASSERT_TRUE(
        ApplyRound(InteractionMode::kClique, grouping, gain, skills).ok());
    for (size_t i = 0; i < skills.size(); ++i) {
      for (size_t j = 0; j < skills.size(); ++j) {
        if (before[i] > before[j]) {
          EXPECT_GE(skills[i], skills[j])
              << "order inverted between " << i << " and " << j;
        }
      }
    }
  }
}

// Star mode does NOT preserve order in general (learners can overtake
// intermediate members) — the motivating contrast for clique averaging.
TEST(StarModeTest, CanReorderMembers) {
  SkillVector skills = {0.9, 0.5, 0.45};
  Grouping grouping({{0, 1, 2}});
  LinearGain gain(0.5);
  ASSERT_TRUE(
      ApplyRound(InteractionMode::kStar, grouping, gain, skills).ok());
  // 0.45 -> 0.675, 0.5 -> 0.7: order preserved here, but with unequal
  // starting gaps a lower member can pass a *non-grouped* higher member;
  // within a star group order is in fact preserved for linear gains.
  // What star mode does break is cross-group order:
  SkillVector cross = {0.9, 0.5, 0.6, 0.55};
  Grouping two_groups({{0, 1}, {2, 3}});
  ASSERT_TRUE(
      ApplyRound(InteractionMode::kStar, two_groups, gain, cross).ok());
  EXPECT_GT(cross[1], cross[3]);  // 0.5 -> 0.7 passes 0.55 -> 0.575
}

// --- Theorem 3: O(n) clique update matches the naive O(t^2) update ------

TEST(CliqueModeTest, FastPathMatchesNaive) {
  random::Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    int group_size = 2 + static_cast<int>(rng.NextBounded(8));
    int k = 1 + static_cast<int>(rng.NextBounded(3));
    int n = group_size * k;
    SkillVector skills =
        random::GenerateSkills(rng, random::SkillDistribution::kLogNormal, n);
    Grouping grouping;
    grouping.groups.resize(k);
    for (int i = 0; i < n; ++i) grouping.groups[i % k].push_back(i);

    SkillVector fast = skills;
    SkillVector naive = skills;
    LinearGain gain(0.05 + 0.9 * rng.NextDouble());
    auto fast_gain =
        ApplyRound(InteractionMode::kClique, grouping, gain, fast);
    auto naive_gain = reference::ApplyRoundNaive(InteractionMode::kClique,
                                                 grouping, gain, naive);
    ASSERT_TRUE(fast_gain.ok());
    ASSERT_TRUE(naive_gain.ok());
    EXPECT_NEAR(fast_gain.value(), naive_gain.value(), 1e-9);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(fast[i], naive[i], 1e-9);
    }
  }
}

// Ties: rank order among equal skills is id-deterministic, and the clique
// denominators follow rank (not strict dominance), matching Eq. 2.
TEST(CliqueModeTest, TiesAreDeterministic) {
  SkillVector skills = {5.0, 3.0, 3.0};
  Grouping grouping({{0, 1, 2}});
  LinearGain gain(0.5);
  ASSERT_TRUE(
      ApplyRound(InteractionMode::kClique, grouping, gain, skills).ok());
  EXPECT_DOUBLE_EQ(skills[0], 5.0);
  EXPECT_DOUBLE_EQ(skills[1], 4.0);   // rank 2: f(2)/1 = 1
  EXPECT_DOUBLE_EQ(skills[2], 3.5);   // rank 3: (f(2)+f(0))/2 = 0.5
}

TEST(InteractionTest, SingletonGroupsAreNoOps) {
  SkillVector skills = {1.0, 2.0, 3.0};
  Grouping grouping({{0}, {1}, {2}});
  LinearGain gain(0.5);
  auto result = ApplyRound(InteractionMode::kStar, grouping, gain, skills);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value(), 0.0);
  EXPECT_EQ(skills, (SkillVector{1.0, 2.0, 3.0}));
}

TEST(InteractionTest, UnequalGroupSizesSupported) {
  SkillVector skills = {1.0, 2.0, 3.0, 4.0, 5.0};
  Grouping grouping({{0, 1, 4}, {2, 3}});
  LinearGain gain(0.5);
  auto result = ApplyRound(InteractionMode::kStar, grouping, gain, skills);
  ASSERT_TRUE(result.ok());
  // Group 1: 1->3, 2->3.5 (teacher 5); group 2: 3->3.5 (teacher 4).
  EXPECT_DOUBLE_EQ(skills[0], 3.0);
  EXPECT_DOUBLE_EQ(skills[1], 3.5);
  EXPECT_DOUBLE_EQ(skills[2], 3.5);
  EXPECT_DOUBLE_EQ(result.value(), 2.0 + 1.5 + 0.5);
}

TEST(InteractionTest, InvalidGroupingRejected) {
  SkillVector skills = {1.0, 2.0, 3.0};
  LinearGain gain(0.5);
  Grouping missing_member({{0, 1}});
  EXPECT_FALSE(
      ApplyRound(InteractionMode::kStar, missing_member, gain, skills).ok());
  Grouping duplicate({{0, 1}, {1, 2}});
  EXPECT_FALSE(
      ApplyRound(InteractionMode::kStar, duplicate, gain, skills).ok());
}

TEST(InteractionTest, EvaluateRoundGainDoesNotMutate) {
  SkillVector skills = {0.9, 0.5, 0.3};
  Grouping grouping({{0, 1, 2}});
  LinearGain gain(0.5);
  auto result =
      EvaluateRoundGain(InteractionMode::kStar, grouping, gain, skills);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value(), 0.5);
  EXPECT_EQ(skills, (SkillVector{0.9, 0.5, 0.3}));
}

TEST(InteractionModeTest, NamesRoundTrip) {
  EXPECT_EQ(InteractionModeName(InteractionMode::kStar), "star");
  EXPECT_EQ(InteractionModeName(InteractionMode::kClique), "clique");
  EXPECT_EQ(ParseInteractionMode("star").value(), InteractionMode::kStar);
  EXPECT_EQ(ParseInteractionMode("clique").value(),
            InteractionMode::kClique);
  EXPECT_FALSE(ParseInteractionMode("ring").ok());
}

}  // namespace
}  // namespace tdg
