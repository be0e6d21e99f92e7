// Property tests for the parallel exact solvers and the SA delta objective.
//
// The determinism contract (DESIGN.md): for every thread count, the
// parallel brute force and branch-and-bound return the SAME optimum as the
// serial solver — gain bitwise equal, grouping sequence identical —
// regardless of which worker solves which subtree. And simulated annealing's
// O(n/k) delta objective follows a bitwise-identical trajectory to full
// O(n) re-evaluation. These tests hammer that contract across ~200
// randomized instances plus the degenerate shapes (k = 1, k = n, n % k != 0,
// n = 0, one thread, more threads than subtree tasks).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/simulated_annealing.h"
#include "core/branch_bound.h"
#include "core/brute_force.h"
#include "core/objective.h"
#include "random/distributions.h"

namespace tdg {
namespace {

SkillVector RandomSkills(random::Rng& rng, random::SkillDistribution dist,
                         int n) {
  SkillVector skills = random::GenerateSkills(rng, dist, n);
  for (double& s : skills) s += 1e-9;
  return skills;
}

std::string SequenceKey(const std::vector<Grouping>& sequence) {
  std::string key;
  for (const Grouping& grouping : sequence) {
    key += grouping.CanonicalKey();
    key += ";";
  }
  return key;
}

random::SkillDistribution PickDistribution(int trial) {
  switch (trial % 3) {
    case 0:
      return random::SkillDistribution::kUniform;
    case 1:
      return random::SkillDistribution::kLogNormal;
    default:
      return random::SkillDistribution::kZipf;
  }
}

// 120 instances x 2 solvers: the parallel optimum — value AND sequence —
// is bitwise equal to the serial one.
TEST(ParallelSolverPropertyTest, ParallelMatchesSerialBitwise) {
  random::Rng rng(4242);
  for (int trial = 0; trial < 120; ++trial) {
    int n = (trial % 5 == 4) ? 8 : 4 + 2 * static_cast<int>(rng.NextBounded(2));
    int k = 2;
    if (n == 6 && trial % 3 == 0) k = 3;
    if (n == 8 && trial % 2 == 0) k = 4;
    int alpha = (n == 8) ? 1 + static_cast<int>(rng.NextBounded(2))
                         : 1 + static_cast<int>(rng.NextBounded(3));
    double r = 0.05 + 0.9 * rng.NextDouble();
    InteractionMode mode =
        (trial % 2 == 0) ? InteractionMode::kStar : InteractionMode::kClique;
    int threads = 2 + static_cast<int>(rng.NextBounded(7));  // 2..8
    SkillVector skills = RandomSkills(rng, PickDistribution(trial), n);
    LinearGain gain(r);
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" + std::to_string(n) +
                 " k=" + std::to_string(k) + " alpha=" + std::to_string(alpha) +
                 " threads=" + std::to_string(threads));

    BruteForceOptions bf_serial;
    auto brute = SolveTdgBruteForce(skills, k, alpha, mode, gain, bf_serial);
    BruteForceOptions bf_parallel;
    bf_parallel.num_threads = threads;
    auto brute_par =
        SolveTdgBruteForce(skills, k, alpha, mode, gain, bf_parallel);
    ASSERT_TRUE(brute.ok()) << brute.status();
    ASSERT_TRUE(brute_par.ok()) << brute_par.status();
    EXPECT_EQ(brute_par->best_total_gain, brute->best_total_gain);
    EXPECT_EQ(SequenceKey(brute_par->best_sequence),
              SequenceKey(brute->best_sequence));
    EXPECT_EQ(brute_par->sequences_explored, brute->sequences_explored);
    EXPECT_EQ(brute_par->threads_used, threads);

    BranchBoundOptions bb_serial;
    auto bounded = SolveTdgBranchBound(skills, k, alpha, mode, gain, bb_serial);
    BranchBoundOptions bb_parallel;
    bb_parallel.num_threads = threads;
    auto bounded_par =
        SolveTdgBranchBound(skills, k, alpha, mode, gain, bb_parallel);
    ASSERT_TRUE(bounded.ok()) << bounded.status();
    ASSERT_TRUE(bounded_par.ok()) << bounded_par.status();
    EXPECT_EQ(bounded_par->best_total_gain, bounded->best_total_gain);
    EXPECT_EQ(SequenceKey(bounded_par->best_sequence),
              SequenceKey(bounded->best_sequence));
    // Both exact solvers agree with each other (up to float noise between
    // different traversal orders).
    EXPECT_NEAR(bounded->best_total_gain, brute->best_total_gain, 1e-9);
  }
}

// 40 instances: SA with delta evaluation returns the identical grouping
// (member for member) as SA with full re-evaluation under the same seed,
// while spending only O(n/k)-sized evaluations after the first.
TEST(ParallelSolverPropertyTest, SaDeltaTrajectoryMatchesFullBitwise) {
  random::Rng rng(777);
  const struct Shape {
    int n, k;
  } shapes[] = {{8, 2}, {12, 3}, {12, 4}, {20, 5}, {24, 6}};
  for (int trial = 0; trial < 40; ++trial) {
    const Shape& shape = shapes[trial % 5];
    InteractionMode mode =
        (trial % 2 == 0) ? InteractionMode::kStar : InteractionMode::kClique;
    double r = 0.05 + 0.9 * rng.NextDouble();
    uint64_t seed = 1000 + trial;
    SkillVector skills = RandomSkills(rng, PickDistribution(trial), shape.n);
    LinearGain gain(r);
    SCOPED_TRACE("trial=" + std::to_string(trial) +
                 " n=" + std::to_string(shape.n) +
                 " k=" + std::to_string(shape.k));

    baselines::SimulatedAnnealingOptions options;
    options.iterations = 300;

    options.delta_evaluation = false;
    baselines::SimulatedAnnealingPolicy sa_full(mode, gain, seed, options);
    auto grouping_full = sa_full.FormGroups(skills, shape.k);
    ASSERT_TRUE(grouping_full.ok()) << grouping_full.status();

    options.delta_evaluation = true;
    baselines::SimulatedAnnealingPolicy sa_delta(mode, gain, seed, options);
    auto grouping_delta = sa_delta.FormGroups(skills, shape.k);
    ASSERT_TRUE(grouping_delta.ok()) << grouping_delta.status();

    EXPECT_TRUE(grouping_full.value() == grouping_delta.value());
    EXPECT_EQ(grouping_full->CanonicalKey(), grouping_delta->CanonicalKey());
    // The delta path performs exactly one full evaluation (the initial
    // grouping); every proposal costs two group evaluations instead.
    EXPECT_EQ(sa_delta.last_full_evaluations(), 1);
    EXPECT_EQ(sa_delta.last_delta_evaluations(), options.iterations);
    EXPECT_EQ(sa_full.last_delta_evaluations(), 0);
  }
}

// 40 instances: EvaluateRoundGainDelta agrees with a from-scratch
// re-evaluation of the swapped grouping, and the per-group decomposition
// sums back to EvaluateRoundGain bitwise.
TEST(ParallelSolverPropertyTest, DeltaObjectiveMatchesFullReevaluation) {
  random::Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    int k = 2 + static_cast<int>(rng.NextBounded(4));      // 2..5
    int size = 2 + static_cast<int>(rng.NextBounded(4));   // 2..5
    int n = k * size;
    InteractionMode mode =
        (trial % 2 == 0) ? InteractionMode::kStar : InteractionMode::kClique;
    SkillVector skills = RandomSkills(rng, PickDistribution(trial), n);
    LinearGain gain(0.05 + 0.9 * rng.NextDouble());
    SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" + std::to_string(n) +
                 " k=" + std::to_string(k));

    std::vector<std::vector<int>> groups(k);
    for (int i = 0; i < n; ++i) groups[i % k].push_back(i);
    Grouping grouping(groups);

    // Per-group decomposition: summing EvaluateGroupGain over groups in
    // order reproduces EvaluateRoundGain's accumulation exactly.
    auto full = EvaluateRoundGain(mode, grouping, gain, skills);
    ASSERT_TRUE(full.ok()) << full.status();
    double sum = 0.0;
    for (int g = 0; g < k; ++g) {
      auto group_gain =
          EvaluateGroupGain(mode, grouping.groups[g], gain, skills);
      ASSERT_TRUE(group_gain.ok()) << group_gain.status();
      sum += group_gain.value();
    }
    EXPECT_EQ(sum, full.value());

    int ga = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(k)));
    int gb = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(k - 1)));
    if (gb >= ga) ++gb;
    int ia = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(size)));
    int ib = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(size)));
    auto delta =
        EvaluateRoundGainDelta(mode, grouping, gain, skills, ga, ia, gb, ib);
    ASSERT_TRUE(delta.ok()) << delta.status();

    std::vector<std::vector<int>> swapped = groups;
    std::swap(swapped[ga][ia], swapped[gb][ib]);
    auto full_after =
        EvaluateRoundGain(mode, Grouping(swapped), gain, skills);
    ASSERT_TRUE(full_after.ok()) << full_after.status();
    EXPECT_NEAR(full.value() + delta->delta, full_after.value(), 1e-9);
    // The delta's own group terms decompose the same way.
    EXPECT_NEAR(delta->delta, (delta->new_gain_a + delta->new_gain_b) -
                                  (delta->old_gain_a + delta->old_gain_b),
                1e-15);
  }
}

TEST(ParallelSolverEdgeCaseTest, SingleGroupKEqualsOne) {
  // k = 1: exactly one grouping (everyone together); every sequence is the
  // same, so serial and parallel trivially agree and the frontier has a
  // single subtree task — fewer tasks than threads.
  SkillVector skills = {1.0, 2.0, 3.0, 4.0};
  LinearGain gain(0.5);
  BruteForceOptions bf;
  bf.num_threads = 8;
  auto brute =
      SolveTdgBruteForce(skills, 1, 2, InteractionMode::kStar, gain, bf);
  ASSERT_TRUE(brute.ok()) << brute.status();
  EXPECT_EQ(brute->sequences_explored, 1);

  BranchBoundOptions bb;
  bb.num_threads = 8;
  auto bounded =
      SolveTdgBranchBound(skills, 1, 2, InteractionMode::kStar, gain, bb);
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  EXPECT_EQ(bounded->best_total_gain, brute->best_total_gain);
  EXPECT_EQ(SequenceKey(bounded->best_sequence),
            SequenceKey(brute->best_sequence));
}

TEST(ParallelSolverEdgeCaseTest, SingletonGroupsKEqualsN) {
  // k = n: every group is a singleton, so no interaction happens and the
  // optimal total gain is exactly zero in every round.
  SkillVector skills = {1.0, 2.0, 3.0};
  LinearGain gain(0.5);
  for (int threads : {1, 4}) {
    BranchBoundOptions bb;
    bb.num_threads = threads;
    auto bounded =
        SolveTdgBranchBound(skills, 3, 2, InteractionMode::kClique, gain, bb);
    ASSERT_TRUE(bounded.ok()) << bounded.status();
    EXPECT_EQ(bounded->best_total_gain, 0.0);
    BruteForceOptions bf;
    bf.num_threads = threads;
    auto brute =
        SolveTdgBruteForce(skills, 3, 2, InteractionMode::kClique, gain, bf);
    ASSERT_TRUE(brute.ok()) << brute.status();
    EXPECT_EQ(brute->best_total_gain, 0.0);
  }
}

TEST(ParallelSolverEdgeCaseTest, RejectsIndivisibleAndEmptyPopulations) {
  LinearGain gain(0.5);
  for (int threads : {1, 4}) {
    BranchBoundOptions bb;
    bb.num_threads = threads;
    BruteForceOptions bf;
    bf.num_threads = threads;

    // n = 5, k = 2 does not divide.
    SkillVector odd = {1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_FALSE(
        SolveTdgBranchBound(odd, 2, 1, InteractionMode::kStar, gain, bb).ok());
    EXPECT_FALSE(
        SolveTdgBruteForce(odd, 2, 1, InteractionMode::kStar, gain, bf).ok());

    // n = 0 is rejected outright.
    SkillVector empty;
    EXPECT_FALSE(
        SolveTdgBranchBound(empty, 1, 1, InteractionMode::kStar, gain, bb)
            .ok());
    EXPECT_FALSE(
        SolveTdgBruteForce(empty, 1, 1, InteractionMode::kStar, gain, bf)
            .ok());
  }
}

TEST(ParallelSolverEdgeCaseTest, ZeroRoundsAndExplicitSingleThread) {
  SkillVector skills = {1.0, 2.0, 3.0, 4.0};
  LinearGain gain(0.5);
  for (int threads : {0, 1, 6}) {
    BranchBoundOptions bb;
    bb.num_threads = threads;
    auto bounded =
        SolveTdgBranchBound(skills, 2, 0, InteractionMode::kStar, gain, bb);
    ASSERT_TRUE(bounded.ok()) << bounded.status();
    EXPECT_EQ(bounded->best_total_gain, 0.0);
    EXPECT_TRUE(bounded->best_sequence.empty());

    BruteForceOptions bf;
    bf.num_threads = threads;
    auto brute =
        SolveTdgBruteForce(skills, 2, 0, InteractionMode::kStar, gain, bf);
    ASSERT_TRUE(brute.ok()) << brute.status();
    EXPECT_EQ(brute->best_total_gain, 0.0);
    EXPECT_TRUE(brute->best_sequence.empty());
    // alpha = 0 leaves a single (empty) sequence.
    EXPECT_EQ(brute->sequences_explored, 1);
  }
}

TEST(ParallelSolverEdgeCaseTest, ManyMoreThreadsThanSubtreeTasks) {
  // n = 4, k = 2 has 3 groupings; alpha = 1 seeds at most 3 subtree tasks
  // while 16 workers contend for them. Most workers find the queue empty.
  SkillVector skills = {0.5, 1.5, 2.5, 3.5};
  LinearGain gain(0.4);
  BranchBoundOptions bb_serial;
  auto serial =
      SolveTdgBranchBound(skills, 2, 1, InteractionMode::kStar, gain,
                          bb_serial);
  BranchBoundOptions bb;
  bb.num_threads = 16;
  auto parallel =
      SolveTdgBranchBound(skills, 2, 1, InteractionMode::kStar, gain, bb);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(parallel->best_total_gain, serial->best_total_gain);
  EXPECT_EQ(SequenceKey(parallel->best_sequence),
            SequenceKey(serial->best_sequence));
  EXPECT_LE(parallel->subtree_tasks, 3);
}

}  // namespace
}  // namespace tdg
