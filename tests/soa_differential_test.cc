// Differential test oracle for the SoA data plane (DESIGN.md §11).
//
// Every hot kernel of core/soa.h is driven head-to-head against the retained
// AoS reference implementations (core/reference/reference_kernels.h) over
// hundreds of randomized instances — heavy-tailed and degenerate skill
// distributions, tie-saturated vectors, n from 2 to 10^4, every k shape —
// asserting *bitwise* identical groupings, gains, and skill updates. The
// whole suite runs twice: once with the SIMD paths enabled and once forced
// scalar, which simultaneously proves scalar/SIMD parity (soa.h rule 1) and
// reduction-order stability (rule 2). The documented tolerance is 0 ULP; a
// change that needs more must update soa.h, DESIGN.md §11, and this file
// together.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/dygroups.h"
#include "core/interaction.h"
#include "core/learning_gain.h"
#include "core/objective.h"
#include "core/process.h"
#include "core/reference/reference_kernels.h"
#include "core/skills.h"
#include "core/soa.h"
#include "core/variable_groups.h"
#include "random/distributions.h"
#include "serve/cohort.h"

namespace tdg {
namespace {

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

#define EXPECT_BITEQ(a, b) EXPECT_EQ(Bits(a), Bits(b))
#define ASSERT_BITEQ(a, b) ASSERT_EQ(Bits(a), Bits(b))

void ExpectBitwiseEqual(const std::vector<double>& a,
                        const std::vector<double>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i]))
        << what << " diverges at index " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

// --- Instance generation --------------------------------------------------

enum class Dist {
  kUniform,    // uniform [0.5, 100)
  kLogNormal,  // paper §V-B1 parameters: mu = e, sigma = sqrt(e)
  kZipf,       // bounded Zipf(2.3, 10) — integer skills, many exact ties
  kTies,       // uniform over {1, 2, 3} — tie-saturated
  kConstant,   // all members identical (fully degenerate)
  kWideRange,  // magnitudes spanning 1e-6 .. 1e8
};

constexpr Dist kAllDists[] = {Dist::kUniform, Dist::kLogNormal, Dist::kZipf,
                              Dist::kTies,    Dist::kConstant,
                              Dist::kWideRange};

SkillVector GenSkills(random::Rng& rng, int n, Dist dist) {
  SkillVector skills(n);
  const random::BoundedZipf zipf(2.3, 10);
  for (int i = 0; i < n; ++i) {
    switch (dist) {
      case Dist::kUniform:
        skills[i] = random::UniformReal(rng, 0.5, 100.0);
        break;
      case Dist::kLogNormal:
        skills[i] = random::LogNormal(rng, std::exp(1.0),
                                      std::sqrt(std::exp(1.0)));
        break;
      case Dist::kZipf:
        skills[i] = static_cast<double>(zipf.Sample(rng));
        break;
      case Dist::kTies:
        skills[i] = std::floor(random::UniformReal(rng, 1.0, 4.0));
        break;
      case Dist::kConstant:
        skills[i] = 7.25;
        break;
      case Dist::kWideRange:
        skills[i] = std::pow(10.0, random::UniformReal(rng, -6.0, 8.0));
        break;
    }
  }
  return skills;
}

// A divisor of n, biased across the k = 1 / k = n / middle shapes.
int PickNumGroups(random::Rng& rng, int n) {
  std::vector<int> divisors;
  for (int k = 1; k <= n; ++k) {
    if (n % k == 0) divisors.push_back(k);
  }
  return divisors[rng() % divisors.size()];
}

// Random equi-sized partition (shuffled ids dealt into n/k blocks).
Grouping RandomGrouping(random::Rng& rng, int n, int num_groups) {
  std::vector<int> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(ids[i], ids[rng() % (i + 1)]);
  }
  Grouping grouping;
  grouping.groups.resize(num_groups);
  int group_size = n / num_groups;
  for (int g = 0; g < num_groups; ++g) {
    grouping.groups[g].assign(ids.begin() + g * group_size,
                              ids.begin() + (g + 1) * group_size);
  }
  return grouping;
}

const LearningGainFunction& PickGain(random::Rng& rng,
                                     std::vector<std::unique_ptr<
                                         LearningGainFunction>>& storage) {
  double r = random::UniformReal(rng, 0.05, 0.95);
  switch (rng() % 4) {
    case 0:
      storage.push_back(std::make_unique<LinearGain>(r));
      break;
    case 1:
      storage.push_back(std::make_unique<PowerGain>(r, 0.7));
      break;
    case 2:
      storage.push_back(std::make_unique<LogGain>(r));
      break;
    default:
      storage.push_back(std::make_unique<SaturatingExpGain>(r, 2.0));
      break;
  }
  return *storage.back();
}

// --- The differential driver ----------------------------------------------

// One randomized instance: checks every kernel of the SoA plane against the
// AoS reference on the same inputs, bit for bit.
void RunDifferentialInstance(uint64_t seed, int n) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n));
  random::Rng rng(seed);
  const Dist dist = kAllDists[rng() % std::size(kAllDists)];
  const SkillVector skills = GenSkills(rng, n, dist);
  const int num_groups = PickNumGroups(rng, n);
  std::vector<std::unique_ptr<LearningGainFunction>> gains;
  const LearningGainFunction& gain = PickGain(rng, gains);
  const InteractionMode mode =
      rng() % 2 == 0 ? InteractionMode::kStar : InteractionMode::kClique;

  // Kernel 1: the descending-skill sort permutation.
  std::vector<int> sorted = SortedByskillDescending(skills);
  EXPECT_EQ(sorted, reference::SortedByskillDescending(skills));

  // Kernel 2: skill deficits.
  ExpectBitwiseEqual(SkillDeficits(skills), reference::SkillDeficits(skills),
                     "deficits");

  // Kernel 3: grouping construction (both DyGroups layouts).
  auto star = DyGroupsStarLocal(skills, num_groups);
  auto star_ref = reference::DyGroupsStarLocal(skills, num_groups);
  ASSERT_TRUE(star.ok() && star_ref.ok());
  EXPECT_EQ(star.value().groups, star_ref.value().groups);
  auto clique = DyGroupsCliqueLocal(skills, num_groups);
  auto clique_ref = reference::DyGroupsCliqueLocal(skills, num_groups);
  ASSERT_TRUE(clique.ok() && clique_ref.ok());
  EXPECT_EQ(clique.value().groups, clique_ref.value().groups);

  // Kernel 4: a full interaction round over a *random* partition (exercises
  // the per-group rank sort, both gain kernels, and the scatter-add).
  const Grouping grouping = RandomGrouping(rng, n, num_groups);
  SkillVector updated = skills;
  SkillVector updated_ref = skills;
  auto round = ApplyRound(mode, grouping, gain, updated);
  auto round_ref = reference::ApplyRound(mode, grouping, gain, updated_ref);
  ASSERT_TRUE(round.ok() && round_ref.ok());
  EXPECT_BITEQ(round.value(), round_ref.value());
  ExpectBitwiseEqual(updated, updated_ref, "skills after ApplyRound");

  // Kernel 5: per-group gain evaluation (the objective's building block).
  for (const auto& members : grouping.groups) {
    auto g = EvaluateGroupGain(mode, members, gain, skills);
    auto g_ref = reference::EvaluateGroupGain(mode, members, gain, skills);
    ASSERT_TRUE(g.ok() && g_ref.ok());
    EXPECT_BITEQ(g.value(), g_ref.value());
  }

  // Kernel 6: the O(n/k) swap-delta, vs deltas recomputed from reference
  // group gains.
  if (num_groups >= 2) {
    int ga = static_cast<int>(rng() % num_groups);
    int gb = static_cast<int>((ga + 1 + rng() % (num_groups - 1)) %
                              num_groups);
    int group_size = n / num_groups;
    int ia = static_cast<int>(rng() % group_size);
    int ib = static_cast<int>(rng() % group_size);
    auto delta = EvaluateRoundGainDelta(mode, grouping, gain, skills, ga, ia,
                                        gb, ib, nullptr, nullptr);
    ASSERT_TRUE(delta.ok());
    std::vector<int> swapped_a = grouping.groups[ga];
    std::vector<int> swapped_b = grouping.groups[gb];
    std::swap(swapped_a[ia], swapped_b[ib]);
    auto old_a =
        reference::EvaluateGroupGain(mode, grouping.groups[ga], gain, skills);
    auto old_b =
        reference::EvaluateGroupGain(mode, grouping.groups[gb], gain, skills);
    auto new_a = reference::EvaluateGroupGain(mode, swapped_a, gain, skills);
    auto new_b = reference::EvaluateGroupGain(mode, swapped_b, gain, skills);
    ASSERT_TRUE(old_a.ok() && old_b.ok() && new_a.ok() && new_b.ok());
    EXPECT_BITEQ(delta.value().old_gain_a, old_a.value());
    EXPECT_BITEQ(delta.value().old_gain_b, old_b.value());
    EXPECT_BITEQ(delta.value().new_gain_a, new_a.value());
    EXPECT_BITEQ(delta.value().new_gain_b, new_b.value());
    EXPECT_BITEQ(delta.value().delta,
                 (new_a.value() + new_b.value()) -
                     (old_a.value() + old_b.value()));
  }

  // Kernel 7: the fused DyGroups round, against FormGroups + ApplyRound on
  // the reference path — both layouts, in the instance's interaction mode
  // (the layout × mode cross-product is intentional: sweeps run e.g. the
  // star layout in clique mode).
  for (auto layout : {soa::DyGroupsLayout::kStarBlocks,
                      soa::DyGroupsLayout::kRoundRobin}) {
    const auto& formed = layout == soa::DyGroupsLayout::kStarBlocks
                             ? star_ref.value()
                             : clique_ref.value();
    SkillVector fused = skills;
    auto fused_gain = soa::DyGroupsRound(layout, mode, gain, fused,
                                         num_groups,
                                         soa::ThreadLocalArena());
    SkillVector ref = skills;
    auto ref_gain = reference::ApplyRound(mode, formed, gain, ref);
    ASSERT_TRUE(fused_gain.ok() && ref_gain.ok());
    EXPECT_BITEQ(fused_gain.value(), ref_gain.value());
    ExpectBitwiseEqual(fused, ref, "skills after fused DyGroupsRound");
  }
}

class SoaDifferentialTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { soa::SetSimdEnabledForTest(GetParam()); }
  void TearDown() override { soa::SetSimdEnabledForTest(true); }
};

// 160 instances x {SIMD on, SIMD off} = 320 randomized instances, n from 2
// to 240 — the small-n regime where every k shape (k=1, k=n, ragged
// remainders against the vector width) occurs.
TEST_P(SoaDifferentialTest, RandomizedSmallInstances) {
  for (uint64_t seed = 1; seed <= 160; ++seed) {
    int n = 2 + static_cast<int>((seed * 7919) % 239);
    RunDifferentialInstance(seed, n);
    if (HasFatalFailure()) return;
  }
}

// Large instances push the sort into its radix path (n >= 512) and the
// round kernels across many vector iterations.
TEST_P(SoaDifferentialTest, RandomizedLargeInstances) {
  for (uint64_t seed = 1000; seed < 1010; ++seed) {
    int n = 512 + static_cast<int>((seed * 104729) % 9489);  // up to 10^4
    RunDifferentialInstance(seed, n);
    if (HasFatalFailure()) return;
  }
}

// Instances past the wide-sort threshold (48K), so the two-pass top-32
// radix + run repair and the key-inversion skill reconstruction of the
// fused round are differentially tested, not just the mid-size paths. A
// slimmer check than RunDifferentialInstance: the naive O(t^2) clique
// oracle is too slow at this size, so only the linear-gain kernels run —
// which are exactly the ones with wide-path-specific code.
TEST_P(SoaDifferentialTest, RandomizedWideSortInstances) {
  for (uint64_t seed = 2000; seed < 2002; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    random::Rng rng(seed);
    const Dist dist = kAllDists[rng() % std::size(kAllDists)];
    const int n = 49152 + 64 * static_cast<int>(rng() % 64);
    const SkillVector skills = GenSkills(rng, n, dist);
    const int num_groups = n / 64;
    LinearGain gain(0.45);

    EXPECT_EQ(SortedByskillDescending(skills),
              reference::SortedByskillDescending(skills));
    ExpectBitwiseEqual(SkillDeficits(skills),
                       reference::SkillDeficits(skills), "deficits");

    for (auto mode : {InteractionMode::kStar, InteractionMode::kClique}) {
      for (auto layout : {soa::DyGroupsLayout::kStarBlocks,
                          soa::DyGroupsLayout::kRoundRobin}) {
        auto formed = layout == soa::DyGroupsLayout::kStarBlocks
                          ? reference::DyGroupsStarLocal(skills, num_groups)
                          : reference::DyGroupsCliqueLocal(skills,
                                                           num_groups);
        ASSERT_TRUE(formed.ok());
        SkillVector fused = skills;
        auto fused_gain =
            soa::DyGroupsRound(layout, mode, gain, fused, num_groups,
                               soa::ThreadLocalArena());
        SkillVector ref = skills;
        auto ref_gain =
            reference::ApplyRound(mode, formed.value(), gain, ref);
        ASSERT_TRUE(fused_gain.ok() && ref_gain.ok());
        EXPECT_BITEQ(fused_gain.value(), ref_gain.value());
        ExpectBitwiseEqual(fused, ref, "skills after wide fused round");
      }
    }
  }
}

// A multi-round process through the production driver (which takes the
// fused SoA path for DyGroups policies) against a hand-rolled reference
// loop.
TEST_P(SoaDifferentialTest, MultiRoundProcessMatchesReferenceLoop) {
  for (uint64_t seed = 21; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    random::Rng rng(seed);
    const Dist dist = kAllDists[rng() % std::size(kAllDists)];
    const int n = 4 * (1 + static_cast<int>(rng() % 30));
    const SkillVector skills = GenSkills(rng, n, dist);
    const int num_groups = PickNumGroups(rng, n);
    LinearGain gain(random::UniformReal(rng, 0.05, 0.95));
    const InteractionMode mode =
        rng() % 2 == 0 ? InteractionMode::kStar : InteractionMode::kClique;

    ProcessConfig config;
    config.num_groups = num_groups;
    config.num_rounds = 6;
    config.mode = mode;
    config.record_history = false;
    auto policy = MakeDyGroupsPolicy(mode);
    auto result = RunProcess(skills, config, gain, *policy);
    ASSERT_TRUE(result.ok());

    SkillVector current = skills;
    for (int t = 0; t < config.num_rounds; ++t) {
      auto grouping = mode == InteractionMode::kStar
                          ? reference::DyGroupsStarLocal(current, num_groups)
                          : reference::DyGroupsCliqueLocal(current,
                                                           num_groups);
      ASSERT_TRUE(grouping.ok());
      auto round_gain =
          reference::ApplyRound(mode, grouping.value(), gain, current);
      ASSERT_TRUE(round_gain.ok());
      ASSERT_BITEQ(result.value().round_gains[t], round_gain.value());
    }
    ExpectBitwiseEqual(result.value().final_skills, current, "final skills");
  }
}

// RunProcess records history from the fused round's introspection, so each
// recorded Grouping must be exactly what the reference builder forms on the
// pre-round skills — partition, group order and member order.
TEST_P(SoaDifferentialTest, FusedAndHistoryPathsAgree) {
  for (uint64_t seed = 61; seed <= 75; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    random::Rng rng(seed);
    const int n = 6 * (1 + static_cast<int>(rng() % 20));
    const SkillVector skills = GenSkills(rng, n, Dist::kLogNormal);
    const int num_groups = PickNumGroups(rng, n);
    LinearGain gain(random::UniformReal(rng, 0.05, 0.95));
    const InteractionMode mode =
        rng() % 2 == 0 ? InteractionMode::kStar : InteractionMode::kClique;

    ProcessConfig config;
    config.num_groups = num_groups;
    config.num_rounds = 5;
    config.mode = mode;
    config.record_history = true;
    auto policy = MakeDyGroupsPolicy(mode);
    auto result = RunProcess(skills, config, gain, *policy);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->history.size(), 5u);

    SkillVector before = skills;
    for (const RoundRecord& record : result->history) {
      auto formed = mode == InteractionMode::kStar
                        ? reference::DyGroupsStarLocal(before, num_groups)
                        : reference::DyGroupsCliqueLocal(before, num_groups);
      ASSERT_TRUE(formed.ok());
      EXPECT_EQ(record.grouping.groups, formed.value().groups);
      before = record.skills_after;
    }
    ExpectBitwiseEqual(before, result->final_skills, "final skills");
  }
}

// The fused round on balanced profiles against the sized builders +
// reference::ApplyRound, both layouts in both modes: the profiles a served
// cohort of n residents and target group size m forms
// (Cohort::SizeProfileFor) for every n in 1..300 with m in 1..8 and for n
// around 4096 with m = 4, plus every k <= n for n <= 64.
TEST_P(SoaDifferentialTest, BalancedProfilesMatchSizedBuilders) {
  std::vector<std::vector<int>> profiles;
  for (int n = 1; n <= 300; ++n) {
    for (int m = 1; m <= 8; ++m) {
      profiles.push_back(serve::Cohort::SizeProfileFor(n, m).value());
    }
  }
  for (int n : {4095, 4096, 4097}) {
    profiles.push_back(serve::Cohort::SizeProfileFor(n, 4).value());
  }
  for (int n = 1; n <= 64; ++n) {
    for (int k = 1; k <= n; ++k) {
      std::vector<int> sizes(static_cast<size_t>(k), n / k);
      for (int g = 0; g < n % k; ++g) ++sizes[static_cast<size_t>(g)];
      profiles.push_back(std::move(sizes));
    }
  }
  std::vector<std::unique_ptr<LearningGainFunction>> gains;
  for (const std::vector<int>& sizes : profiles) {
    const int n = std::accumulate(sizes.begin(), sizes.end(), 0);
    const int num_groups = static_cast<int>(sizes.size());
    SCOPED_TRACE("n=" + std::to_string(n) +
                 " k=" + std::to_string(num_groups));
    random::Rng rng(static_cast<uint64_t>(n) * 4099 +
                    static_cast<uint64_t>(num_groups));
    const SkillVector skills =
        GenSkills(rng, n, kAllDists[(n + num_groups) % std::size(kAllDists)]);
    const LearningGainFunction& gain = PickGain(rng, gains);
    for (auto layout : {soa::DyGroupsLayout::kStarBlocks,
                        soa::DyGroupsLayout::kRoundRobin}) {
      auto formed = layout == soa::DyGroupsLayout::kStarBlocks
                        ? DyGroupsStarLocalSized(skills, sizes)
                        : DyGroupsCliqueLocalSized(skills, sizes);
      ASSERT_TRUE(formed.ok());
      const Grouping& grouping = formed.value();
      const std::vector<int> group_of = grouping.Assignment(n);
      std::vector<double> group_gains;
      for (auto mode : {InteractionMode::kStar, InteractionMode::kClique}) {
        group_gains.clear();
        for (const auto& members : grouping.groups) {
          auto g = reference::EvaluateGroupGain(mode, members, gain, skills);
          ASSERT_TRUE(g.ok());
          group_gains.push_back(g.value());
        }
        SkillVector ref = skills;
        auto ref_gain = reference::ApplyRound(mode, grouping, gain, ref);
        ASSERT_TRUE(ref_gain.ok());

        SkillVector fused = skills;
        Grouping fused_grouping;
        soa::RoundIntrospection introspect;
        introspect.grouping = &fused_grouping;
        auto fused_gain =
            soa::DyGroupsRound(layout, mode, gain, fused, num_groups,
                               soa::ThreadLocalArena(), &introspect);
        ASSERT_TRUE(fused_gain.ok()) << fused_gain.status();
        ASSERT_BITEQ(fused_gain.value(), ref_gain.value());
        ExpectBitwiseEqual(fused, ref, "skills after balanced fused round");
        ASSERT_EQ(introspect.group_of, group_of);
        ExpectBitwiseEqual(introspect.group_gains, group_gains,
                           "group gains");
        ASSERT_EQ(fused_grouping.groups, grouping.groups);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SimdOnOff, SoaDifferentialTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "simd" : "scalar";
                         });

// Scalar and SIMD paths must produce the same bits on the same inputs —
// checked directly here (the parameterized suites prove it transitively
// through the reference).
TEST(SoaSimdParityTest, ElementwiseKernelsMatchScalarBitwise) {
  random::Rng rng(99);
  for (int n : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<double> x(n);
    for (double& v : x) v = random::UniformReal(rng, -50.0, 50.0);
    std::vector<double> out_simd(n), out_scalar(n);
    std::vector<double> gains_simd(n), gains_scalar(n);

    soa::SetSimdEnabledForTest(true);
    double max_simd = soa::MaxValue(x);
    soa::SubtractFrom(1.5, x, out_simd);
    soa::LinearStarGains(0.37, 60.0, x, gains_simd);

    soa::SetSimdEnabledForTest(false);
    double max_scalar = soa::MaxValue(x);
    soa::SubtractFrom(1.5, x, out_scalar);
    soa::LinearStarGains(0.37, 60.0, x, gains_scalar);
    soa::SetSimdEnabledForTest(true);

    EXPECT_BITEQ(max_simd, max_scalar);
    ExpectBitwiseEqual(out_simd, out_scalar, "SubtractFrom");
    ExpectBitwiseEqual(gains_simd, gains_scalar, "LinearStarGains");
  }
}

}  // namespace
}  // namespace tdg
