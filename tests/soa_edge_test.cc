// Alignment, aliasing, and shape edge cases of the SoA plane: vector-width
// remainders, inputs shorter than a SIMD lane, degenerate group shapes
// (k = n, k = 1), sign-of-zero ties in the radix sort key, and the arena's
// stack discipline. These run under ASan/UBSan in ci/check.sh, which is
// where the "64-byte aligned, never out of bounds, never overlapping
// lifetimes" claims of soa.h actually get teeth.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/learning_gain.h"
#include "core/reference/reference_kernels.h"
#include "core/soa.h"
#include "core/variable_groups.h"
#include "random/distributions.h"

namespace tdg {
namespace {

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

// --- Arena -----------------------------------------------------------------

TEST(ArenaTest, AllocationsAre64ByteAligned) {
  soa::Arena arena;
  for (size_t count : {1u, 3u, 7u, 100u, 1000u}) {
    auto d = arena.Alloc<double>(count);
    auto i = arena.Alloc<int>(count);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(d.data()) % soa::Arena::kAlignment,
              0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(i.data()) % soa::Arena::kAlignment,
              0u);
  }
}

TEST(ArenaTest, ScopeReleasesAndMemoryIsReused) {
  soa::Arena arena;
  const double* first;
  {
    soa::ArenaScope scope(arena);
    first = arena.Alloc<double>(16).data();
  }
  EXPECT_EQ(arena.bytes_used(), 0u);
  soa::ArenaScope scope(arena);
  // Same block, same offset: the scope released, nothing leaked forward.
  EXPECT_EQ(arena.Alloc<double>(16).data(), first);
}

TEST(ArenaTest, NestedScopesReleaseStackwise) {
  soa::Arena arena;
  soa::ArenaScope outer(arena);
  auto a = arena.Alloc<double>(8);
  a[0] = 1.0;
  size_t used_after_a = arena.bytes_used();
  {
    soa::ArenaScope inner(arena);
    auto b = arena.Alloc<double>(1 << 16);  // forces block growth
    b[0] = 2.0;
    EXPECT_GT(arena.bytes_used(), used_after_a);
  }
  EXPECT_EQ(arena.bytes_used(), used_after_a);
  EXPECT_EQ(a[0], 1.0);  // outer allocation untouched by inner release
  // New allocations after the inner release still work (and may reuse the
  // grown block).
  auto c = arena.Alloc<double>(1 << 16);
  c[0] = 3.0;
  EXPECT_EQ(a[0], 1.0);
}

TEST(ArenaTest, GrowthAcrossBlocksAndResetCoalesces) {
  soa::Arena arena;
  {
    soa::ArenaScope scope(arena);
    // Many allocations spilling over several growth blocks; every span must
    // stay writable and disjoint.
    std::vector<std::span<double>> spans;
    for (int i = 0; i < 20; ++i) {
      spans.push_back(arena.Alloc<double>(1000));
      for (double& v : spans.back()) v = static_cast<double>(i);
    }
    for (int i = 0; i < 20; ++i) {
      for (double v : spans[i]) ASSERT_EQ(v, static_cast<double>(i));
    }
  }
  size_t reserved = arena.bytes_reserved();
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_GE(arena.bytes_reserved(), reserved);  // retained, coalesced
  // The coalesced arena serves the same load from one block.
  auto big = arena.Alloc<double>(20000);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(big.data()) % soa::Arena::kAlignment,
            0u);
}

// --- SIMD width remainders -------------------------------------------------

// Every size from 1 to 4 vector widths + 3 covers all remainder shapes of
// both the SSE2 (2-lane) and AVX2 (4-lane) paths, including n < lane count.
TEST(SimdRemainderTest, AllSmallSizesMatchScalarBitwise) {
  random::Rng rng(4242);
  const int max_n = 4 * soa::SimdLanes() + 3;
  for (int n = 1; n <= max_n; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<double> x(n);
    for (double& v : x) v = random::UniformReal(rng, 0.1, 9.0);
    std::vector<double> a(n), b(n);

    soa::SetSimdEnabledForTest(true);
    double max_on = soa::MaxValue(x);
    soa::SubtractFrom(10.0, x, a);
    soa::SetSimdEnabledForTest(false);
    double max_off = soa::MaxValue(x);
    soa::SubtractFrom(10.0, x, b);
    soa::SetSimdEnabledForTest(true);

    EXPECT_EQ(Bits(max_on), Bits(max_off));
    for (int i = 0; i < n; ++i) EXPECT_EQ(Bits(a[i]), Bits(b[i]));
  }
}

TEST(SimdRemainderTest, MisalignedViewsAreHandled) {
  // Arena spans are 64-byte aligned, but the kernels also accept arbitrary
  // subspans (e.g. sorted.subspan(1) in the star kernel) — exercise offsets
  // 0..3 explicitly under SIMD.
  random::Rng rng(7);
  std::vector<double> x(64);
  for (double& v : x) v = random::UniformReal(rng, 0.1, 9.0);
  for (size_t offset = 0; offset < 4; ++offset) {
    std::span<const double> view(x.data() + offset, x.size() - offset);
    std::vector<double> out(view.size());
    soa::SubtractFrom(100.0, view, out);
    for (size_t i = 0; i < view.size(); ++i) {
      ASSERT_EQ(Bits(out[i]), Bits(100.0 - view[i]));
    }
  }
}

// --- Sort keys -------------------------------------------------------------

TEST(SortEdgeTest, SignedZerosTieAndKeepStableOrder) {
  // -0.0 == +0.0 under the reference comparator, so they are ties and must
  // keep input order. The radix key canonicalizes -0.0 for exactly this.
  std::vector<double> skills = {0.0, -0.0, 1.0, -0.0, 0.0, -1.0};
  std::vector<int> ids(skills.size());
  soa::SortIdsByskillDescending(skills, ids, soa::ThreadLocalArena());
  EXPECT_EQ(ids, reference::SortedByskillDescending(skills));
  EXPECT_EQ(ids, (std::vector<int>{2, 0, 1, 3, 4, 5}));
}

TEST(SortEdgeTest, NegativesAndExtremeMagnitudesSortCorrectly) {
  std::vector<double> skills = {1e308,  -1e308, 5e-324, -5e-324, 0.0,
                                -2.5,   3.75,   1e-10,  -1e-10,  42.0};
  std::vector<int> ids(skills.size());
  soa::SortIdsByskillDescending(skills, ids, soa::ThreadLocalArena());
  EXPECT_EQ(ids, reference::SortedByskillDescending(skills));
}

TEST(SortEdgeTest, RadixPathMatchesReferenceWithHeavyTies) {
  // n >= 2048 forces the radix path; few distinct values force long stable
  // tie runs through all 8 passes.
  random::Rng rng(31);
  std::vector<double> skills(5000);
  for (double& v : skills) v = static_cast<double>(1 + rng() % 3);
  std::vector<int> ids(skills.size());
  soa::SortIdsByskillDescending(skills, ids, soa::ThreadLocalArena());
  EXPECT_EQ(ids, reference::SortedByskillDescending(skills));
}

TEST(SortEdgeTest, WidePathMatchesReferenceOnContinuousData) {
  // n >= 48K takes the wide sort (two top-32 LSD passes + run repair);
  // continuous data leaves only birthday-rare repair runs.
  random::Rng rng(32);
  std::vector<double> skills(50000);
  for (double& v : skills) v = random::UniformReal(rng, 0.0, 1000.0);
  std::vector<int> ids(skills.size());
  soa::SortIdsByskillDescending(skills, ids, soa::ThreadLocalArena());
  EXPECT_EQ(ids, reference::SortedByskillDescending(skills));
}

TEST(SortEdgeTest, WidePathMatchesReferenceWithHeavyTies) {
  // Few distinct values at wide-path sizes: every element lands in a long
  // run of equal top-32 prefixes, so the whole result is produced by the
  // repair sweep (worst case: one run spanning the array).
  random::Rng rng(33);
  std::vector<double> skills(50000);
  for (double& v : skills) v = static_cast<double>(1 + rng() % 3);
  std::vector<int> ids(skills.size());
  soa::SortIdsByskillDescending(skills, ids, soa::ThreadLocalArena());
  EXPECT_EQ(ids, reference::SortedByskillDescending(skills));

  std::fill(skills.begin(), skills.end(), 7.25);
  soa::SortIdsByskillDescending(skills, ids, soa::ThreadLocalArena());
  EXPECT_EQ(ids, reference::SortedByskillDescending(skills));
}

TEST(SortEdgeTest, WidePathMatchesReferenceOnTop32Collisions) {
  // Values that differ only below the top 32 key bits: the LSD passes see
  // them as equal and the repair sort must order them by the low bits.
  random::Rng rng(34);
  std::vector<double> skills(50000);
  const uint64_t base = std::bit_cast<uint64_t>(1.5);
  for (double& v : skills) {
    // Perturb only the low 32 mantissa bits of 1.5.
    v = std::bit_cast<double>(base + (rng() % 4096));
  }
  std::vector<int> ids(skills.size());
  soa::SortIdsByskillDescending(skills, ids, soa::ThreadLocalArena());
  EXPECT_EQ(ids, reference::SortedByskillDescending(skills));
}

TEST(SortEdgeTest, EmptyAndSingleElement) {
  std::vector<int> empty;
  soa::SortIdsByskillDescending({}, empty, soa::ThreadLocalArena());
  EXPECT_TRUE(empty.empty());
  std::vector<double> one = {3.0};
  std::vector<int> ids(1);
  soa::SortIdsByskillDescending(one, ids, soa::ThreadLocalArena());
  EXPECT_EQ(ids, std::vector<int>{0});
}

// --- Degenerate group shapes ----------------------------------------------

TEST(DyGroupsRoundEdgeTest, SingletonGroupsKEqualsNIsANoOp) {
  SkillVector skills = {4.0, 2.0, 3.0, 1.0};
  SkillVector before = skills;
  LinearGain gain(0.5);
  for (auto mode : {InteractionMode::kStar, InteractionMode::kClique}) {
    for (auto layout : {soa::DyGroupsLayout::kStarBlocks,
                        soa::DyGroupsLayout::kRoundRobin}) {
      auto result = soa::DyGroupsRound(layout, mode, gain, skills,
                                       /*num_groups=*/4,
                                       soa::ThreadLocalArena());
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result.value(), 0.0);
      EXPECT_EQ(skills, before);  // nobody learns in groups of one
    }
  }
}

TEST(DyGroupsRoundEdgeTest, SingleGroupKEqualsOneMatchesReference) {
  random::Rng rng(17);
  SkillVector skills(37 * 1);  // n = 37, k = 1: one group of everyone
  for (double& v : skills) v = random::UniformReal(rng, 1.0, 50.0);
  LinearGain gain(0.3);
  for (auto mode : {InteractionMode::kStar, InteractionMode::kClique}) {
    SkillVector fused = skills;
    auto fused_gain =
        soa::DyGroupsRound(mode == InteractionMode::kStar
                               ? soa::DyGroupsLayout::kStarBlocks
                               : soa::DyGroupsLayout::kRoundRobin,
                           mode, gain, fused, 1, soa::ThreadLocalArena());
    auto grouping = mode == InteractionMode::kStar
                        ? reference::DyGroupsStarLocal(skills, 1)
                        : reference::DyGroupsCliqueLocal(skills, 1);
    ASSERT_TRUE(fused_gain.ok() && grouping.ok());
    SkillVector ref = skills;
    auto ref_gain =
        reference::ApplyRound(mode, grouping.value(), gain, ref);
    ASSERT_TRUE(ref_gain.ok());
    EXPECT_EQ(Bits(fused_gain.value()), Bits(ref_gain.value()));
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(Bits(fused[i]), Bits(ref[i]));
    }
  }
}

TEST(DyGroupsRoundEdgeTest, RejectsInvalidShapes) {
  SkillVector skills = {1.0, 2.0, 3.0};
  LinearGain gain(0.5);
  auto& arena = soa::ThreadLocalArena();
  EXPECT_FALSE(soa::DyGroupsRound(soa::DyGroupsLayout::kStarBlocks,
                                  InteractionMode::kStar, gain, skills, 0,
                                  arena)
                   .ok());
  EXPECT_FALSE(soa::DyGroupsRound(soa::DyGroupsLayout::kStarBlocks,
                                  InteractionMode::kStar, gain, skills, 4,
                                  arena)
                   .ok());
  SkillVector bad = {1.0, -1.0};
  EXPECT_FALSE(soa::DyGroupsRound(soa::DyGroupsLayout::kStarBlocks,
                                  InteractionMode::kStar, gain, bad, 1,
                                  arena)
                   .ok());
}

// k that does not divide n is the balanced profile (n = 3, k = 2 is sizes
// {2, 1}), the layout the sized builders form.
TEST(DyGroupsRoundEdgeTest, NonDividingShapeMatchesSizedBuilders) {
  const SkillVector skills = {1.0, 2.0, 3.0};
  const std::vector<int> sizes = {2, 1};
  LinearGain gain(0.5);
  for (auto mode : {InteractionMode::kStar, InteractionMode::kClique}) {
    for (auto layout : {soa::DyGroupsLayout::kStarBlocks,
                        soa::DyGroupsLayout::kRoundRobin}) {
      auto grouping = layout == soa::DyGroupsLayout::kStarBlocks
                          ? DyGroupsStarLocalSized(skills, sizes)
                          : DyGroupsCliqueLocalSized(skills, sizes);
      ASSERT_TRUE(grouping.ok());
      SkillVector ref = skills;
      auto ref_gain = reference::ApplyRound(mode, *grouping, gain, ref);
      ASSERT_TRUE(ref_gain.ok());
      SkillVector fused = skills;
      Grouping formed;
      soa::RoundIntrospection introspect;
      introspect.grouping = &formed;
      auto fused_gain = soa::DyGroupsRound(layout, mode, gain, fused, 2,
                                           soa::ThreadLocalArena(),
                                           &introspect);
      ASSERT_TRUE(fused_gain.ok()) << fused_gain.status();
      EXPECT_EQ(Bits(fused_gain.value()), Bits(ref_gain.value()));
      EXPECT_EQ(formed.groups, grouping->groups);
      for (size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(Bits(fused[i]), Bits(ref[i]));
      }
    }
  }
}

// GroupRoundMembers over a group that IS the whole population, via an
// unsorted member list (exercises gather + rank sort + scatter in one call).
TEST(GroupRoundMembersEdgeTest, UnsortedMembersMatchReference) {
  random::Rng rng(23);
  SkillVector skills(101);
  for (double& v : skills) v = random::UniformReal(rng, 1.0, 9.0);
  std::vector<int> members(skills.size());
  std::iota(members.begin(), members.end(), 0);
  for (int i = static_cast<int>(members.size()) - 1; i > 0; --i) {
    std::swap(members[i], members[rng() % (i + 1)]);
  }
  LinearGain gain(0.4);
  for (auto mode : {InteractionMode::kStar, InteractionMode::kClique}) {
    SkillVector updated = skills;
    double g = soa::GroupRoundMembers(mode, gain, members, skills,
                                      updated.data(),
                                      soa::ThreadLocalArena());
    SkillVector ref = skills;
    Grouping grouping({members});
    auto ref_gain = reference::ApplyRound(mode, grouping, gain, ref);
    ASSERT_TRUE(ref_gain.ok());
    EXPECT_EQ(Bits(g), Bits(ref_gain.value()));
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(Bits(updated[i]), Bits(ref[i]));
    }
  }
}

TEST(SimdDispatchTest, ReportsAConsistentConfiguration) {
  soa::SimdIsa isa = soa::CompiledSimdIsa();
  EXPECT_STRNE(soa::SimdIsaName(isa), "");
  switch (isa) {
    case soa::SimdIsa::kScalar:
      EXPECT_EQ(soa::SimdLanes(), 1);
      EXPECT_FALSE(soa::SimdEnabled());  // no vector code to enable
      break;
    case soa::SimdIsa::kSse2:
      EXPECT_EQ(soa::SimdLanes(), 2);
      break;
    case soa::SimdIsa::kAvx2:
      EXPECT_EQ(soa::SimdLanes(), 4);
      break;
  }
}

}  // namespace
}  // namespace tdg
