#include "core/reference/reference_kernels.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "obs/obs.h"
#include "util/logging.h"

// The kernels here keep the timing zones (obs/zone.h: spans and perf
// domains) of the production originals so that profiled
// reference-vs-SoA benchmark runs carry identical per-call overhead on
// both sides. Observability *counters* stay production-only: the oracle
// runs alongside the production path in differential tests and must not
// double-count its metrics.

namespace tdg::reference {

std::vector<int> SortedByskillDescending(std::span<const double> skills) {
  TDG_ZONE(obs::Zone::kSkillsSort);
  std::vector<int> ids(skills.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&skills](int a, int b) {
    return skills[a] > skills[b];
  });
  return ids;
}

std::vector<double> SkillDeficits(std::span<const double> skills) {
  TDG_ZONE(obs::Zone::kSkillsDeficits);
  std::vector<double> deficits(skills.size(), 0.0);
  if (skills.empty()) return deficits;
  double top = *std::max_element(skills.begin(), skills.end());
  for (size_t i = 0; i < skills.size(); ++i) {
    deficits[i] = top - skills[i];
  }
  return deficits;
}

util::StatusOr<Grouping> DyGroupsStarLocal(const SkillVector& skills,
                                           int num_groups) {
  TDG_RETURN_IF_ERROR(ValidatePolicyArguments(skills, num_groups));
  int n = static_cast<int>(skills.size());
  int group_size = n / num_groups;
  std::vector<int> sorted = SortedByskillDescending(skills);

  Grouping grouping;
  grouping.groups.resize(num_groups);
  // Teachers: ranks 1..k, one per group.
  for (int g = 0; g < num_groups; ++g) {
    grouping.groups[g].reserve(group_size);
    grouping.groups[g].push_back(sorted[g]);
  }
  // Provisional blocks: next-strongest block of size n/k - 1 joins the
  // strongest teacher, and so on down.
  int next = num_groups;
  for (int g = 0; g < num_groups; ++g) {
    for (int j = 0; j < group_size - 1; ++j) {
      grouping.groups[g].push_back(sorted[next++]);
    }
  }
  return grouping;
}

util::StatusOr<Grouping> DyGroupsCliqueLocal(const SkillVector& skills,
                                             int num_groups) {
  TDG_RETURN_IF_ERROR(ValidatePolicyArguments(skills, num_groups));
  int n = static_cast<int>(skills.size());
  int group_size = n / num_groups;
  std::vector<int> sorted = SortedByskillDescending(skills);

  Grouping grouping;
  grouping.groups.resize(num_groups);
  for (auto& group : grouping.groups) group.reserve(group_size);
  // Round-robin deal: pass j hands rank j*k + i to group i.
  int next = 0;
  for (int j = 0; j < group_size; ++j) {
    for (int g = 0; g < num_groups; ++g) {
      grouping.groups[g].push_back(sorted[next++]);
    }
  }
  return grouping;
}

namespace {

// (skill, id) of group members, sorted by descending skill with id
// tie-break. Rank 1 = strongest.
std::vector<std::pair<double, int>> SortedGroup(
    const std::vector<int>& members, const SkillVector& skills) {
  std::vector<std::pair<double, int>> sorted;
  sorted.reserve(members.size());
  for (int id : members) sorted.emplace_back(skills[id], id);
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  return sorted;
}

// Star-mode group update: everyone learns from the top-ranked member.
// Works from the pre-round snapshot held in `sorted`.
double UpdateGroupStar(const std::vector<std::pair<double, int>>& sorted,
                       const LearningGainFunction& gain,
                       SkillVector* skills) {
  double group_gain = 0.0;
  double teacher_skill = sorted.front().first;
  for (size_t i = 1; i < sorted.size(); ++i) {
    double g = gain.Gain(teacher_skill - sorted[i].first);
    if (skills != nullptr) (*skills)[sorted[i].second] += g;
    group_gain += g;
  }
  return group_gain;
}

// Clique-mode group update, O(t) prefix-sum path (Theorem 3). Only valid for
// linear gains: gain of rank-i member = r * (c_{i-1} - (i-1) s_i) / (i-1),
// where c_{i-1} sums the i-1 higher pre-round skills.
double UpdateGroupCliqueLinear(
    const std::vector<std::pair<double, int>>& sorted, double r,
    SkillVector* skills) {
  double group_gain = 0.0;
  double prefix = sorted.front().first;
  for (size_t i = 1; i < sorted.size(); ++i) {
    double count = static_cast<double>(i);
    double g = r * (prefix - count * sorted[i].first) / count;
    if (skills != nullptr) (*skills)[sorted[i].second] += g;
    group_gain += g;
    prefix += sorted[i].first;
  }
  return group_gain;
}

// Clique-mode group update, general O(t^2) path: rank-i member's gain is the
// average of its pairwise gains from all higher-ranked members.
double UpdateGroupCliqueNaive(
    const std::vector<std::pair<double, int>>& sorted,
    const LearningGainFunction& gain, SkillVector* skills) {
  double group_gain = 0.0;
  for (size_t i = 1; i < sorted.size(); ++i) {
    double total = 0.0;
    for (size_t j = 0; j < i; ++j) {
      total += gain.Gain(sorted[j].first - sorted[i].first);
    }
    double g = total / static_cast<double>(i);
    if (skills != nullptr) (*skills)[sorted[i].second] += g;
    group_gain += g;
  }
  return group_gain;
}

// Gain of one group, optionally applying the update. Dispatch shared by
// ApplyRound (skills != nullptr) and EvaluateGroupGain (skills == nullptr).
double GroupGain(InteractionMode mode,
                 const std::vector<std::pair<double, int>>& sorted,
                 const LearningGainFunction& gain, bool allow_fast_path,
                 SkillVector* skills) {
  switch (mode) {
    case InteractionMode::kStar:
      return UpdateGroupStar(sorted, gain, skills);
    case InteractionMode::kClique:
      if (allow_fast_path && gain.is_linear()) {
        return UpdateGroupCliqueLinear(sorted, gain.rate(), skills);
      }
      return UpdateGroupCliqueNaive(sorted, gain, skills);
  }
  return 0.0;
}

util::StatusOr<double> ApplyRoundImpl(InteractionMode mode,
                                      const Grouping& grouping,
                                      const LearningGainFunction& gain,
                                      SkillVector& skills,
                                      bool allow_fast_path) {
  TDG_RETURN_IF_ERROR(
      grouping.ValidatePartition(static_cast<int>(skills.size())));
  TDG_ZONE(RoundZone(mode, allow_fast_path && gain.is_linear()));
  double round_gain = 0.0;
  for (const auto& members : grouping.groups) {
    if (members.size() == 1) continue;  // nothing to learn from
    std::vector<std::pair<double, int>> sorted = SortedGroup(members, skills);
    round_gain += GroupGain(mode, sorted, gain, allow_fast_path, &skills);
  }
  return round_gain;
}

}  // namespace

util::StatusOr<double> ApplyRound(InteractionMode mode,
                                  const Grouping& grouping,
                                  const LearningGainFunction& gain,
                                  SkillVector& skills) {
  return ApplyRoundImpl(mode, grouping, gain, skills,
                        /*allow_fast_path=*/true);
}

util::StatusOr<double> ApplyRoundNaive(InteractionMode mode,
                                       const Grouping& grouping,
                                       const LearningGainFunction& gain,
                                       SkillVector& skills) {
  return ApplyRoundImpl(mode, grouping, gain, skills,
                        /*allow_fast_path=*/false);
}

util::StatusOr<double> EvaluateRoundGain(InteractionMode mode,
                                         const Grouping& grouping,
                                         const LearningGainFunction& gain,
                                         const SkillVector& skills) {
  SkillVector scratch = skills;
  return reference::ApplyRound(mode, grouping, gain, scratch);
}

util::StatusOr<double> EvaluateGroupGain(InteractionMode mode,
                                         const std::vector<int>& members,
                                         const LearningGainFunction& gain,
                                         const SkillVector& skills) {
  int n = static_cast<int>(skills.size());
  for (int id : members) {
    if (id < 0 || id >= n) {
      return util::Status::InvalidArgument(
          "group member id out of range of the skill vector");
    }
  }
  if (members.size() <= 1) return 0.0;
  std::vector<std::pair<double, int>> sorted = SortedGroup(members, skills);
  return GroupGain(mode, sorted, gain, /*allow_fast_path=*/true,
                   /*skills=*/nullptr);
}

}  // namespace tdg::reference
