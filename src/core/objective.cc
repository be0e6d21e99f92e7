#include "core/objective.h"

#include <algorithm>
#include <cmath>

#include "core/skills.h"
#include "core/soa.h"
#include "obs/zone.h"
#include "util/string_util.h"

namespace tdg {

util::StatusOr<SwapGainDelta> EvaluateRoundGainDelta(
    InteractionMode mode, const Grouping& grouping,
    const LearningGainFunction& gain, const SkillVector& skills, int group_a,
    int index_a, int group_b, int index_b, const double* known_old_gain_a,
    const double* known_old_gain_b) {
  if (group_a < 0 || group_a >= grouping.num_groups() || group_b < 0 ||
      group_b >= grouping.num_groups()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "swap groups (%d, %d) out of range of %d groups", group_a, group_b,
        grouping.num_groups()));
  }
  if (group_a == group_b) {
    return util::Status::InvalidArgument(
        "swap within one group does not change the round gain; "
        "group_a and group_b must differ");
  }
  const std::vector<int>& members_a = grouping.groups[group_a];
  const std::vector<int>& members_b = grouping.groups[group_b];
  if (index_a < 0 || index_a >= static_cast<int>(members_a.size()) ||
      index_b < 0 || index_b >= static_cast<int>(members_b.size())) {
    return util::Status::InvalidArgument(util::StrFormat(
        "swap member indices (%d, %d) out of range", index_a, index_b));
  }

  const int n = static_cast<int>(skills.size());
  for (const std::vector<int>* members : {&members_a, &members_b}) {
    for (int id : *members) {
      if (id < 0 || id >= n) {
        return util::Status::InvalidArgument(
            "group member id out of range of the skill vector");
      }
    }
  }

  TDG_ZONE(obs::Zone::kSwapDelta);
  // All four group evaluations run on arena scratch — the O(n/k) inner loop
  // of local search does no heap allocation.
  soa::Arena& arena = soa::ThreadLocalArena();
  soa::ArenaScope scope(arena);
  auto group_gain = [&](std::span<const int> members) {
    if (members.size() <= 1) return 0.0;
    return soa::GroupRoundMembers(mode, gain, members, skills,
                                  /*update_skills=*/nullptr, arena);
  };
  SwapGainDelta result;
  result.old_gain_a = known_old_gain_a != nullptr ? *known_old_gain_a
                                                  : group_gain(members_a);
  result.old_gain_b = known_old_gain_b != nullptr ? *known_old_gain_b
                                                  : group_gain(members_b);

  std::span<int> swapped_a = arena.Alloc<int>(members_a.size());
  std::span<int> swapped_b = arena.Alloc<int>(members_b.size());
  std::copy(members_a.begin(), members_a.end(), swapped_a.begin());
  std::copy(members_b.begin(), members_b.end(), swapped_b.begin());
  std::swap(swapped_a[index_a], swapped_b[index_b]);
  result.new_gain_a = group_gain(swapped_a);
  result.new_gain_b = group_gain(swapped_b);
  result.delta = (result.new_gain_a + result.new_gain_b) -
                 (result.old_gain_a + result.old_gain_b);
  return result;
}

double TotalGainFromDeficits(const std::vector<double>& initial_deficits,
                             const std::vector<double>& final_deficits) {
  double initial = 0.0;
  double final_sum = 0.0;
  for (double b : initial_deficits) initial += b;
  for (double b : final_deficits) final_sum += b;
  return initial - final_sum;
}

util::StatusOr<std::vector<double>> SecondTeacherDeficits(
    const ProcessResult& result) {
  if (result.history.empty() && !result.round_gains.empty()) {
    return util::Status::FailedPrecondition(
        "process was run without record_history");
  }
  double top = result.initial_skills.empty()
                   ? 0.0
                   : *std::max_element(result.initial_skills.begin(),
                                       result.initial_skills.end());
  std::vector<double> deficits;
  deficits.reserve(result.history.size());
  const std::vector<double>* pre_round_skills = &result.initial_skills;
  for (size_t t = 0; t < result.history.size(); ++t) {
    const Grouping& grouping = result.history[t].grouping;
    if (grouping.num_groups() != 2) {
      return util::Status::InvalidArgument(util::StrFormat(
          "round %zu has %d groups; second-teacher analysis requires k=2", t,
          grouping.num_groups()));
    }
    // Teacher of each group = its pre-round maximum; the second teacher is
    // the smaller of the two group maxima (the overall top participant is
    // always the other group's teacher).
    double second_teacher = 0.0;
    double first_teacher = -1.0;
    for (const auto& members : grouping.groups) {
      double group_max = 0.0;
      for (int id : members) {
        group_max = std::max(group_max, (*pre_round_skills)[id]);
      }
      if (group_max > first_teacher) {
        second_teacher = first_teacher;
        first_teacher = group_max;
      } else {
        second_teacher = std::max(second_teacher, group_max);
      }
    }
    deficits.push_back(top - second_teacher);
    pre_round_skills = &result.history[t].skills_after;
  }
  return deficits;
}

double StarK2DeficitObjective(
    double initial_deficit_sum, int n, double r,
    const std::vector<double>& second_teacher_deficits) {
  int alpha = static_cast<int>(second_teacher_deficits.size());
  double value =
      initial_deficit_sum * std::pow(1.0 - r, static_cast<double>(alpha));
  for (int t = 1; t <= alpha; ++t) {
    value += (static_cast<double>(n) / 2.0) * r *
             second_teacher_deficits[t - 1] *
             std::pow(1.0 - r, static_cast<double>(alpha - t));
  }
  return value;
}

}  // namespace tdg
