#include "core/skills.h"

#include "core/soa.h"
#include "obs/zone.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace tdg {

util::Status ValidateSkills(std::span<const double> skills) {
  if (skills.empty()) {
    return util::Status::InvalidArgument("skill vector is empty");
  }
  for (size_t i = 0; i < skills.size(); ++i) {
    if (!(skills[i] > 0.0)) {  // also rejects NaN
      return util::Status::InvalidArgument(util::StrFormat(
          "skill of participant %zu is %f; skills must be positive", i,
          skills[i]));
    }
  }
  return util::Status::OK();
}

std::vector<int> SortedByskillDescending(std::span<const double> skills) {
  // Radix sort on the SoA plane; yields the exact stable_sort permutation
  // (soa.h). The perf scope "core/skills/sort" lives inside the kernel.
  std::vector<int> ids(skills.size());
  soa::SortIdsByskillDescending(skills, ids, soa::ThreadLocalArena());
  return ids;
}

double TotalSkill(std::span<const double> skills) {
  return soa::OrderedSum(skills);
}

double AggregateGain(std::span<const double> before,
                     std::span<const double> after) {
  TDG_CHECK_EQ(before.size(), after.size());
  double gain = 0.0;
  for (size_t i = 0; i < before.size(); ++i) {
    gain += after[i] - before[i];
  }
  return gain;
}

std::vector<double> SkillDeficits(std::span<const double> skills) {
  TDG_ZONE(obs::Zone::kSkillsDeficits);
  std::vector<double> deficits(skills.size(), 0.0);
  if (skills.empty()) return deficits;
  double top = soa::MaxValue(skills);
  soa::SubtractFrom(top, skills, deficits);
  return deficits;
}

}  // namespace tdg
