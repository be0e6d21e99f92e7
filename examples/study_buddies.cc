// Study-buddy matching (the paper's §VII extensions in one scenario): a
// tutoring center runs weekly sessions with rooms of *different capacities*
// and cares about both learning and social cohesion. Demonstrates:
//   - variable group sizes (rooms of capacity 4 / 6 / 10),
//   - the bi-criteria gain/affinity policy with an evolving friendship
//     matrix (friendships strengthen among roommates),
//   - round diagnostics (teacher coverage, per-room stats).
//
//   build/examples/example_study_buddies [--weeks=6] [--lambda=0.5]
//       [--seed=11]

#include <cstdio>

#include "core/affinity.h"
#include "core/metrics.h"
#include "core/variable_groups.h"
#include "random/distributions.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using enum tdg::util::FlagKind;
  tdg::util::FlagParser flags;
  const tdg::util::Status parsed = flags.Parse(
      argc, argv,
      {{"weeks", kInt}, {"lambda", kDouble}, {"seed", kInt}});
  TDG_CHECK(parsed.ok()) << parsed;
  int weeks = static_cast<int>(flags.GetInt("weeks", 6));
  double lambda = flags.GetDouble("lambda", 0.5);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 11));

  // 20 students, three rooms: 4 + 6 + 10 seats.
  constexpr int kStudents = 20;
  const std::vector<int> kRooms = {4, 6, 10};
  tdg::random::Rng rng(seed);
  tdg::SkillVector skills;
  for (int i = 0; i < kStudents; ++i) {
    skills.push_back(30.0 + 60.0 * rng.NextDouble());
  }
  tdg::LinearGain gain(0.5);

  std::printf("Part 1 — capacity-constrained rooms (variable group "
              "sizes)\n");
  tdg::SizedProcessConfig sized;
  sized.group_sizes = kRooms;
  sized.num_rounds = weeks;
  sized.mode = tdg::InteractionMode::kStar;
  auto sized_result = tdg::RunSizedProcess(
      skills, sized, gain,
      [](const tdg::SkillVector& s, const std::vector<int>& sizes) {
        return tdg::DyGroupsStarLocalSized(s, sizes);
      });
  TDG_CHECK(sized_result.ok()) << sized_result.status();

  tdg::util::TablePrinter weekly({"week", "session gain", "teacher coverage",
                                  "mean room spread"});
  const tdg::SkillVector* before = &sized_result->initial_skills;
  for (size_t t = 0; t < sized_result->history.size(); ++t) {
    const auto& record = sized_result->history[t];
    auto metrics = tdg::ComputeRoundMetrics(record.grouping, *before,
                                            record.skills_after);
    TDG_CHECK(metrics.ok());
    weekly.AddNumericRow({static_cast<double>(t + 1), record.gain,
                          metrics->teacher_coverage,
                          metrics->mean_within_group_spread},
                         3);
    before = &record.skills_after;
  }
  std::printf("%s", weekly.ToString().c_str());
  std::printf("total learning gain over the term: %.1f\n\n",
              sized_result->total_gain);

  std::printf("Part 2 — friendship-aware matching (bi-criteria, lambda = "
              "%.2f)\n",
              lambda);
  // Equal-size version of the same class so the bi-criteria policy applies
  // (4 groups of 5).
  tdg::AffinityDyGroupsPolicy buddies(
      tdg::InteractionMode::kStar, gain,
      tdg::AffinityMatrix(kStudents), seed,
      tdg::BiCriteriaOptions{.lambda = lambda,
                             .refinement_iterations = 800});
  tdg::SkillVector current = skills;
  double total_gain = 0.0;
  for (int week = 1; week <= weeks; ++week) {
    auto grouping = buddies.FormGroups(current, 4);
    TDG_CHECK(grouping.ok()) << grouping.status();
    auto week_gain = tdg::ApplyRound(tdg::InteractionMode::kStar,
                                     grouping.value(), gain, current);
    TDG_CHECK(week_gain.ok());
    total_gain += week_gain.value();
    std::printf("  week %d: gain %.1f, within-room friendship %.2f, class "
                "mean friendship %.3f\n",
                week, week_gain.value(), buddies.last_affinity(),
                buddies.affinity().MeanAffinity());
  }
  std::printf("total gain %.1f — friendships deepen each week among "
              "roommates while\nthe policy keeps the strongest teachers "
              "spread across rooms.\n",
              total_gain);
  return 0;
}
