// Classroom scenario (the paper's §I motivation): a programming course with
// repeated group assignments over a semester. Compares keeping fixed groups
// all semester against re-forming them with DyGroups before each
// assignment, under both interaction modes, and shows who benefits.
//
//   build/examples/example_classroom_semester [--students=30]
//       [--group-size=5] [--assignments=6] [--r=0.5] [--seed=7]
//       [--save-roster=roster.csv]

#include <cstdio>
#include <memory>

#include "baselines/static_groups.h"
#include "core/dygroups.h"
#include "core/process.h"
#include "io/population_io.h"
#include "random/distributions.h"
#include "stats/descriptive.h"
#include "stats/inequality.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

double Run(const tdg::SkillVector& skills, tdg::GroupingPolicy& policy,
           tdg::InteractionMode mode, int num_groups, int rounds, double r,
           tdg::SkillVector* final_skills) {
  tdg::LinearGain gain(r);
  tdg::ProcessConfig config;
  config.num_groups = num_groups;
  config.num_rounds = rounds;
  config.mode = mode;
  auto result = tdg::RunProcess(skills, config, gain, policy);
  TDG_CHECK(result.ok()) << result.status();
  if (final_skills != nullptr) *final_skills = result->final_skills;
  return result->total_gain;
}

}  // namespace

int main(int argc, char** argv) {
  using enum tdg::util::FlagKind;
  tdg::util::FlagParser flags;
  const tdg::util::Status parsed = flags.Parse(
      argc, argv,
      {{"students", kInt}, {"group-size", kInt}, {"assignments", kInt},
       {"r", kDouble}, {"seed", kInt}, {"save-roster", kString}});
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.ToString().c_str());
    return 1;
  }
  int students = static_cast<int>(flags.GetInt("students", 30));
  int group_size = static_cast<int>(flags.GetInt("group-size", 5));
  int assignments = static_cast<int>(flags.GetInt("assignments", 6));
  double r = flags.GetDouble("r", 0.5);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  if (students % group_size != 0) {
    std::fprintf(stderr,
                 "students (%d) must be divisible by group-size (%d)\n",
                 students, group_size);
    return 1;
  }
  int num_groups = students / group_size;

  // Incoming class: skills on a 0-100 "placement test" scale.
  tdg::random::Rng rng(seed);
  tdg::SkillVector skills;
  skills.reserve(students);
  for (int i = 0; i < students; ++i) {
    skills.push_back(20.0 + 60.0 * rng.NextDouble());
  }

  std::string roster_path = flags.GetString("save-roster", "");
  if (!roster_path.empty()) {
    auto status = tdg::io::WriteSkills(roster_path, skills);
    TDG_CHECK(status.ok()) << status;
    std::printf("saved incoming roster to %s\n\n", roster_path.c_str());
  }

  std::printf("Semester: %d students, groups of %d, %d group assignments, "
              "r = %.2f\n\n",
              students, group_size, assignments, r);

  tdg::util::TablePrinter table({"strategy", "interaction", "total gain",
                                 "mean final skill", "final Gini"});
  for (tdg::InteractionMode mode :
       {tdg::InteractionMode::kStar, tdg::InteractionMode::kClique}) {
    // Dynamic: re-form groups before every assignment.
    auto dynamic = tdg::MakeDyGroupsPolicy(mode);
    tdg::SkillVector dynamic_final;
    double dynamic_gain = Run(skills, *dynamic, mode, num_groups,
                              assignments, r, &dynamic_final);
    table.AddRow({"dynamic (DyGroups)",
                  std::string(tdg::InteractionModeName(mode)),
                  tdg::util::FormatDouble(dynamic_gain, 1),
                  tdg::util::FormatDouble(tdg::stats::Mean(dynamic_final), 1),
                  tdg::util::FormatDouble(
                      tdg::stats::GiniIndex(dynamic_final), 4)});

    // Static: groups fixed at the first assignment (common practice).
    tdg::baselines::StaticGroupsPolicy static_policy(
        tdg::MakeDyGroupsPolicy(mode));
    tdg::SkillVector static_final;
    double static_gain = Run(skills, static_policy, mode, num_groups,
                             assignments, r, &static_final);
    table.AddRow({"static (fixed groups)",
                  std::string(tdg::InteractionModeName(mode)),
                  tdg::util::FormatDouble(static_gain, 1),
                  tdg::util::FormatDouble(tdg::stats::Mean(static_final), 1),
                  tdg::util::FormatDouble(
                      tdg::stats::GiniIndex(static_final), 4)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\nTakeaway: re-forming groups each assignment lets every "
              "student eventually learn\nfrom the strongest peers — the "
              "dynamic rows dominate their static counterparts.\n");
  return 0;
}
