// Ablation (paper §VII "varying sizes"): DyGroups generalized to unequal
// group-size profiles. Compares the sized DyGroups rules against random
// sized groupings across size profiles of increasing skew, and shows the
// rearrangement effect (strongest teacher must lead the largest group).

#include <numeric>

#include "bench_common.h"
#include "core/variable_groups.h"
#include "util/table_printer.h"

namespace tdg::bench {
namespace {

double RunSized(const SkillVector& skills, const std::vector<int>& sizes,
                InteractionMode mode, bool use_dygroups, uint64_t seed) {
  LinearGain gain(0.5);
  SizedProcessConfig config;
  config.group_sizes = sizes;
  config.num_rounds = 5;
  config.mode = mode;
  config.record_history = false;

  random::Rng policy_rng(seed);
  auto form = [&](const SkillVector& s,
                  const std::vector<int>& sz) -> util::StatusOr<Grouping> {
    if (use_dygroups) {
      return (mode == InteractionMode::kStar)
                 ? DyGroupsStarLocalSized(s, sz)
                 : DyGroupsCliqueLocalSized(s, sz);
    }
    return RandomGroupingSized(s, sz, policy_rng);
  };
  auto result = RunSizedProcess(skills, config, gain, form);
  TDG_CHECK(result.ok()) << result.status();
  return result->total_gain;
}

}  // namespace
}  // namespace tdg::bench

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader(
      "Ablation: variable group sizes",
      "Paper §VII extension; n=600, 5 rounds, r=0.5, log-normal skills, "
      "averaged over 5 populations");

  struct Profile {
    const char* label;
    std::vector<int> sizes;
  };
  std::vector<Profile> profiles = {
      {"uniform 6x100", {100, 100, 100, 100, 100, 100}},
      {"mild skew", {60, 80, 100, 100, 120, 140}},
      {"strong skew", {20, 30, 50, 100, 150, 250}},
      {"one giant", {10, 10, 10, 10, 10, 550}},
  };

  for (tdg::InteractionMode mode :
       {tdg::InteractionMode::kStar, tdg::InteractionMode::kClique}) {
    tdg::util::TablePrinter table(
        {std::string("profile (") +
             std::string(tdg::InteractionModeName(mode)) + ")",
         "DyGroups-sized", "Random-sized", "ratio"});
    for (const Profile& profile : profiles) {
      tdg::obs::ScopedBenchRep rep(
          tdg::obs::GlobalBenchReporter(),
          std::string(tdg::InteractionModeName(mode)) + "/" +
              profile.label);
      double dygroups_total = 0.0;
      double random_total = 0.0;
      constexpr int kRuns = 5;
      for (int run = 0; run < kRuns; ++run) {
        tdg::random::Rng rng(42 + run);
        tdg::SkillVector skills = tdg::random::GenerateSkills(
            rng, tdg::random::SkillDistribution::kLogNormal, 600);
        dygroups_total += tdg::bench::RunSized(skills, profile.sizes, mode,
                                               true, 7 + run);
        random_total += tdg::bench::RunSized(skills, profile.sizes, mode,
                                             false, 7 + run);
      }
      rep.set_objective(dygroups_total / kRuns);
      table.AddRow({profile.label,
                    tdg::util::FormatDouble(dygroups_total / kRuns, 1),
                    tdg::util::FormatDouble(random_total / kRuns, 1),
                    tdg::util::FormatDouble(dygroups_total / random_total,
                                            3)});
    }
    std::printf("%s\n", table.ToString().c_str());
  }
  std::printf("(expected: DyGroups-sized >= random for every profile; the "
              "advantage grows with skew in star mode because matching "
              "strong teachers to large groups matters more)\n");
  return harness.Finish();
}
