// Ablation (paper §VII "Other learning gain functions"): DyGroups plugs into
// any concave gain function, but its optimality story is specific to the
// linear family. This bench runs DyGroups-Star, LPA and Random-Assignment
// under four gain functions and reports total gains plus, for tiny
// instances, the exact brute-force optimum — showing DyGroups matches the
// optimum for the linear gain and can fall short for non-linear concave
// gains.

#include <memory>

#include "bench_common.h"
#include "util/table_printer.h"
#include "core/brute_force.h"

namespace tdg::bench {
namespace {

std::vector<std::pair<std::string, std::shared_ptr<LearningGainFunction>>>
GainFamilies() {
  return {
      {"linear(r=0.5)", std::make_shared<LinearGain>(0.5)},
      {"power(r=0.5,p=0.5)", std::make_shared<PowerGain>(0.5, 0.5)},
      {"log(r=0.5)", std::make_shared<LogGain>(0.5)},
      {"satexp(r=0.5,c=1)", std::make_shared<SaturatingExpGain>(0.5, 1.0)},
  };
}

double PolicyGain(const std::string& policy_name,
                  const LearningGainFunction& gain, int n, int k, int alpha,
                  uint64_t seed, int runs) {
  double total = 0.0;
  for (int run = 0; run < runs; ++run) {
    random::Rng rng(seed + run * 13);
    SkillVector skills = random::GenerateSkills(
        rng, random::SkillDistribution::kLogNormal, n);
    auto policy = baselines::MakePolicy(policy_name, seed + run);
    TDG_CHECK(policy.ok());
    ProcessConfig config;
    config.num_groups = k;
    config.num_rounds = alpha;
    config.mode = InteractionMode::kStar;
    config.record_history = false;
    auto result = RunProcess(skills, config, gain, **policy);
    TDG_CHECK(result.ok()) << result.status();
    total += result->total_gain;
  }
  return total / runs;
}

}  // namespace
}  // namespace tdg::bench

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader(
      "Ablation: learning-gain function families",
      "Paper §VII: DyGroups adapts to concave gains but is only provably "
      "optimal for linear ones. Star mode, n=1000, k=5, alpha=5");

  tdg::util::TablePrinter table(
      {"gain function", "DyGroups-Star", "LPA", "Random-Assignment"});
  for (const auto& [name, gain] : tdg::bench::GainFamilies()) {
    auto timed_gain = [&name = name, &gain = gain](const char* policy) {
      tdg::obs::ScopedBenchRep rep(tdg::obs::GlobalBenchReporter(),
                                   name + "/" + policy);
      double mean = tdg::bench::PolicyGain(policy, *gain, 1000, 5, 5, 3, 5);
      rep.set_objective(mean);
      return mean;
    };
    table.AddRow(
        {name, tdg::util::FormatDouble(timed_gain("DyGroups-Star"), 2),
         tdg::util::FormatDouble(timed_gain("LPA"), 2),
         tdg::util::FormatDouble(timed_gain("Random-Assignment"), 2)});
  }
  std::printf("%s\n", table.ToString().c_str());

  // Exact check on tiny instances: how close is greedy DyGroups to the true
  // optimum under each gain family?
  std::printf("greedy-vs-optimal gap on tiny instances "
              "(n=6, k=2, alpha=3, 50 instances):\n");
  tdg::util::TablePrinter gap_table(
      {"gain function", "mean rel. gap", "max rel. gap", "optimal runs"});
  for (const auto& [name, gain] : tdg::bench::GainFamilies()) {
    tdg::random::Rng rng(99);
    double total_gap = 0.0;
    double max_gap = 0.0;
    int optimal = 0;
    constexpr int kInstances = 50;
    for (int i = 0; i < kInstances; ++i) {
      tdg::SkillVector skills = tdg::random::GenerateSkills(
          rng, tdg::random::SkillDistribution::kUniform, 6);
      for (double& s : skills) s += 1e-9;
      auto brute = tdg::SolveTdgBruteForce(
          skills, 2, 3, tdg::InteractionMode::kStar, *gain);
      TDG_CHECK(brute.ok());
      tdg::DyGroupsStarPolicy policy;
      tdg::ProcessConfig config;
      config.num_groups = 2;
      config.num_rounds = 3;
      config.mode = tdg::InteractionMode::kStar;
      config.record_history = false;
      auto greedy = tdg::RunProcess(skills, config, *gain, policy);
      TDG_CHECK(greedy.ok());
      double gap = (brute->best_total_gain - greedy->total_gain) /
                   std::max(1e-12, brute->best_total_gain);
      total_gap += gap;
      max_gap = std::max(max_gap, gap);
      if (gap < 1e-9) ++optimal;
    }
    gap_table.AddRow({name,
                      tdg::util::StrFormat("%.2e", total_gap / kInstances),
                      tdg::util::StrFormat("%.2e", max_gap),
                      tdg::util::StrFormat("%d/%d", optimal, kInstances)});
  }
  std::printf("%s", gap_table.ToString().c_str());
  std::printf("(expected: zero gap for linear; possibly nonzero for the "
              "concave families — the paper's §VII observation)\n");
  return harness.Finish();
}
