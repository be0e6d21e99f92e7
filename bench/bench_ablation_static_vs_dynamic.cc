// Ablation (paper §I/§II motivation): dynamic re-grouping vs static groups.
// Freezes each policy's first grouping for all alpha rounds (the "static"
// regime of the prior one-shot work) and compares against re-running the
// policy every round. Expected: dynamic >= static for every policy, with
// the gap growing in alpha — the paper's core hypothesis.

#include <memory>

#include "baselines/static_groups.h"
#include "bench_common.h"
#include "util/table_printer.h"

namespace tdg::bench {
namespace {

double GainWithPolicy(bool dynamic, const std::string& policy_name, int n,
                      int k, int alpha, uint64_t seed, int runs) {
  double total = 0.0;
  for (int run = 0; run < runs; ++run) {
    random::Rng rng(seed + run * 17);
    SkillVector skills = random::GenerateSkills(
        rng, random::SkillDistribution::kLogNormal, n);
    auto inner = baselines::MakePolicy(policy_name, seed + run);
    TDG_CHECK(inner.ok());
    std::unique_ptr<GroupingPolicy> policy;
    if (dynamic) {
      policy = std::move(inner).value();
    } else {
      policy = std::make_unique<baselines::StaticGroupsPolicy>(
          std::move(inner).value());
    }
    LinearGain gain(0.5);
    ProcessConfig config;
    config.num_groups = k;
    config.num_rounds = alpha;
    config.mode = InteractionMode::kStar;
    config.record_history = false;
    auto result = RunProcess(skills, config, gain, *policy);
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
      "Ablation: dynamic re-grouping vs static groups",
      "The TDG hypothesis (paper §I): changing group composition across "
      "rounds beats any one-shot grouping. Star mode, log-normal, n=1000, "
      "k=5, r=0.5");

  std::vector<double> alphas = {1, 2, 3, 5, 8};
  for (const std::string& policy :
       {std::string("DyGroups-Star"), std::string("Percentile-Partitions"),
        std::string("LPA"), std::string("k-means")}) {
    tdg::util::TablePrinter table(
        {"alpha", "dynamic " + policy, "static " + policy, "dynamic/static"});
    for (double alpha : alphas) {
      const std::string case_prefix =
          policy + "/alpha=" + std::to_string(static_cast<int>(alpha));
      double dynamic, static_gain;
      {
        tdg::obs::ScopedBenchRep rep(tdg::obs::GlobalBenchReporter(),
                                     case_prefix + "/dynamic");
        dynamic = tdg::bench::GainWithPolicy(
            true, policy, 1000, 5, static_cast<int>(alpha), 5, 5);
        rep.set_objective(dynamic);
      }
      {
        tdg::obs::ScopedBenchRep rep(tdg::obs::GlobalBenchReporter(),
                                     case_prefix + "/static");
        static_gain = tdg::bench::GainWithPolicy(
            false, policy, 1000, 5, static_cast<int>(alpha), 5, 5);
        rep.set_objective(static_gain);
      }
      table.AddNumericRow({alpha, dynamic, static_gain,
                           dynamic / static_gain},
                          3);
    }
    std::printf("%s\n", table.ToString().c_str());
  }
  std::printf("(expected: ratio = 1 at alpha = 1, then > 1 and growing)\n");
  return harness.Finish();
}
