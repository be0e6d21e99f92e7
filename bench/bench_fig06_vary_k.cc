// Figure 6: aggregate learning gain as a function of the number of groups k.
// (a) Star mode / log-normal skills; (b) Clique mode / Zipf skills.
// Expected shape: LG decreases as k grows (fewer groups get an expert
// teacher); DyGroups wins at every k.

#include "bench_common.h"

namespace tdg::bench {
namespace {

void RunPanel(const char* label, InteractionMode mode,
              random::SkillDistribution distribution, Harness& harness) {
  std::printf("--- Fig 6(%s): %s mode, %s skills ---\n", label,
              std::string(InteractionModeName(mode)).c_str(),
              std::string(random::SkillDistributionName(distribution))
                  .c_str());
  std::vector<double> k_values = {5, 10, 25, 50, 100, 250};
  auto series = SweepSeries(
      "k", k_values, baselines::AllPolicyNames(),
      [&](const std::string& policy, double k) {
        SweepConfig config;
        config.mode = mode;
        config.distribution = distribution;
        config.k = static_cast<int>(k);
        return MeanTotalGain(policy, config);
      });
  harness.EmitSeries(series, label);
}

}  // namespace
}  // namespace tdg::bench

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader("Aggregate learning gain, varying k",
                          "ICDE'21 Figure 6 (a: star/log-normal, "
                          "b: clique/Zipf); defaults n=10000, r=0.5, "
                          "alpha=5");
  tdg::bench::RunPanel("a", tdg::InteractionMode::kStar,
                       tdg::random::SkillDistribution::kLogNormal, harness);
  tdg::bench::RunPanel("b", tdg::InteractionMode::kClique,
                       tdg::random::SkillDistribution::kZipf, harness);
  return harness.Finish();
}
