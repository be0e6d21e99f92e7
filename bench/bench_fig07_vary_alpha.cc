// Figure 7: aggregate learning gain as a function of the number of rounds α.
// (a) Clique mode / Zipf skills; (b) Star mode / log-normal skills.
// Expected shape: LG increases with α; DyGroups wins at every α.

#include "bench_common.h"

namespace tdg::bench {
namespace {

void RunPanel(const char* label, InteractionMode mode,
              random::SkillDistribution distribution, Harness& harness) {
  std::printf("--- Fig 7(%s): %s mode, %s skills ---\n", label,
              std::string(InteractionModeName(mode)).c_str(),
              std::string(random::SkillDistributionName(distribution))
                  .c_str());
  std::vector<double> alpha_values = {1, 2, 3, 4, 5, 6, 8, 10};
  auto series = SweepSeries(
      "alpha", alpha_values, baselines::AllPolicyNames(),
      [&](const std::string& policy, double alpha) {
        SweepConfig config;
        config.mode = mode;
        config.distribution = distribution;
        config.alpha = static_cast<int>(alpha);
        return MeanTotalGain(policy, config);
      });
  harness.EmitSeries(series, label);
}

}  // namespace
}  // namespace tdg::bench

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader("Aggregate learning gain, varying alpha",
                          "ICDE'21 Figure 7 (a: clique/Zipf, "
                          "b: star/log-normal); defaults n=10000, k=5, "
                          "r=0.5");
  tdg::bench::RunPanel("a", tdg::InteractionMode::kClique,
                       tdg::random::SkillDistribution::kZipf, harness);
  tdg::bench::RunPanel("b", tdg::InteractionMode::kStar,
                       tdg::random::SkillDistribution::kLogNormal, harness);
  return harness.Finish();
}
