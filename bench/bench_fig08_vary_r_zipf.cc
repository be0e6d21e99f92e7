// Figure 8: aggregate learning gain as a function of the learning rate r,
// Zipf-distributed initial skills. (a) Clique mode; (b) Star mode.
// Expected shape: LG grows with r; DyGroups wins across r (clique: all r).

#include "bench_common.h"

namespace tdg::bench {
namespace {

void RunPanel(const char* label, InteractionMode mode, Harness& harness) {
  std::printf("--- Fig 8(%s): %s mode, zipf skills ---\n", label,
              std::string(InteractionModeName(mode)).c_str());
  std::vector<double> r_values = {0.1, 0.2, 0.3, 0.4, 0.5,
                                  0.6, 0.7, 0.8, 0.9};
  auto series = SweepSeries(
      "r", r_values, baselines::AllPolicyNames(),
      [&](const std::string& policy, double r) {
        SweepConfig config;
        config.mode = mode;
        config.distribution = random::SkillDistribution::kZipf;
        config.r = r;
        return MeanTotalGain(policy, config);
      });
  harness.EmitSeries(series, label);
}

}  // namespace
}  // namespace tdg::bench

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader(
      "Aggregate learning gain, varying r (Zipf)",
      "ICDE'21 Figure 8 (a: clique/Zipf, b: star/Zipf); defaults n=10000, "
      "k=5, alpha=5");
  tdg::bench::RunPanel("a", tdg::InteractionMode::kClique, harness);
  tdg::bench::RunPanel("b", tdg::InteractionMode::kStar, harness);
  return harness.Finish();
}
