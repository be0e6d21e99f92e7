// Figure 10: learning gain of DyGroups relative to RANDOM-ASSIGNMENT.
// (a) ratio vs alpha for fixed n = 10000, alpha in {2,4,...,64};
// (b) ratio vs n for fixed alpha = 10, n in {10, 10^2, ..., 10^6}.
// Expected shape: up to ~1.3x advantage at small alpha, decaying toward 1
// as everyone converges to the top skill; star ≈ clique throughout.

#include "bench_common.h"

namespace tdg::bench {
namespace {

double GainRatio(InteractionMode mode, int n, int alpha, uint64_t seed,
                 int k = 5) {
  SweepConfig config;
  config.mode = mode;
  config.n = n;
  config.k = k;
  config.alpha = alpha;
  config.runs = (n >= 100000) ? 1 : 3;
  config.seed = seed;
  std::string dygroups = (mode == InteractionMode::kStar)
                             ? "DyGroups-Star"
                             : "DyGroups-Clique";
  double dy = MeanTotalGain(dygroups, config);
  double random_gain = MeanTotalGain("Random-Assignment", config);
  return dy / random_gain;
}

}  // namespace
}  // namespace tdg::bench

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  using tdg::InteractionMode;
  tdg::bench::PrintHeader(
      "Learning gain relative to Random-Assignment",
      "ICDE'21 Figure 10 (a: varying alpha at n=10000, b: varying n at "
      "alpha=10); log-normal skills, k=5, r=0.5");

  std::printf("--- Fig 10(a): ratio vs alpha (n = 10000) ---\n");
  std::vector<double> alphas = {2, 4, 6, 8, 16, 32, 64};
  auto series_a = tdg::bench::SweepSeries(
      "alpha", alphas,
      {std::string("DyGroups-Star/Random"),
       std::string("DyGroups-Clique/Random")},
      [&](const std::string& name, double alpha) {
        InteractionMode mode = (name.find("Star") != std::string::npos)
                                   ? InteractionMode::kStar
                                   : InteractionMode::kClique;
        return tdg::bench::GainRatio(mode, 10000,
                                     static_cast<int>(alpha), 42);
      });
  harness.EmitSeries(series_a, "a");

  std::printf("--- Fig 10(b): ratio vs n (alpha = 10) ---\n");
  std::vector<double> n_values = {10, 100, 1000, 10000, 100000, 1000000};
  auto series_b = tdg::bench::SweepSeries(
      "n", n_values,
      {std::string("DyGroups-Star/Random"),
       std::string("DyGroups-Clique/Random")},
      [&](const std::string& name, double n) {
        InteractionMode mode = (name.find("Star") != std::string::npos)
                                   ? InteractionMode::kStar
                                   : InteractionMode::kClique;
        return tdg::bench::GainRatio(mode, static_cast<int>(n), 10, 43);
      });
  harness.EmitSeries(series_b, "b");

  // Supplementary panel: the paper reports up to ~30% advantage, which is
  // only attainable when groups are small (its human experiments read k as
  // the group *size*; see DESIGN.md §1 substitution 4). With group size 5
  // (k = n/5 groups) the advantage matches the paper's magnitude.
  std::printf("--- Fig 10(a'): ratio vs alpha, group size 5 (k = n/5) ---\n");
  auto series_c = tdg::bench::SweepSeries(
      "alpha", alphas,
      {std::string("DyGroups-Star/Random"),
       std::string("DyGroups-Clique/Random")},
      [&](const std::string& name, double alpha) {
        InteractionMode mode = (name.find("Star") != std::string::npos)
                                   ? InteractionMode::kStar
                                   : InteractionMode::kClique;
        return tdg::bench::GainRatio(mode, 10000, static_cast<int>(alpha),
                                     44, /*k=*/2000);
      });
  harness.EmitSeries(series_c, "c");
  return harness.Finish();
}
