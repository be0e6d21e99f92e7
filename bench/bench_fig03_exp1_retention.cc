// Figure 3 (Experiment-1): worker retention across rounds, DyGroups vs
// KMEANS. Expected shape (Observation III): DyGroups retains more workers —
// higher per-round personal gains translate into lower dropout.

#include "bench_common.h"
#include "sim/amt_experiment.h"

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader(
      "Experiment-1: worker retention across rounds (simulated AMT)",
      "ICDE'21 Figure 3 (Observation III)");

  constexpr int kDeployments = 30;
  constexpr int kRounds = 3;
  std::vector<std::vector<double>> retention(
      2, std::vector<double>(kRounds, 0.0));
  std::vector<std::vector<double>> counted(
      2, std::vector<double>(kRounds, 0.0));
  std::vector<std::string> names;

  for (int d = 0; d < kDeployments; ++d) {
    auto result =
        tdg::sim::RunExperiment(tdg::sim::Experiment1Config(3000 + d));
    TDG_CHECK(result.ok()) << result.status();
    if (names.empty()) {
      for (const auto& population : result->populations) {
        names.push_back(population.policy_name);
      }
    }
    for (size_t p = 0; p < result->populations.size(); ++p) {
      for (const auto& round : result->populations[p].rounds) {
        retention[p][round.round - 1] += round.retention_fraction;
        counted[p][round.round - 1] += 1.0;
      }
    }
  }

  tdg::io::ExperimentSeries series;
  series.x_label = "round";
  series.series_names = names;
  series.x_values = {1, 2, 3};
  series.values.resize(2);
  for (int p = 0; p < 2; ++p) {
    for (int t = 0; t < kRounds; ++t) {
      series.values[p].push_back(
          counted[p][t] > 0 ? retention[p][t] / counted[p][t] : 0.0);
    }
  }
  std::printf("fraction of the initial population still active after each "
              "round, averaged over %d deployments:\n",
              kDeployments);
  harness.EmitSeries(series);
  std::printf("(paper shape: DyGroups retention >= KMeans at every round)\n");
  return harness.Finish();
}
