// Figure 1 (Experiment-1): learning gain across rounds for two matched
// human populations — DyGroups vs KMEANS. N = 64 simulated AMT workers,
// populations of 32, group size 4, alpha = 3 rounds, r ≈ 0.5.
// Expected shape: mean assessed skill rises each round in both populations
// (Observation I) and DyGroups leads from round 1 (Observation II).

#include "bench_common.h"
#include "sim/amt_experiment.h"

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader(
      "Experiment-1: learning gain across rounds (simulated AMT)",
      "ICDE'21 Figure 1; human subjects simulated per DESIGN.md "
      "substitution 1");

  // Average several simulated deployments for a stable picture (a real AMT
  // deployment is one noisy draw of this process).
  constexpr int kDeployments = 50;
  constexpr int kRounds = 3;
  std::vector<std::vector<double>> mean_after(
      2, std::vector<double>(kRounds, 0.0));
  std::vector<double> pre_mean(2, 0.0);
  std::vector<std::vector<double>> counted(
      2, std::vector<double>(kRounds, 0.0));
  std::vector<double> cumulative_gain(2, 0.0);
  std::vector<std::string> names;

  for (int d = 0; d < kDeployments; ++d) {
    auto result =
        tdg::sim::RunExperiment(tdg::sim::Experiment1Config(1000 + d));
    TDG_CHECK(result.ok()) << result.status();
    if (names.empty()) {
      for (const auto& population : result->populations) {
        names.push_back(population.policy_name);
      }
    }
    for (size_t p = 0; p < result->populations.size(); ++p) {
      const auto& population = result->populations[p];
      pre_mean[p] += population.pre_qualification_mean / kDeployments;
      cumulative_gain[p] += population.total_observed_gain / kDeployments;
      for (const auto& round : population.rounds) {
        mean_after[p][round.round - 1] += round.mean_observed_after;
        counted[p][round.round - 1] += 1.0;
      }
    }
  }

  tdg::io::ExperimentSeries series;
  series.x_label = "round";
  series.series_names = names;
  series.x_values = {0, 1, 2, 3};  // 0 = pre-qualification
  series.values.resize(2);
  for (int p = 0; p < 2; ++p) {
    series.values[p].push_back(pre_mean[p]);
    for (int t = 0; t < kRounds; ++t) {
      series.values[p].push_back(
          counted[p][t] > 0 ? mean_after[p][t] / counted[p][t] : 0.0);
    }
  }
  std::printf("mean assessed skill by round (round 0 = pre-qualification), "
              "averaged over %d deployments:\n",
              kDeployments);
  harness.EmitSeries(series);

  std::printf("cumulative observed learning gain: %s=%.3f  %s=%.3f\n",
              names[0].c_str(), cumulative_gain[0], names[1].c_str(),
              cumulative_gain[1]);
  std::printf("(paper shape: DyGroups > KMeans at every round)\n");
  return harness.Finish();
}
