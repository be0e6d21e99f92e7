// Figure 4 (Experiment-2): (a) learning gain across rounds and (b) worker
// retention for four matched populations — DyGroups, KMEANS, LPA,
// PERCENTILE-PARTITIONS. N = 128 simulated workers, alpha = 2 rounds.
// Expected shape: DyGroups leads on both gain and retention.

#include "bench_common.h"
#include "sim/amt_experiment.h"
#include "stats/hypothesis.h"

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader(
      "Experiment-2: 4-population comparison (simulated AMT)",
      "ICDE'21 Figure 4 (a: learning gain across rounds, b: retention)");

  constexpr int kDeployments = 50;
  constexpr int kRounds = 2;
  constexpr int kPopulations = 4;
  std::vector<std::string> names;
  std::vector<double> pre_mean(kPopulations, 0.0);
  std::vector<std::vector<double>> mean_after(
      kPopulations, std::vector<double>(kRounds, 0.0));
  std::vector<std::vector<double>> retention(
      kPopulations, std::vector<double>(kRounds, 0.0));
  std::vector<std::vector<double>> counted(
      kPopulations, std::vector<double>(kRounds, 0.0));
  std::vector<double> significance_p(kPopulations, 0.0);
  // Total observed gain of each population, per deployment — for the
  // across-deployments significance test.
  std::vector<std::vector<double>> deployment_gain(kPopulations);

  for (int d = 0; d < kDeployments; ++d) {
    auto result =
        tdg::sim::RunExperiment(tdg::sim::Experiment2Config(4000 + d));
    TDG_CHECK(result.ok()) << result.status();
    if (names.empty()) {
      for (const auto& population : result->populations) {
        names.push_back(population.policy_name);
      }
    }
    for (int p = 0; p < kPopulations; ++p) {
      const auto& population = result->populations[p];
      deployment_gain[p].push_back(population.total_observed_gain);
      pre_mean[p] += population.pre_qualification_mean / kDeployments;
      for (const auto& round : population.rounds) {
        mean_after[p][round.round - 1] += round.mean_observed_after;
        retention[p][round.round - 1] += round.retention_fraction;
        counted[p][round.round - 1] += 1.0;
      }
      if (p > 0) {
        significance_p[p] +=
            result->first_vs_other[p].p_value_one_sided_greater /
            kDeployments;
      }
    }
  }

  std::printf("--- Fig 4(a): mean assessed skill by round "
              "(round 0 = pre-qualification) ---\n");
  tdg::io::ExperimentSeries gain_series;
  gain_series.x_label = "round";
  gain_series.series_names = names;
  gain_series.x_values = {0, 1, 2};
  gain_series.values.resize(kPopulations);
  for (int p = 0; p < kPopulations; ++p) {
    gain_series.values[p].push_back(pre_mean[p]);
    for (int t = 0; t < kRounds; ++t) {
      gain_series.values[p].push_back(
          counted[p][t] > 0 ? mean_after[p][t] / counted[p][t] : 0.0);
    }
  }
  harness.EmitSeries(gain_series, "a");

  std::printf("--- Fig 4(b): worker retention by round ---\n");
  tdg::io::ExperimentSeries retention_series;
  retention_series.x_label = "round";
  retention_series.series_names = names;
  retention_series.x_values = {1, 2};
  retention_series.values.resize(kPopulations);
  for (int p = 0; p < kPopulations; ++p) {
    for (int t = 0; t < kRounds; ++t) {
      retention_series.values[p].push_back(
          counted[p][t] > 0 ? retention[p][t] / counted[p][t] : 0.0);
    }
  }
  harness.EmitSeries(retention_series, "b");

  std::printf("mean one-sided p-value (DyGroups > baseline), per-worker "
              "gains within one deployment:\n");
  for (int p = 1; p < kPopulations; ++p) {
    std::printf("  vs %-22s p = %.4f\n", names[p].c_str(),
                significance_p[p]);
  }
  std::printf("across-deployment significance (Welch over %d deployment "
              "totals, DyGroups > baseline):\n",
              kDeployments);
  for (int p = 1; p < kPopulations; ++p) {
    auto test =
        tdg::stats::WelchTTest(deployment_gain[0], deployment_gain[p]);
    TDG_CHECK(test.ok()) << test.status();
    std::printf("  vs %-22s mean gain diff = %+.3f, p = %.4g\n",
                names[p].c_str(), test->mean_difference,
                test->p_value_one_sided_greater);
  }
  std::printf("(paper shape: DyGroups leads every baseline on gain and "
              "retention)\n");
  return harness.Finish();
}
