// Figure 2 (Experiment-1): linear fit to DyGroups' aggregated learning gain
// as a function of the round index. The paper's Observation IV: despite the
// shrinking learnable headroom, the cumulative gain grows near-linearly over
// the first rounds.

#include "bench_common.h"
#include "sim/amt_experiment.h"
#include "stats/regression.h"

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader(
      "Experiment-1: linear fit to cumulative learning gain",
      "ICDE'21 Figure 2 (Observation IV)");

  constexpr int kDeployments = 30;
  constexpr int kRounds = 3;
  std::vector<double> cumulative(kRounds, 0.0);
  std::vector<double> counted(kRounds, 0.0);
  for (int d = 0; d < kDeployments; ++d) {
    auto result =
        tdg::sim::RunExperiment(tdg::sim::Experiment1Config(2000 + d));
    TDG_CHECK(result.ok()) << result.status();
    const auto& dygroups = result->populations[0];
    double running = 0.0;
    for (const auto& round : dygroups.rounds) {
      running += round.aggregate_observed_gain;
      cumulative[round.round - 1] += running;
      counted[round.round - 1] += 1.0;
    }
  }

  std::vector<double> x;
  std::vector<double> y;
  for (int t = 0; t < kRounds; ++t) {
    if (counted[t] == 0) continue;
    x.push_back(t + 1.0);
    y.push_back(cumulative[t] / counted[t]);
  }

  tdg::io::ExperimentSeries series;
  series.x_label = "round";
  series.series_names = {"cumulative-gain-DyGroups"};
  series.x_values = x;
  series.values = {y};
  harness.EmitSeries(series);

  auto fit = tdg::stats::FitLinear(x, y);
  TDG_CHECK(fit.ok()) << fit.status();
  std::printf("linear fit: gain(round) = %.4f + %.4f * round,  R^2 = %.4f\n",
              fit->intercept, fit->slope, fit->r_squared);
  std::printf("(paper shape: positive slope, near-linear fit — R^2 close "
              "to 1 in the first rounds)\n");
  return harness.Finish();
}
