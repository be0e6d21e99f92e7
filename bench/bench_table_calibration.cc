// §V-A "Parameter justification": the pre-deployment calibration study that
// led the paper to r = 0.5 and groups of 4-5. One interaction round with
// random groups of each probed size; implied learning rate and engagement
// measured from pre/post assessments.

#include "bench_common.h"
#include "sim/calibration.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader(
      "Pre-deployment calibration study (simulated AMT)",
      "ICDE'21 §V-A parameter justification: choose r and the group size");

  tdg::sim::CalibrationConfig config;
  config.deployments = 50;
  tdg::util::Stopwatch watch;
  auto result = tdg::sim::RunCalibration(config);
  TDG_CHECK(result.ok()) << result.status();
  tdg::obs::GlobalBenchReporter().RecordRep(
      "calibration/deployments=50",
      static_cast<double>(watch.TotalMicros()), result->recommended_rate);

  tdg::util::TablePrinter table({"group size", "implied r",
                                 "mean observed gain", "retention",
                                 "engagement-weighted score"});
  for (const tdg::sim::CalibrationCell& cell : result->cells) {
    table.AddRow({std::to_string(cell.group_size),
                  tdg::util::FormatDouble(cell.estimated_rate, 3),
                  tdg::util::FormatDouble(cell.mean_observed_gain, 4),
                  tdg::util::FormatDouble(cell.retention, 3),
                  tdg::util::FormatDouble(cell.score, 5)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("recommended group size: %d   implied learning rate: %.3f\n",
              result->recommended_group_size, result->recommended_rate);
  std::printf("(paper conclusion: groups of 4-5, r = 0.5)\n");
  return harness.Finish();
}
