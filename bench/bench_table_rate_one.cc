// §V-B2 "In the special case of r = 1 ... it takes log_{n/k}(n) rounds to
// make everyone reach the highest skill value for DYGROUPS and LPA."
// Verifies the closed form against exact simulation across shapes.

#include "bench_common.h"
#include "core/theory.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader("Rate-one saturation rounds",
                          "ICDE'21 §V-B2 note: r = 1 star mode saturates in "
                          "ceil(log_{n/k}(n)) rounds");

  tdg::util::TablePrinter table(
      {"n", "k", "group size", "predicted rounds", "simulated rounds"});
  struct Shape {
    int n, k;
  };
  for (Shape shape : {Shape{9, 3}, Shape{64, 16}, Shape{100, 20},
                      Shape{1000, 100}, Shape{10000, 2000},
                      Shape{10000, 5}}) {
    tdg::random::Rng rng(42);
    tdg::SkillVector skills = tdg::random::GenerateSkills(
        rng, tdg::random::SkillDistribution::kLogNormal, shape.n);
    tdg::obs::ScopedBenchRep rep(
        tdg::obs::GlobalBenchReporter(),
        "saturation/n=" + std::to_string(shape.n) +
            "/k=" + std::to_string(shape.k));
    auto predicted =
        tdg::PredictedRateOneSaturationRounds(shape.n, shape.k);
    auto simulated = tdg::SimulateRateOneStarSaturation(skills, shape.k);
    TDG_CHECK(predicted.ok() && simulated.ok());
    rep.set_objective(static_cast<double>(simulated.value()));
    table.AddRow({std::to_string(shape.n), std::to_string(shape.k),
                  std::to_string(shape.n / shape.k),
                  std::to_string(predicted.value()),
                  std::to_string(simulated.value())});
    TDG_CHECK_EQ(predicted.value(), simulated.value());
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("(prediction and simulation agree on every shape)\n");
  return harness.Finish();
}
