// Baseline study: simulated annealing (the OR-metaheuristic approach the
// paper's related work cites) vs DyGroups-Local on one round, and the cost
// of SA's objective evaluation strategy: full O(n) re-evaluation per
// proposed swap vs the O(n/k) two-group delta objective
// (EvaluateRoundGainDelta). The two strategies follow bitwise-identical
// trajectories — same proposals, same acceptances, same final grouping —
// so the delta column is a pure wall-clock win.
// Expected: SA converges to the same round gain DyGroups computes in closed
// form, but needs thousands of objective evaluations to get there — the
// scalability argument for the analytical grouping rules.

#include "baselines/simulated_annealing.h"
#include "bench_common.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader(
      "Simulated annealing vs DyGroups-Local (one round), full vs delta "
      "objective",
      "Related-work baseline ([12] and kin); star mode, log-normal skills");

  tdg::util::TablePrinter table(
      {"n", "k", "SA iterations", "SA gain / optimal", "full (ms)",
       "delta (ms)", "delta speedup", "DyGroups (ms)"});
  struct Shape {
    int n, k;
  };
  for (const Shape& shape : {Shape{100, 5}, Shape{400, 20}, Shape{1600, 40}}) {
    tdg::random::Rng rng(42);
    tdg::SkillVector skills = tdg::random::GenerateSkills(
        rng, tdg::random::SkillDistribution::kLogNormal, shape.n);
    tdg::LinearGain gain(0.5);

    tdg::util::Stopwatch dygroups_watch;
    auto dygroups = tdg::DyGroupsStarLocal(skills, shape.k);
    double dygroups_ms = dygroups_watch.ElapsedMillis();
    TDG_CHECK(dygroups.ok());
    double optimal = tdg::EvaluateRoundGain(tdg::InteractionMode::kStar,
                                            dygroups.value(), gain, skills)
                         .value();

    for (int iterations : {200, 2000, 20000}) {
      tdg::baselines::SimulatedAnnealingOptions options;
      options.iterations = iterations;

      const std::string case_prefix =
          "n=" + std::to_string(shape.n) + " k=" + std::to_string(shape.k) +
          " iters=" + std::to_string(iterations);
      options.delta_evaluation = false;
      tdg::baselines::SimulatedAnnealingPolicy sa_full(
          tdg::InteractionMode::kStar, gain, 7, options);
      tdg::obs::ScopedBenchRep full_rep(tdg::obs::GlobalBenchReporter(),
                                        case_prefix + "/sa_full");
      auto grouping_full = sa_full.FormGroups(skills, shape.k);
      double full_ms = full_rep.watch().ElapsedMillis();
      full_rep.watch().Pause();
      TDG_CHECK(grouping_full.ok());

      options.delta_evaluation = true;
      tdg::baselines::SimulatedAnnealingPolicy sa_delta(
          tdg::InteractionMode::kStar, gain, 7, options);
      tdg::obs::ScopedBenchRep delta_rep(tdg::obs::GlobalBenchReporter(),
                                         case_prefix + "/sa_delta");
      auto grouping_delta = sa_delta.FormGroups(skills, shape.k);
      double delta_ms = delta_rep.watch().ElapsedMillis();
      delta_rep.watch().Pause();
      TDG_CHECK(grouping_delta.ok());

      // Bitwise-identical trajectory: the returned groupings must match
      // member for member, not just in value.
      TDG_CHECK(grouping_full.value() == grouping_delta.value());

      double sa_gain =
          tdg::EvaluateRoundGain(tdg::InteractionMode::kStar,
                                 grouping_delta.value(), gain, skills)
              .value();
      full_rep.set_objective(sa_gain);
      delta_rep.set_objective(sa_gain);
      table.AddRow(
          {std::to_string(shape.n), std::to_string(shape.k),
           std::to_string(iterations),
           tdg::util::StrFormat("%.4f", sa_gain / optimal),
           tdg::util::FormatDouble(full_ms, 2),
           tdg::util::FormatDouble(delta_ms, 2),
           tdg::util::FormatDouble(delta_ms > 0 ? full_ms / delta_ms : 0.0,
                                   2),
           tdg::util::FormatDouble(dygroups_ms, 4)});
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "(expected: the gain ratio approaches 1 only with large iteration "
      "budgets, at 100-10000x the cost of the closed-form DyGroups "
      "grouping; the delta objective re-scores only the two groups a swap "
      "touches, so its speedup over full re-evaluation grows ~k/2 with "
      "the group count)\n");
  return harness.Finish();
}
