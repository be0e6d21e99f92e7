// Exact-solver study: brute force vs branch-and-bound on the TDG problem,
// serial vs the parallel search (util::ParallelFor over ~4 subtree tasks
// per thread, each worker claiming the next task). Reports optimal value
// agreement, node counts (how the admissible deficit bound of
// branch_bound.h shrinks the tree), and the serial/parallel wall-clock
// speedup of both solvers. The parallel optimum is asserted bitwise equal
// to the serial one on every instance (the determinism contract of
// DESIGN.md).
//
// Flags: --solver_threads=N (default 4) picks the parallel worker count;
// --reps=N (default 1) repeats every case N times so --report_out=<path>
// captures enough repetitions for tdg_perfdiff's statistical gate.
// Speedup tracks the machine's available cores: on a single-core container
// the parallel search only demonstrates correctness, not speed.

#include "bench_common.h"
#include "core/branch_bound.h"
#include "core/brute_force.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace {

std::string Key(const std::vector<tdg::Grouping>& sequence) {
  std::string key;
  for (const tdg::Grouping& grouping : sequence) {
    key += grouping.CanonicalKey();
    key += ";";
  }
  return key;
}

}  // namespace

int main(int argc, char** argv) {
  tdg::util::FlagParser flags;
  TDG_CHECK(flags.Parse(argc, argv).ok());
  const int threads =
      static_cast<int>(flags.GetInt("solver_threads", 4));
  const int reps = static_cast<int>(flags.GetInt("reps", 1));
  TDG_CHECK(reps >= 1);
  tdg::bench::PrintHeader(
      "Exact solvers: brute force vs branch-and-bound, serial vs parallel",
      "Infrastructure behind §V-B3 / Theorem 5 validation");

  tdg::util::TablePrinter table(
      {"n", "k", "alpha", "groupings", "brute sequences", "B&B nodes",
       "B&B pruned", "optima agree", "BF ser ms", "BF par ms", "BF x",
       "B&B ser ms", "B&B par ms", "B&B x"});
  struct Case {
    int n, k, alpha;
  };
  for (const Case& c :
       {Case{6, 2, 3}, Case{6, 3, 3}, Case{8, 2, 3}, Case{8, 4, 2},
        Case{10, 2, 2}, Case{10, 5, 2}}) {
    tdg::random::Rng rng(42 + c.n * 10 + c.k);
    tdg::SkillVector skills = tdg::random::GenerateSkills(
        rng, tdg::random::SkillDistribution::kUniform, c.n);
    for (double& s : skills) s += 1e-9;
    tdg::LinearGain gain(0.5);

    // Every solver variant is one telemetry case: the key pairs reports
    // across runs in tdg_perfdiff, the objective is the solver's optimum.
    const std::string case_prefix = "n=" + std::to_string(c.n) +
                                    " k=" + std::to_string(c.k) +
                                    " a=" + std::to_string(c.alpha);
    auto timed = [&case_prefix](const char* variant, auto&& solve,
                                double* out_ms) {
      tdg::obs::ScopedBenchRep rep(tdg::obs::GlobalBenchReporter(),
                                   case_prefix + "/" + variant);
      auto result = solve();
      *out_ms = rep.watch().ElapsedMillis();
      if (result.ok()) rep.set_objective(result->best_total_gain);
      return result;
    };

    for (int rep = 0; rep < reps; ++rep) {
      double brute_ms, brute_par_ms, bb_ms, bb_par_ms;
      auto brute = timed(
          "bf_serial",
          [&] {
            return tdg::SolveTdgBruteForce(skills, c.k, c.alpha,
                                           tdg::InteractionMode::kStar, gain,
                                           {.max_sequences = 5e8});
          },
          &brute_ms);
      auto brute_par = timed(
          "bf_par",
          [&] {
            return tdg::SolveTdgBruteForce(
                skills, c.k, c.alpha, tdg::InteractionMode::kStar, gain,
                {.max_sequences = 5e8, .num_threads = threads});
          },
          &brute_par_ms);
      auto bounded = timed(
          "bb_serial",
          [&] {
            return tdg::SolveTdgBranchBound(
                skills, c.k, c.alpha, tdg::InteractionMode::kStar, gain);
          },
          &bb_ms);
      auto bounded_par = timed(
          "bb_par",
          [&] {
            return tdg::SolveTdgBranchBound(
                skills, c.k, c.alpha, tdg::InteractionMode::kStar, gain,
                {.num_threads = threads});
          },
          &bb_par_ms);

      TDG_CHECK(brute.ok()) << brute.status();
      TDG_CHECK(brute_par.ok()) << brute_par.status();
      TDG_CHECK(bounded.ok()) << bounded.status();
      TDG_CHECK(bounded_par.ok()) << bounded_par.status();
      // Determinism contract: the parallel optimum is bitwise equal to the
      // serial one — value AND grouping sequence.
      TDG_CHECK(brute_par->best_total_gain == brute->best_total_gain);
      TDG_CHECK(Key(brute_par->best_sequence) == Key(brute->best_sequence));
      TDG_CHECK(bounded_par->best_total_gain == bounded->best_total_gain);
      TDG_CHECK(Key(bounded_par->best_sequence) ==
                Key(bounded->best_sequence));
      bool agree = std::abs(brute->best_total_gain -
                            bounded->best_total_gain) < 1e-9;
      TDG_CHECK(agree);
      if (rep + 1 < reps) continue;  // table shows the last repetition

      auto groupings = tdg::CountEquiSizedGroupings(c.n, c.k);
      table.AddRow({std::to_string(c.n), std::to_string(c.k),
                    std::to_string(c.alpha),
                    tdg::util::FormatDouble(groupings.value(), 0),
                    tdg::util::FormatDouble(brute->sequences_explored, 0),
                    std::to_string(bounded->nodes_explored),
                    std::to_string(bounded->nodes_pruned),
                    agree ? "yes" : "NO",
                    tdg::util::FormatDouble(brute_ms, 2),
                    tdg::util::FormatDouble(brute_par_ms, 2),
                    tdg::util::FormatDouble(
                        brute_par_ms > 0 ? brute_ms / brute_par_ms : 0.0, 2),
                    tdg::util::FormatDouble(bb_ms, 2),
                    tdg::util::FormatDouble(bb_par_ms, 2),
                    tdg::util::FormatDouble(
                        bb_par_ms > 0 ? bb_ms / bb_par_ms : 0.0, 2)});
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "(expected: agreement on every instance and bitwise-identical "
      "serial/parallel optima; the deficit bound prunes modestly — "
      "per-round optimal gain is not monotone over rounds, which rules out "
      "the obvious tighter bounds. Parallel columns use %d threads; the "
      "speedup 'x' columns approach the core count on multi-core "
      "machines, with brute force scaling best since it has no shared "
      "bound contention)\n",
      threads);
  tdg::bench::EmitReport(argc, argv);
  return 0;
}
