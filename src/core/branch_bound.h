#ifndef TDG_CORE_BRANCH_BOUND_H_
#define TDG_CORE_BRANCH_BOUND_H_

#include <vector>

#include "core/brute_force.h"

namespace tdg {

struct BranchBoundOptions {
  /// Node budget (a node = one partial sequence extension). The solver
  /// refuses instances whose worst case exceeds the budget only when it
  /// actually hits it, since pruning usually cuts the tree by orders of
  /// magnitude. With multiple threads the budget is shared (a global atomic
  /// count), so the exact node at which an over-budget instance fails can
  /// vary with scheduling — success/failure for instances comfortably
  /// inside or outside the budget does not.
  long long max_nodes = 200'000'000;

  /// Worker threads for the search. <= 1 runs the classic serial solver;
  /// 0 is treated as 1. N > 1 seeds a frontier of subtree tasks by
  /// expanding the first tree levels sequentially, then solves them with
  /// util::ParallelFor on N workers that share an atomic incumbent bound.
  /// The returned optimum (gain and grouping sequence) is bitwise identical
  /// to the serial solver's for every thread count — see DESIGN.md
  /// "Determinism contract".
  int num_threads = 1;
};

struct BranchBoundResult {
  double best_total_gain = 0;
  std::vector<Grouping> best_sequence;
  long long nodes_explored = 0;
  long long nodes_pruned = 0;
  /// Subtree tasks the search fanned out over (1 when serial).
  long long subtree_tasks = 1;
  /// Actual worker count used (after clamping).
  int threads_used = 1;
};

/// Exact TDG solver via depth-first branch-and-bound. Explores grouping
/// sequences best-round-gain-first (ties broken by grouping index, making
/// the traversal order total) and prunes with the admissible bound
///
///   remaining gain <= D * (1 - (1-r)^m)        (linear gain, rate r)
///   remaining gain <= D                        (any gain with f(Δ) <= Δ)
///
/// where D is the current skill-deficit sum and m the rounds left: no
/// member can ever gain more than r * (its distance to the top) per round,
/// and the distance contracts by at least (1-r) per round in the best case.
///
/// Finds the same optimum as SolveTdgBruteForce while typically exploring a
/// small fraction of the tree, extending exact validation to larger
/// instances (e.g. n = 10). With options.num_threads > 1 the subtrees below
/// the sequentially-expanded first levels are searched in parallel, each
/// worker claiming the next subtree as it finishes one; the result is
/// bitwise identical to the serial search. Returns ResourceExhausted-style
/// failure as InvalidArgument when the node budget is hit.
util::StatusOr<BranchBoundResult> SolveTdgBranchBound(
    const SkillVector& skills, int num_groups, int num_rounds,
    InteractionMode mode, const LearningGainFunction& gain,
    const BranchBoundOptions& options = {});

}  // namespace tdg

#endif  // TDG_CORE_BRANCH_BOUND_H_
