#ifndef TDG_CORE_BRUTE_FORCE_H_
#define TDG_CORE_BRUTE_FORCE_H_

#include <vector>

#include "core/interaction.h"
#include "core/learning_gain.h"
#include "core/skills.h"
#include "util/statusor.h"

namespace tdg {

/// Enumerates every partition of {0..n-1} into k unordered equi-sized
/// groups, exactly once each (symmetry-broken: the lowest unplaced id always
/// opens the next group). The number of such partitions is
/// n! / ((t!)^k · k!) with t = n/k.
util::StatusOr<std::vector<Grouping>> EnumerateEquiSizedGroupings(int n,
                                                                  int k);

/// Number of partitions of n items into k unordered groups of size n/k,
/// as a double (may overflow to +inf for large inputs — used for budget
/// checks only).
util::StatusOr<double> CountEquiSizedGroupings(int n, int k);

struct BruteForceOptions {
  /// Upper bound on (#groupings)^α explored sequences; the solver refuses
  /// instances above the budget instead of silently running forever.
  double max_sequences = 5e7;

  /// Worker threads. <= 1 (and 0) runs the classic serial enumeration.
  /// N > 1 shards the sequence space by its first rounds (expanded
  /// sequentially, in enumeration order) and solves the shards with
  /// util::ParallelFor on N workers. The optimum returned — gain and grouping
  /// sequence — is bitwise identical to the serial solver's for every
  /// thread count (see DESIGN.md "Determinism contract").
  int num_threads = 1;
};

struct BruteForceResult {
  double best_total_gain = 0;
  std::vector<Grouping> best_sequence;  // one grouping per round
  double sequences_explored = 0;
  /// Shards the enumeration fanned out over (1 when serial).
  long long subtree_tasks = 1;
  /// Actual worker count used (after clamping).
  int threads_used = 1;
};

/// Exact TDG solver (paper §V-B1 "BRUTE-FORCE"): exhaustive search over all
/// grouping sequences of length `alpha`, maximizing Σ_t LG(G_t). Exponential;
/// only feasible for small n, k, alpha (e.g. n ≤ 8, α ≤ 4). Used to validate
/// Theorem 5 (DyGroups-Star optimal for k = 2) and to probe k > 2.
util::StatusOr<BruteForceResult> SolveTdgBruteForce(
    const SkillVector& skills, int num_groups, int num_rounds,
    InteractionMode mode, const LearningGainFunction& gain,
    const BruteForceOptions& options = {});

}  // namespace tdg

#endif  // TDG_CORE_BRUTE_FORCE_H_
