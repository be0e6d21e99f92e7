#ifndef TDG_CORE_PROCESS_H_
#define TDG_CORE_PROCESS_H_

#include <vector>

#include "core/interaction.h"
#include "core/learning_gain.h"
#include "core/policy.h"
#include "util/statusor.h"

namespace tdg {

/// Configuration of one α-round peer-learning process (paper Problem 1).
struct ProcessConfig {
  int num_groups = 5;                                // k
  int num_rounds = 5;                                // α
  InteractionMode mode = InteractionMode::kStar;
  /// Record every round's grouping and post-round skills. Disable for
  /// large-scale runs (n = 10^6) where the history would dominate memory.
  bool record_history = true;
};

/// One executed round.
struct RoundRecord {
  Grouping grouping;
  double gain = 0;                  // LG(G_t), Eq. 3
  std::vector<double> skills_after; // snapshot after the round
};

/// Result of running a policy for α rounds.
struct ProcessResult {
  std::vector<double> initial_skills;
  std::vector<double> final_skills;
  std::vector<double> round_gains;   // per-round LG, always recorded
  std::vector<RoundRecord> history;  // populated iff record_history
  double total_gain = 0;             // Σ_t LG(G_t) — the TDG objective
};

/// Runs the generic DYGROUPS-MODE loop (paper Algorithm 1) with `policy` in
/// the DYGROUPS-MODE-LOCAL slot: for t = 1..α, form a grouping on the
/// current skills, apply the round update, repeat. Works unchanged for the
/// baselines, which are simply different GroupingPolicy implementations.
///
/// Errors if the skills are invalid, n is not divisible by k, or the policy
/// returns an invalid grouping.
util::StatusOr<ProcessResult> RunProcess(const SkillVector& initial_skills,
                                         const ProcessConfig& config,
                                         const LearningGainFunction& gain,
                                         GroupingPolicy& policy);

/// Emits the flight recorder's kGroupGainSummary event for round `round`
/// from the per-group gains the round produced (soa::RoundIntrospection or
/// ApplyRound's group_gains_out; no-op when the recorder is inactive or
/// `group_gains` is empty). Shared by RunProcess and the
/// serving plane's resident cohorts (serve::Cohort) so black-box consumers
/// see one event vocabulary no matter which driver ran the round.
void RecordGroupGainSummary(int round, const std::vector<double>& group_gains);

}  // namespace tdg

#endif  // TDG_CORE_PROCESS_H_
