#include "baselines/simulated_annealing.h"

#include <cmath>
#include <numeric>

#include "core/objective.h"
#include "obs/obs.h"
#include "util/logging.h"

namespace tdg::baselines {
namespace {

// Sums cached per-group gains in group order, substituting `new_gain_a` /
// `new_gain_b` for the two swapped groups. Accumulating left-to-right over
// groups starting from 0.0 reproduces EvaluateRoundGain's accumulation
// bitwise (ApplyRound adds per-group gains in exactly this order; groups of
// size 1 contribute +0.0, which is a floating-point identity on the
// non-negative partial sums involved).
double SumGroupGains(const std::vector<double>& group_gains, int group_a,
                     double new_gain_a, int group_b, double new_gain_b) {
  double total = 0.0;
  for (size_t g = 0; g < group_gains.size(); ++g) {
    if (static_cast<int>(g) == group_a) {
      total += new_gain_a;
    } else if (static_cast<int>(g) == group_b) {
      total += new_gain_b;
    } else {
      total += group_gains[g];
    }
  }
  return total;
}

}  // namespace

SimulatedAnnealingPolicy::SimulatedAnnealingPolicy(
    InteractionMode mode, const LearningGainFunction& gain, uint64_t seed,
    const SimulatedAnnealingOptions& options)
    : mode_(mode), gain_(gain), rng_(seed), options_(options) {}

util::StatusOr<Grouping> SimulatedAnnealingPolicy::FormGroups(
    const SkillVector& skills, int num_groups) {
  TDG_RETURN_IF_ERROR(ValidatePolicyArguments(skills, num_groups));
  // Self time here is the proposal loop and bookkeeping; the swap-delta and
  // round evaluations below carry their own nested zones.
  TDG_ZONE(obs::Zone::kAnneal);
  int n = static_cast<int>(skills.size());
  int group_size = n / num_groups;
  last_evaluations_ = 0;
  last_full_evaluations_ = 0;
  last_delta_evaluations_ = 0;

  // Random initial partition.
  std::vector<int> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    int j = static_cast<int>(rng_.NextBounded(static_cast<uint64_t>(i + 1)));
    std::swap(ids[i], ids[j]);
  }
  Grouping current;
  current.groups.resize(num_groups);
  for (int g = 0; g < num_groups; ++g) {
    current.groups[g].assign(ids.begin() + g * group_size,
                             ids.begin() + (g + 1) * group_size);
  }

  const bool use_delta = options_.delta_evaluation;
  auto objective = [&](const Grouping& grouping) {
    ++last_evaluations_;
    ++last_full_evaluations_;
    auto gain = EvaluateRoundGain(mode_, grouping, gain_, skills);
    TDG_CHECK(gain.ok()) << gain.status();
    return gain.value();
  };

  // Per-group gain cache for the delta path; totals are re-summed from it
  // in group order so they stay bitwise equal to full re-evaluation.
  std::vector<double> group_gains;
  double current_gain;
  if (use_delta) {
    group_gains.resize(num_groups);
    for (int g = 0; g < num_groups; ++g) {
      auto gain = EvaluateGroupGain(mode_, current.groups[g], gain_, skills);
      TDG_CHECK(gain.ok()) << gain.status();
      group_gains[g] = gain.value();
    }
    // The k group evaluations amount to one pass over the population.
    ++last_evaluations_;
    ++last_full_evaluations_;
    current_gain = SumGroupGains(group_gains, -1, 0.0, -1, 0.0);
  } else {
    current_gain = objective(current);
  }
  Grouping best = current;
  double best_gain = current_gain;
  // Temperature in units of the objective: scale by the initial gain so a
  // fixed schedule behaves consistently across instance sizes.
  double temperature =
      options_.initial_temperature * std::max(current_gain, 1e-9);

  for (int iteration = 0; iteration < options_.iterations; ++iteration) {
    if (num_groups < 2) break;  // nothing to swap across
    // Propose: swap one member between two distinct groups.
    int ga = static_cast<int>(rng_.NextBounded(num_groups));
    int gb = static_cast<int>(rng_.NextBounded(num_groups - 1));
    if (gb >= ga) ++gb;
    int ia = static_cast<int>(rng_.NextBounded(group_size));
    int ib = static_cast<int>(rng_.NextBounded(group_size));

    double proposed_gain;
    double new_gain_a = 0.0;
    double new_gain_b = 0.0;
    if (use_delta) {
      ++last_evaluations_;
      ++last_delta_evaluations_;
      auto swap_delta = EvaluateRoundGainDelta(
          mode_, current, gain_, skills, ga, ia, gb, ib, &group_gains[ga],
          &group_gains[gb]);
      TDG_CHECK(swap_delta.ok()) << swap_delta.status();
      new_gain_a = swap_delta->new_gain_a;
      new_gain_b = swap_delta->new_gain_b;
      proposed_gain =
          SumGroupGains(group_gains, ga, new_gain_a, gb, new_gain_b);
    } else {
      std::swap(current.groups[ga][ia], current.groups[gb][ib]);
      proposed_gain = objective(current);
    }

    double delta = proposed_gain - current_gain;
    bool accept =
        delta >= 0 ||
        rng_.NextDouble() < std::exp(delta / std::max(temperature, 1e-12));
    if (accept) {
      if (use_delta) {
        std::swap(current.groups[ga][ia], current.groups[gb][ib]);
        group_gains[ga] = new_gain_a;
        group_gains[gb] = new_gain_b;
      }
      current_gain = proposed_gain;
      if (current_gain > best_gain) {
        best_gain = current_gain;
        best = current;
      }
    } else if (!use_delta) {
      std::swap(current.groups[ga][ia], current.groups[gb][ib]);  // revert
    }
    temperature *= options_.cooling;
  }
  TDG_OBS_COUNTER_ADD("sa/full_evaluations", last_full_evaluations_);
  TDG_OBS_COUNTER_ADD("sa/delta_evaluations", last_delta_evaluations_);
  return best;
}

}  // namespace tdg::baselines
