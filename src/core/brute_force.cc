#include "core/brute_force.h"

#include <algorithm>
#include <cmath>

#include "core/policy.h"
#include "obs/obs.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/parallel_for.h"

namespace tdg {
namespace {

// Recursive symmetry-broken enumeration. `current` holds the partially
// built groups; the lowest unplaced id is forced into the first group that
// is not yet full among groups it may start/join:
//   - it may join any already-open non-full group, or
//   - it opens the next (first empty) group.
void EnumerateRecursive(int n, int group_size,
                        std::vector<std::vector<int>>& current, int next_id,
                        std::vector<Grouping>& out) {
  if (next_id == n) {
    out.emplace_back(current);
    return;
  }
  bool opened_new_group = false;
  for (auto& group : current) {
    if (group.empty()) {
      // Opening the second empty group would duplicate a partition already
      // produced via the first; only the first empty group is used.
      if (opened_new_group) break;
      opened_new_group = true;
      group.push_back(next_id);
      EnumerateRecursive(n, group_size, current, next_id + 1, out);
      group.pop_back();
      break;  // all later groups are also empty
    }
    if (static_cast<int>(group.size()) < group_size) {
      group.push_back(next_id);
      EnumerateRecursive(n, group_size, current, next_id + 1, out);
      group.pop_back();
    }
  }
}

}  // namespace

util::StatusOr<double> CountEquiSizedGroupings(int n, int k) {
  if (k < 1 || n < k || n % k != 0) {
    return util::Status::InvalidArgument(util::StrFormat(
        "cannot partition %d members into %d equi-sized groups", n, k));
  }
  int t = n / k;
  double log_count = std::lgamma(n + 1.0) - k * std::lgamma(t + 1.0) -
                     std::lgamma(k + 1.0);
  return std::exp(log_count);
}

util::StatusOr<std::vector<Grouping>> EnumerateEquiSizedGroupings(int n,
                                                                  int k) {
  TDG_ASSIGN_OR_RETURN(double count, CountEquiSizedGroupings(n, k));
  if (count > 5e6) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%g groupings of %d members into %d groups is too many to enumerate",
        count, n, k));
  }
  std::vector<Grouping> out;
  out.reserve(static_cast<size_t>(count));
  std::vector<std::vector<int>> current(k);
  EnumerateRecursive(n, n / k, current, 0, out);
  return out;
}

namespace {

// One shard of the sequence space: every sequence extending `prefix`.
// Shards are indexed in enumeration (lexicographic) order, which is the
// serial solver's traversal order.
struct SequenceShard {
  std::vector<int> prefix;
  SkillVector skills;
  double gain_so_far = 0.0;
};

// Result of exhausting one shard: its lexicographically-first maximum.
struct ShardResult {
  bool found = false;
  double best_gain = 0.0;
  std::vector<int> best_choice;
  double sequences_explored = 0;
};

struct ShardSearcher {
  const std::vector<Grouping>* groupings = nullptr;
  InteractionMode mode = InteractionMode::kStar;
  const LearningGainFunction* gain = nullptr;
  int num_rounds = 0;
  std::vector<int> choice;
  ShardResult result;

  // Depth-first enumeration in ascending grouping-index order — identical
  // to the classic serial search. `skills` is the pre-round state at depth
  // `round`; `gain_so_far` the accumulated LG.
  void Search(int round, SkillVector& skills, double gain_so_far) {
    if (round == num_rounds) {
      result.sequences_explored += 1;
      if (!result.found || gain_so_far > result.best_gain) {
        result.found = true;
        result.best_gain = gain_so_far;
        result.best_choice = choice;
      }
      return;
    }
    for (size_t i = 0; i < groupings->size(); ++i) {
      SkillVector next = skills;
      auto round_gain = ApplyRound(mode, (*groupings)[i], *gain, next);
      TDG_CHECK(round_gain.ok()) << round_gain.status();
      choice[round] = static_cast<int>(i);
      Search(round + 1, next, gain_so_far + round_gain.value());
    }
  }
};

}  // namespace

util::StatusOr<BruteForceResult> SolveTdgBruteForce(
    const SkillVector& skills, int num_groups, int num_rounds,
    InteractionMode mode, const LearningGainFunction& gain,
    const BruteForceOptions& options) {
  TDG_RETURN_IF_ERROR(ValidatePolicyArguments(skills, num_groups));
  if (num_rounds < 0) {
    return util::Status::InvalidArgument("num_rounds must be >= 0");
  }
  // Coordination self time (enumeration, sharding, result selection); the
  // per-shard searches attribute separately from their worker threads.
  TDG_ZONE(obs::Zone::kBruteForceSearch);
  int n = static_cast<int>(skills.size());
  TDG_ASSIGN_OR_RETURN(double count, CountEquiSizedGroupings(n, num_groups));
  double sequences = std::pow(count, static_cast<double>(num_rounds));
  if (sequences > options.max_sequences) {
    return util::Status::InvalidArgument(util::StrFormat(
        "brute force would explore %g sequences, budget is %g", sequences,
        options.max_sequences));
  }
  TDG_ASSIGN_OR_RETURN(std::vector<Grouping> groupings,
                       EnumerateEquiSizedGroupings(n, num_groups));

  int num_threads = std::max(options.num_threads, 1);

  // Shard the sequence space by its first rounds, expanded sequentially in
  // enumeration order (serial solves keep the single root shard).
  std::vector<SequenceShard> shards;
  {
    SequenceShard root;
    root.skills = skills;
    shards.push_back(std::move(root));
  }
  const size_t target_shards =
      num_threads > 1 ? static_cast<size_t>(4 * num_threads) : 1;
  int shard_depth = 0;
  while (shard_depth < num_rounds && shards.size() < target_shards) {
    std::vector<SequenceShard> next;
    next.reserve(shards.size() * groupings.size());
    for (SequenceShard& shard : shards) {
      for (size_t i = 0; i < groupings.size(); ++i) {
        SequenceShard expanded;
        expanded.prefix = shard.prefix;
        expanded.prefix.push_back(static_cast<int>(i));
        expanded.skills = shard.skills;
        auto round_gain =
            ApplyRound(mode, groupings[i], gain, expanded.skills);
        TDG_CHECK(round_gain.ok()) << round_gain.status();
        expanded.gain_so_far = shard.gain_so_far + round_gain.value();
        next.push_back(std::move(expanded));
      }
    }
    shards = std::move(next);
    ++shard_depth;
  }

  std::vector<ShardResult> results(shards.size());
  util::ParallelFor(num_threads, static_cast<int>(shards.size()), [&](int t) {
    TDG_ZONE(obs::Zone::kBruteForceShard);
    ShardSearcher searcher;
    searcher.groupings = &groupings;
    searcher.mode = mode;
    searcher.gain = &gain;
    searcher.num_rounds = num_rounds;
    searcher.choice.assign(num_rounds, 0);
    std::copy(shards[t].prefix.begin(), shards[t].prefix.end(),
              searcher.choice.begin());
    SkillVector working = shards[t].skills;
    searcher.Search(static_cast<int>(shards[t].prefix.size()), working,
                    shards[t].gain_so_far);
    results[t] = std::move(searcher.result);
  });

  // Deterministic selection: shards in enumeration order, strict
  // improvement — the serial "lexicographically first maximum wins" rule.
  BruteForceResult result;
  bool found = false;
  double best_gain = -1.0;
  const std::vector<int>* best_choice = nullptr;
  for (const ShardResult& shard : results) {
    result.sequences_explored += shard.sequences_explored;
    if (shard.found && (!found || shard.best_gain > best_gain)) {
      found = true;
      best_gain = shard.best_gain;
      best_choice = &shard.best_choice;
    }
  }
  result.best_total_gain = found ? best_gain : 0.0;
  result.subtree_tasks = static_cast<long long>(shards.size());
  result.threads_used = num_threads;
  result.best_sequence.reserve(num_rounds);
  if (best_choice != nullptr) {
    for (int idx : *best_choice) {
      result.best_sequence.push_back(groupings[idx]);
    }
  }
  TDG_OBS_COUNTER_ADD(
      "solver/brute_force/sequences_explored",
      static_cast<int64_t>(result.sequences_explored));
  TDG_OBS_COUNTER_ADD("solver/brute_force/subtree_tasks",
                      result.subtree_tasks);
  return result;
}

}  // namespace tdg
