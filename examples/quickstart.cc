// Quickstart: the 60-second tour of the tdg library.
//
//   build/examples/example_quickstart
//
// Forms dynamic peer-learning groups for the paper's toy classroom (9
// students, 3 groups, learning rate 0.5) with DyGroups-Star, runs 3 rounds,
// and prints the per-round groupings and gains.

#include <cstdio>

#include "core/dygroups.h"
#include "core/process.h"
#include "util/flags.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  // No flags: a stray one is an error, not silently ignored.
  tdg::util::FlagParser flags;
  const tdg::util::Status parsed = flags.Parse(argc, argv, {});
  TDG_CHECK(parsed.ok()) << parsed;

  // 1. A population: one positive skill per participant.
  tdg::SkillVector skills = {0.1, 0.2, 0.3, 0.4, 0.5,
                             0.6, 0.7, 0.8, 0.9};

  // 2. A learning-gain function: linear f(Δ) = rΔ with r = 0.5.
  tdg::LinearGain gain(0.5);

  // 3. A grouping policy: DyGroups-Star (Algorithm 2 of the paper).
  tdg::DyGroupsStarPolicy policy;

  // 4. Run the α-round process (Algorithm 1).
  tdg::ProcessConfig config;
  config.num_groups = 3;                        // k
  config.num_rounds = 3;                        // α
  config.mode = tdg::InteractionMode::kStar;    // who learns from whom

  auto result = tdg::RunProcess(skills, config, gain, policy);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // 5. Inspect the outcome.
  for (size_t t = 0; t < result->history.size(); ++t) {
    const tdg::RoundRecord& round = result->history[t];
    std::printf("round %zu: grouping %s, learning gain %.4f\n", t + 1,
                round.grouping.ToString().c_str(), round.gain);
  }
  std::printf("total learning gain over %d rounds: %.4f\n",
              config.num_rounds, result->total_gain);
  std::printf("final skills:");
  for (double s : result->final_skills) std::printf(" %.4f", s);
  std::printf("\n");
  return 0;
}
