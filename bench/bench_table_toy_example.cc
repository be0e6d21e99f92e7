// §II/§III worked example: n = 9 students with skills 0.1..0.9, k = 3
// groups, r = 0.5, 3 rounds. Reproduces all three traces from the paper —
// an arbitrary locally-optimal star sequence (total gain 2.4),
// DyGroups-Star (2.55) and DyGroups-Clique (2.334375) — digit for digit.

#include <algorithm>

#include "bench_common.h"

namespace {

tdg::SkillVector ToySkills() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
}

void PrintTrace(const char* title, const tdg::ProcessResult& result) {
  std::printf("%s\n", title);
  for (size_t t = 0; t < result.history.size(); ++t) {
    const auto& record = result.history[t];
    std::printf("  round %zu groups: ", t + 1);
    for (const auto& group : record.grouping.groups) {
      std::vector<double> values;
      const auto& before =
          (t == 0) ? result.initial_skills : result.history[t - 1].skills_after;
      for (int id : group) values.push_back(before[id]);
      std::sort(values.begin(), values.end(), std::greater<>());
      std::printf("[");
      for (size_t i = 0; i < values.size(); ++i) {
        std::printf("%s%g", i ? "," : "", values[i]);
      }
      std::printf("] ");
    }
    std::printf(" LG = %g\n", record.gain);
  }
  std::printf("  total learning gain: %.6f\n\n", result.total_gain);
}

}  // namespace

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader("Toy example traces",
                          "ICDE'21 §II/§III worked example (n=9, k=3, "
                          "r=0.5, 3 rounds)");
  tdg::LinearGain gain(0.5);
  tdg::ProcessConfig config;
  config.num_groups = 3;
  config.num_rounds = 3;

  config.mode = tdg::InteractionMode::kStar;
  tdg::DyGroupsStarPolicy star;
  tdg::util::Stopwatch star_watch;
  auto star_result = tdg::RunProcess(ToySkills(), config, gain, star);
  star_watch.Pause();
  TDG_CHECK(star_result.ok());
  tdg::obs::GlobalBenchReporter().RecordRep(
      "trace/star", static_cast<double>(star_watch.TotalMicros()),
      star_result->total_gain);
  PrintTrace("DyGroups-Star (paper total: 2.55):", star_result.value());

  config.mode = tdg::InteractionMode::kClique;
  tdg::DyGroupsCliquePolicy clique;
  tdg::util::Stopwatch clique_watch;
  auto clique_result = tdg::RunProcess(ToySkills(), config, gain, clique);
  clique_watch.Pause();
  TDG_CHECK(clique_result.ok());
  tdg::obs::GlobalBenchReporter().RecordRep(
      "trace/clique", static_cast<double>(clique_watch.TotalMicros()),
      clique_result->total_gain);
  PrintTrace("DyGroups-Clique (paper total: 2.334375):",
             clique_result.value());

  TDG_CHECK(std::abs(star_result->total_gain - 2.55) < 1e-12);
  TDG_CHECK(std::abs(clique_result->total_gain - 2.334375) < 1e-12);
  std::printf("both totals match the paper exactly.\n");
  return harness.Finish();
}
