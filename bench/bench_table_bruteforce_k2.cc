// §V-B3: "Star Interaction Mode with k = 2" — 1000 random instances with
// alpha in [1,4], n in {4,6,8}, skills ~ U[0,1]; in every instance
// DyGroups-Star must match the exponential BRUTE-FORCE optimum (Theorem 5).

#include "bench_common.h"
#include "core/brute_force.h"

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader(
      "Brute force vs DyGroups-Star, k = 2",
      "ICDE'21 §V-B3 (validates Theorem 5): 1000 random instances");

  tdg::random::Rng rng(20210419);
  constexpr int kInstances = 1000;
  int agreements = 0;
  double max_relative_gap = 0.0;
  tdg::util::Stopwatch stopwatch;
  for (int instance = 0; instance < kInstances; ++instance) {
    int n = 4 + 2 * static_cast<int>(rng.NextBounded(3));   // 4, 6, 8
    int alpha = 1 + static_cast<int>(rng.NextBounded(4));   // 1..4
    double r = 0.05 + 0.9 * rng.NextDouble();
    tdg::SkillVector skills = tdg::random::GenerateSkills(
        rng, tdg::random::SkillDistribution::kUniform, n);
    for (double& s : skills) s += 1e-9;

    tdg::LinearGain gain(r);
    auto brute = tdg::SolveTdgBruteForce(skills, 2, alpha,
                                         tdg::InteractionMode::kStar, gain);
    TDG_CHECK(brute.ok()) << brute.status();

    tdg::DyGroupsStarPolicy policy;
    tdg::ProcessConfig config;
    config.num_groups = 2;
    config.num_rounds = alpha;
    config.mode = tdg::InteractionMode::kStar;
    config.record_history = false;
    auto dygroups = tdg::RunProcess(skills, config, gain, policy);
    TDG_CHECK(dygroups.ok()) << dygroups.status();

    double gap = brute->best_total_gain - dygroups->total_gain;
    double relative =
        (brute->best_total_gain > 0) ? gap / brute->best_total_gain : 0.0;
    max_relative_gap = std::max(max_relative_gap, relative);
    if (relative < 1e-9) ++agreements;
  }

  std::printf("instances:        %d\n", kInstances);
  std::printf("agreements:       %d\n", agreements);
  std::printf("max relative gap: %.3g\n", max_relative_gap);
  std::printf("elapsed:          %.2f s\n", stopwatch.ElapsedSeconds());
  std::printf("(paper result: DyGroups-Star agrees with BRUTE-FORCE in "
              "1000/1000 runs)\n");
  TDG_CHECK_EQ(agreements, kInstances)
      << "Theorem 5 violated — investigate before publishing results";
  tdg::obs::GlobalBenchReporter().RecordRep(
      "theorem5/1000_instances",
      static_cast<double>(stopwatch.TotalMicros()),
      static_cast<double>(agreements));
  return harness.Finish();
}
