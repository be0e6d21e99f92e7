// Ablation (DESIGN.md §4): the Theorem-2 variance-maximizing tie-break.
// All three policies below produce *round-optimal* star groupings (top-k
// teachers, Theorem 1) and therefore tie on round 1; they differ only in
// how the remaining members are distributed:
//   DyGroups-Star  — maximum-variance blocks (Algorithm 2),
//   LPA            — minimum-variance assignment (weakest join the best),
//   RandomTieBreak — random assignment of the non-teachers.
// Over multiple rounds the variance tie-break wins (it is what makes
// Theorem 5 work): expect DyGroups >= RandomTieBreak >= LPA.

#include <numeric>

#include "baselines/lpa.h"
#include "bench_common.h"

namespace tdg::bench {
namespace {

// Round-optimal star grouping with a *random* split of the non-teachers.
class RandomTieBreakPolicy final : public GroupingPolicy {
 public:
  explicit RandomTieBreakPolicy(uint64_t seed) : rng_(seed) {}

  util::StatusOr<Grouping> FormGroups(const SkillVector& skills,
                                      int num_groups) override {
    TDG_RETURN_IF_ERROR(ValidatePolicyArguments(skills, num_groups));
    int n = static_cast<int>(skills.size());
    int group_size = n / num_groups;
    std::vector<int> sorted = SortedByskillDescending(skills);
    // Shuffle the non-teachers.
    for (int i = n - 1; i > num_groups; --i) {
      int j = num_groups +
              static_cast<int>(rng_.NextBounded(
                  static_cast<uint64_t>(i - num_groups + 1)));
      std::swap(sorted[i], sorted[j]);
    }
    Grouping grouping;
    grouping.groups.resize(num_groups);
    for (int g = 0; g < num_groups; ++g) {
      grouping.groups[g].push_back(sorted[g]);
    }
    int next = num_groups;
    for (int g = 0; g < num_groups; ++g) {
      for (int j = 0; j < group_size - 1; ++j) {
        grouping.groups[g].push_back(sorted[next++]);
      }
    }
    return grouping;
  }
  std::string_view name() const override { return "RandomTieBreak"; }

 private:
  random::Rng rng_;
};

double MeanGain(GroupingPolicy& policy, int n, int k, int alpha,
                uint64_t seed, int runs) {
  double total = 0.0;
  for (int run = 0; run < runs; ++run) {
    random::Rng rng(seed + run * 31);
    SkillVector skills = random::GenerateSkills(
        rng, random::SkillDistribution::kLogNormal, n);
    LinearGain gain(0.5);
    ProcessConfig config;
    config.num_groups = k;
    config.num_rounds = alpha;
    config.mode = InteractionMode::kStar;
    config.record_history = false;
    auto result = RunProcess(skills, config, gain, policy);
    TDG_CHECK(result.ok()) << result.status();
    total += result->total_gain;
  }
  return total / runs;
}

}  // namespace
}  // namespace tdg::bench

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader(
      "Ablation: variance-maximizing tie-break (Theorem 2)",
      "DESIGN.md §4; all policies are round-optimal (Theorem 1), only the "
      "tie-break differs. Star mode, log-normal, n=1000, k=2, r=0.5");

  std::vector<double> alphas = {1, 2, 3, 4, 6, 8, 12, 16};
  auto series = tdg::bench::SweepSeries(
      "alpha", alphas,
      {std::string("DyGroups-Star(max-variance)"),
       std::string("RandomTieBreak"), std::string("LPA(min-variance)")},
      [&](const std::string& name, double alpha) {
        constexpr int kN = 1000;
        constexpr int kK = 2;
        constexpr int kRuns = 5;
        if (name.find("DyGroups") != std::string::npos) {
          tdg::DyGroupsStarPolicy policy;
          return tdg::bench::MeanGain(policy, kN, kK,
                                      static_cast<int>(alpha), 7, kRuns);
        }
        if (name.find("RandomTieBreak") != std::string::npos) {
          tdg::bench::RandomTieBreakPolicy policy(11);
          return tdg::bench::MeanGain(policy, kN, kK,
                                      static_cast<int>(alpha), 7, kRuns);
        }
        tdg::baselines::LpaPolicy policy;
        return tdg::bench::MeanGain(policy, kN, kK, static_cast<int>(alpha),
                                    7, kRuns);
      });
  harness.EmitSeries(series, "", 2);
  std::printf("(expected: identical at alpha=1 — all are round-optimal — "
              "then DyGroups pulls ahead)\n");
  return harness.Finish();
}
