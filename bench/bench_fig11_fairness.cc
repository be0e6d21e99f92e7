// Figure 11: inequality of the skill distribution, DyGroups-Star vs
// RANDOM-ASSIGNMENT, r = 0.1.
// (a) ratio of CV and Gini (DyGroups / Random) vs alpha — expected > 1 and
//     widening with alpha (DyGroups tolerates more inequality);
// (b) raw CV and Gini for both methods vs alpha — both fall as skills
//     converge toward the (invariant) top skill.

#include "bench_common.h"
#include "stats/inequality.h"

namespace tdg::bench {
namespace {

struct InequalityPoint {
  double cv = 0;
  double gini = 0;
};

InequalityPoint FinalInequality(const std::string& policy_name, int alpha,
                                uint64_t seed) {
  SweepConfig config;
  config.r = 0.1;  // paper's fairness experiment uses r = 0.1
  config.alpha = alpha;
  config.runs = 3;
  config.seed = seed;

  InequalityPoint point;
  for (int run = 0; run < config.runs; ++run) {
    random::Rng rng(config.seed + static_cast<uint64_t>(run) * 101);
    SkillVector skills =
        random::GenerateSkills(rng, config.distribution, config.n);
    auto policy = baselines::MakePolicy(
        policy_name, config.seed + static_cast<uint64_t>(run));
    TDG_CHECK(policy.ok());
    LinearGain gain(config.r);
    ProcessConfig process;
    process.num_groups = config.k;
    process.num_rounds = alpha;
    process.mode = InteractionMode::kStar;
    process.record_history = false;
    auto result = RunProcess(skills, process, gain, **policy);
    TDG_CHECK(result.ok()) << result.status();
    point.cv += stats::CoefficientOfVariation(result->final_skills);
    point.gini += stats::GiniIndex(result->final_skills);
  }
  point.cv /= config.runs;
  point.gini /= config.runs;
  return point;
}

}  // namespace
}  // namespace tdg::bench

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader(
      "Inequality relative to Random-Assignment",
      "ICDE'21 Figure 11 (a: CV & Gini ratios, b: raw CV & Gini); "
      "star mode, log-normal, n=10000, k=5, r=0.1");

  std::vector<double> alphas = {2, 4, 8, 16, 32, 64};
  std::vector<tdg::bench::InequalityPoint> dygroups;
  std::vector<tdg::bench::InequalityPoint> random_points;
  for (double alpha : alphas) {
    dygroups.push_back(tdg::bench::FinalInequality(
        "DyGroups-Star", static_cast<int>(alpha), 42));
    random_points.push_back(tdg::bench::FinalInequality(
        "Random-Assignment", static_cast<int>(alpha), 42));
  }

  std::printf("--- Fig 11(a): inequality ratios over Random-Assignment ---\n");
  tdg::io::ExperimentSeries ratios;
  ratios.x_label = "alpha";
  ratios.series_names = {"CV-DyGroups-Star/Random",
                         "Gini-DyGroups-Star/Random"};
  ratios.x_values = alphas;
  ratios.values.resize(2);
  for (size_t i = 0; i < alphas.size(); ++i) {
    ratios.values[0].push_back(dygroups[i].cv / random_points[i].cv);
    ratios.values[1].push_back(dygroups[i].gini / random_points[i].gini);
  }
  harness.EmitSeries(ratios, "a");

  std::printf("--- Fig 11(b): raw inequality measures ---\n");
  tdg::io::ExperimentSeries raw;
  raw.x_label = "alpha";
  raw.series_names = {"CV-DyGroups-Star", "CV-Random-Assignment",
                      "Gini-DyGroups-Star", "Gini-Random-Assignment"};
  raw.x_values = alphas;
  raw.values.resize(4);
  for (size_t i = 0; i < alphas.size(); ++i) {
    raw.values[0].push_back(dygroups[i].cv);
    raw.values[1].push_back(random_points[i].cv);
    raw.values[2].push_back(dygroups[i].gini);
    raw.values[3].push_back(random_points[i].gini);
  }
  harness.EmitSeries(raw, "b", 6);
  return harness.Finish();
}
