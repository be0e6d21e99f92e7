// Ablation (paper §VII "bi-criteria optimization ... where both affinity
// and skill evolves across rounds"): sweeps the affinity weight lambda in
// the combined round objective LG + lambda * AF and reports the resulting
// learning-gain / within-group-affinity tradeoff, plus how the affinity
// state evolves over the rounds.

#include "bench_common.h"
#include "core/affinity.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  tdg::bench::Harness harness(argc, argv);
  tdg::bench::PrintHeader(
      "Ablation: bi-criteria gain/affinity grouping",
      "Paper §VII extension; star mode, n=200, k=5, alpha=5, r=0.5, "
      "planted-community affinities");

  constexpr int kN = 200;
  constexpr int kGroups = 5;
  constexpr int kRounds = 5;
  constexpr int kCommunitySize = 20;
  tdg::random::Rng skills_rng(42);
  tdg::SkillVector skills = tdg::random::GenerateSkills(
      skills_rng, tdg::random::SkillDistribution::kLogNormal, kN);
  tdg::LinearGain gain(0.5);

  // Planted social circles: high affinity inside a member's community,
  // low across. (Uniform random affinities make every grouping look alike
  // in expectation, hiding the tradeoff.)
  auto make_affinity = [&]() {
    tdg::random::Rng noise_rng(7);
    tdg::AffinityMatrix affinity(kN);
    for (int i = 0; i < kN; ++i) {
      for (int j = i + 1; j < kN; ++j) {
        bool same_community = (i / kCommunitySize) == (j / kCommunitySize);
        double base = same_community ? 0.9 : 0.05;
        affinity.set(i, j, base + 0.05 * noise_rng.NextDouble());
      }
    }
    return affinity;
  };

  // Normalize lambda by the seed grouping's gain/affinity scale so the
  // sweep actually spans "gain only" to "affinity dominant" regardless of
  // the population's units: lambda_effective = lambda * LG0 / AF0.
  double scale;
  {
    tdg::AffinityMatrix affinity = make_affinity();
    auto seed_grouping = tdg::DyGroupsStarLocal(skills, kGroups);
    TDG_CHECK(seed_grouping.ok());
    double lg0 = tdg::EvaluateRoundGain(tdg::InteractionMode::kStar,
                                        seed_grouping.value(), gain, skills)
                     .value();
    double af0 = tdg::GroupingAffinity(seed_grouping.value(), affinity);
    scale = lg0 / std::max(af0, 1e-9);
  }

  tdg::util::TablePrinter table({"lambda (xLG0/AF0)", "total learning gain",
                                 "mean per-round within-group affinity",
                                 "final mean affinity (evolved)"});
  for (double lambda : {0.0, 0.1, 0.5, 2.0, 10.0}) {
    tdg::obs::ScopedBenchRep rep(
        tdg::obs::GlobalBenchReporter(),
        "lambda=" + tdg::util::FormatDouble(lambda, 1));
    tdg::BiCriteriaOptions options;
    options.lambda = lambda * scale;
    options.refinement_iterations = 5000;
    tdg::AffinityDyGroupsPolicy policy(
        tdg::InteractionMode::kStar, gain,
        make_affinity(), 11, options);

    tdg::ProcessConfig config;
    config.num_groups = kGroups;
    config.num_rounds = kRounds;
    config.mode = tdg::InteractionMode::kStar;
    config.record_history = true;

    // RunProcess drives the policy; it evolves its own affinity matrix
    // after every round it forms.
    tdg::SkillVector working = skills;
    double total_gain = 0.0;
    double total_affinity = 0.0;
    for (int t = 0; t < kRounds; ++t) {
      auto grouping = policy.FormGroups(working, kGroups);
      TDG_CHECK(grouping.ok()) << grouping.status();
      auto round_gain = tdg::ApplyRound(tdg::InteractionMode::kStar,
                                        grouping.value(), gain, working);
      TDG_CHECK(round_gain.ok());
      total_gain += round_gain.value();
      total_affinity += policy.last_affinity();
    }
    rep.set_objective(total_gain);

    table.AddRow({tdg::util::FormatDouble(lambda, 1),
                  tdg::util::FormatDouble(total_gain, 1),
                  tdg::util::FormatDouble(total_affinity / kRounds, 1),
                  tdg::util::FormatDouble(
                      policy.affinity().MeanAffinity(), 4)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("(expected: learning gain is maximal at lambda = 0 and "
              "decreases as lambda buys within-group affinity — the "
              "bi-criteria tradeoff the paper proposes studying)\n");
  return harness.Finish();
}
