#include "sim/amt_experiment.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "baselines/registry.h"
#include "obs/obs.h"
#include "random/distributions.h"
#include "sim/assessment.h"
#include "stats/descriptive.h"
#include "util/string_util.h"

namespace tdg::sim {
namespace {

double SampleRate(const AmtConfig& config, random::Rng& rng) {
  double rate = config.learning_rate_mean +
                config.learning_rate_stddev * random::StandardNormal(rng);
  return std::clamp(rate, 0.0, 1.0);
}

// Applies one round of latent learning to the workers of one group.
// `members` indexes into `roster` (this round's grouped workers). The
// interaction structure follows the configured mode on *observed* skills
// (who the group believes knows most) while actual knowledge transfer works
// on latent skills with per-interaction noisy rates.
void ApplyLatentLearning(const std::vector<int>& members,
                         std::vector<SimulatedWorker*>& roster,
                         const AmtConfig& config, random::Rng& rng) {
  // Rank members by observed skill, descending (tie: id).
  std::vector<int> ranked = members;
  std::sort(ranked.begin(), ranked.end(), [&roster](int a, int b) {
    if (roster[a]->observed_skill != roster[b]->observed_skill) {
      return roster[a]->observed_skill > roster[b]->observed_skill;
    }
    return roster[a]->id < roster[b]->id;
  });
  // Pre-round latent snapshot (simultaneous semantics, as in the model).
  std::vector<double> latent_before(ranked.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    latent_before[i] = roster[ranked[i]]->latent_skill;
  }
  for (size_t i = 1; i < ranked.size(); ++i) {
    double gain = 0.0;
    if (config.mode == InteractionMode::kStar) {
      gain = SampleRate(config, rng) *
             std::max(0.0, latent_before[0] - latent_before[i]);
    } else {
      // Clique: average of positive pairwise gains from higher-observed
      // peers, mirroring Eq. 2.
      double total = 0.0;
      for (size_t j = 0; j < i; ++j) {
        total += SampleRate(config, rng) *
                 std::max(0.0, latent_before[j] - latent_before[i]);
      }
      gain = total / static_cast<double>(i);
    }
    SimulatedWorker* worker = roster[ranked[i]];
    worker->latent_skill = std::min(1.0, worker->latent_skill + gain);
  }
}

}  // namespace

util::StatusOr<AmtPopulationResult> RunAmtPopulation(
    std::vector<SimulatedWorker> workers, GroupingPolicy& policy,
    const AmtConfig& config, random::Rng& rng) {
  if (config.group_size < 2) {
    return util::Status::InvalidArgument("group_size must be >= 2");
  }
  if (config.num_rounds < 1) {
    return util::Status::InvalidArgument("num_rounds must be >= 1");
  }

  TDG_ZONE(obs::Zone::kAmtPopulation);

  AmtPopulationResult result;
  result.policy_name = std::string(policy.name());
  result.initial_size = static_cast<int>(workers.size());
  result.per_worker_gain.assign(workers.size(), 0.0);

  // PRE-QUALIFICATION: assess everyone.
  AssessPopulation(workers, config.num_questions, rng);
  {
    std::vector<double> observed;
    for (const auto& w : workers) observed.push_back(w.observed_skill);
    result.pre_qualification_mean = stats::Mean(observed);
  }

  RetentionModel retention(config.retention);

  for (int round = 1; round <= config.num_rounds; ++round) {
    TDG_ZONE(obs::Zone::kAmtRound);
    // Active roster.
    std::vector<SimulatedWorker*> roster;
    for (auto& w : workers) {
      if (w.active) roster.push_back(&w);
    }
    int groupable = static_cast<int>(roster.size()) / config.group_size *
                    config.group_size;
    if (groupable < config.group_size) break;

    // A random excess sits this round out.
    for (int i = static_cast<int>(roster.size()) - 1; i > 0; --i) {
      int j =
          static_cast<int>(rng.NextBounded(static_cast<uint64_t>(i + 1)));
      std::swap(roster[i], roster[j]);
    }
    roster.resize(groupable);

    AmtRound record;
    record.round = round;
    record.participants = groupable;
    record.num_groups = groupable / config.group_size;

    // GROUP-FORMATION on observed skills.
    SkillVector observed(groupable);
    for (int i = 0; i < groupable; ++i) observed[i] = roster[i]->observed_skill;
    record.mean_observed_before = stats::Mean(observed);
    TDG_ASSIGN_OR_RETURN(Grouping grouping,
                         policy.FormGroups(observed, record.num_groups));
    TDG_RETURN_IF_ERROR(grouping.ValidateEquiSized(groupable));

    // Peer interaction: latent skills improve.
    std::vector<double> latent_before(groupable);
    for (int i = 0; i < groupable; ++i) {
      latent_before[i] = roster[i]->latent_skill;
    }
    for (const auto& members : grouping.groups) {
      ApplyLatentLearning(members, roster, config, rng);
    }
    for (int i = 0; i < groupable; ++i) {
      record.aggregate_latent_gain +=
          roster[i]->latent_skill - latent_before[i];
    }

    // POST-ASSESSMENT.
    std::vector<double> pre(groupable), post(groupable);
    for (int i = 0; i < groupable; ++i) {
      pre[i] = roster[i]->observed_skill;
      roster[i]->observed_skill =
          AssessWorker(*roster[i], config.num_questions, rng);
      post[i] = roster[i]->observed_skill;
    }
    record.mean_observed_after = stats::Mean(post);
    record.aggregate_observed_gain = stats::Sum(post) - stats::Sum(pre);
    result.total_observed_gain += record.aggregate_observed_gain;

    // Retention: grouped workers stay with probability rising in their
    // personal *latent* gain (a worker's satisfaction tracks what they
    // actually learned, not the quiz noise); everyone else faces the base
    // rate. Reported gains remain the observed (assessed) ones — the only
    // quantity a real deployment can see.
    for (int i = 0; i < groupable; ++i) {
      result.per_worker_gain[roster[i]->id] += post[i] - pre[i];
      double latent_gain = roster[i]->latent_skill - latent_before[i];
      if (!retention.SurvivesRound(latent_gain, rng)) {
        roster[i]->active = false;
      }
    }
    for (auto& w : workers) {
      if (!w.active) continue;
      bool grouped = std::find(roster.begin(), roster.end(), &w) !=
                     roster.end();
      if (!grouped && !retention.SurvivesRound(0.0, rng)) {
        w.active = false;
      }
    }
    record.active_after_retention = static_cast<int>(
        std::count_if(workers.begin(), workers.end(),
                      [](const SimulatedWorker& w) { return w.active; }));
    record.retention_fraction = static_cast<double>(
                                    record.active_after_retention) /
                                static_cast<double>(result.initial_size);
    TDG_OBS_COUNTER_ADD("amt/rounds", 1);
    TDG_OBS_COUNTER_ADD("amt/workers_grouped", groupable);
    TDG_OBS_HISTOGRAM_RECORD("amt/round_observed_gain",
                             record.aggregate_observed_gain);
    TDG_OBS_GAUGE_SET("amt/retention_fraction", record.retention_fraction);
    result.rounds.push_back(record);
  }
  return result;
}

util::StatusOr<ExperimentResult> RunExperiment(
    const ExperimentConfig& config) {
  if (config.policy_names.empty()) {
    return util::Status::InvalidArgument("no policies specified");
  }
  int num_populations = static_cast<int>(config.policy_names.size());
  if (config.total_workers % num_populations != 0) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%d workers cannot be split into %d equal populations",
        config.total_workers, num_populations));
  }

  TDG_ZONE(obs::Zone::kAmtExperiment);

  random::Rng rng(config.seed);
  PopulationParams population_params = config.population;
  population_params.size = config.total_workers;
  std::vector<SimulatedWorker> pool = MakePopulation(population_params, rng);
  std::vector<std::vector<SimulatedWorker>> populations =
      SplitMatchedPopulations(pool, num_populations, rng);

  ExperimentResult result;
  for (int i = 0; i < num_populations; ++i) {
    TDG_ASSIGN_OR_RETURN(
        std::unique_ptr<GroupingPolicy> policy,
        baselines::MakePolicy(config.policy_names[i], config.seed + i));
    TDG_ASSIGN_OR_RETURN(
        AmtPopulationResult population_result,
        RunAmtPopulation(populations[i], *policy, config.amt, rng));
    result.populations.push_back(std::move(population_result));
  }

  // Observation II: DyGroups (population 0) vs each baseline.
  result.first_vs_other.resize(num_populations);
  for (int i = 1; i < num_populations; ++i) {
    auto test = stats::WelchTTest(result.populations[0].per_worker_gain,
                                  result.populations[i].per_worker_gain);
    if (test.ok()) result.first_vs_other[i] = test.value();
  }

  // Observation I: pooled per-worker gain CI at 75%.
  std::vector<double> pooled;
  for (const auto& population : result.populations) {
    pooled.insert(pooled.end(), population.per_worker_gain.begin(),
                  population.per_worker_gain.end());
  }
  auto ci = stats::MeanConfidenceInterval(pooled, 0.75);
  if (ci.ok()) result.pooled_gain_ci = ci.value();
  return result;
}

ExperimentConfig Experiment1Config(uint64_t seed) {
  ExperimentConfig config;
  config.total_workers = 64;
  config.policy_names = {"DyGroups-Star", "k-means"};
  config.amt.num_rounds = 3;
  config.seed = seed;
  return config;
}

ExperimentConfig Experiment2Config(uint64_t seed) {
  ExperimentConfig config;
  config.total_workers = 128;
  config.policy_names = {"DyGroups-Star", "k-means", "LPA",
                         "Percentile-Partitions"};
  config.amt.num_rounds = 2;
  config.seed = seed;
  return config;
}

}  // namespace tdg::sim
