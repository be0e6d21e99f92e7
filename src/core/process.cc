#include "core/process.h"

#include <algorithm>
#include <utility>

#include "core/soa.h"
#include "obs/obs.h"
#include "util/string_util.h"

namespace tdg {

util::StatusOr<ProcessResult> RunProcess(const SkillVector& initial_skills,
                                         const ProcessConfig& config,
                                         const LearningGainFunction& gain,
                                         GroupingPolicy& policy) {
  TDG_RETURN_IF_ERROR(ValidatePolicyArguments(initial_skills,
                                              config.num_groups));
  if (config.num_rounds < 0) {
    return util::Status::InvalidArgument(util::StrFormat(
        "num_rounds must be >= 0, got %d", config.num_rounds));
  }

  TDG_ZONE(obs::Zone::kProcessRun);
  TDG_OBS_COUNTER_ADD("process/runs", 1);

  // Policies with a closed-form layout run the fused SoA round: one sort,
  // bitwise-identical results (soa.h). With record_history the round's
  // Grouping comes out of the kernel as a pure extra output
  // (soa::RoundIntrospection::grouping), so history costs no second path.
  const PolicyKernelKind kind = policy.kernel_kind();
  const bool fused = kind != PolicyKernelKind::kGeneric;

  ProcessResult result;
  result.initial_skills = initial_skills;
  SkillVector skills = initial_skills;
  result.round_gains.reserve(config.num_rounds);

  // Flight-recorder introspection (obs/flight_recorder.h): when the black
  // box is recording, each round additionally reports its objective, the
  // membership churn vs the previous round, and a per-group gain summary.
  // All of it flows through pure extra outputs (soa::RoundIntrospection /
  // ApplyRound's group_gains_out), so recorded and unrecorded runs are
  // bitwise identical; when neither the recorder nor the history needs
  // them, they are not computed.
  const bool blackbox = obs::FlightRecorder::Global().active();
  soa::RoundIntrospection introspection;
  std::vector<int> previous_group_of;
  if (blackbox) {
    TDG_BLACKBOX(obs::BlackboxEventType::kProcessStart,
                 static_cast<double>(initial_skills.size()),
                 static_cast<double>(config.num_groups),
                 static_cast<double>(config.num_rounds),
                 config.mode == InteractionMode::kStar ? 0.0 : 1.0,
                 fused ? 1.0 : 0.0);
  }

  for (int t = 0; t < config.num_rounds; ++t) {
    TDG_ZONE(obs::Zone::kProcessRound);
    double round_gain;
    RoundRecord record;
    if (fused) {
      introspection.grouping =
          config.record_history ? &record.grouping : nullptr;
      auto gain_or = soa::DyGroupsRound(
          kind == PolicyKernelKind::kDyGroupsStar
              ? soa::DyGroupsLayout::kStarBlocks
              : soa::DyGroupsLayout::kRoundRobin,
          config.mode, gain, skills, config.num_groups,
          soa::ThreadLocalArena(),
          blackbox || config.record_history ? &introspection : nullptr);
      if (!gain_or.ok()) return gain_or.status();
      round_gain = gain_or.value();
    } else {
      TDG_ASSIGN_OR_RETURN(record.grouping,
                           policy.FormGroups(skills, config.num_groups));
      TDG_RETURN_IF_ERROR(
          record.grouping.ValidateEquiSized(static_cast<int>(skills.size())));
      auto gain_or =
          ApplyRound(config.mode, record.grouping, gain, skills,
                     blackbox ? &introspection.group_gains : nullptr);
      if (!gain_or.ok()) return gain_or.status();
      round_gain = gain_or.value();

      if (blackbox) {
        introspection.group_of =
            record.grouping.Assignment(static_cast<int>(skills.size()));
      }
    }
    if (config.record_history) {
      record.gain = round_gain;
      record.skills_after = skills;
      result.history.push_back(std::move(record));
    }

    TDG_OBS_COUNTER_ADD("process/rounds", 1);
    TDG_OBS_HISTOGRAM_RECORD("process/round_gain", round_gain);
    TDG_OBS_HISTOGRAM_RECORD(
        "process/round_mean_skill_delta",
        round_gain / static_cast<double>(skills.size()));

    result.round_gains.push_back(round_gain);
    result.total_gain += round_gain;

    if (blackbox) {
      TDG_BLACKBOX(obs::BlackboxEventType::kRoundEnd,
                   static_cast<double>(t), round_gain, result.total_gain);
      RecordGroupGainSummary(t, introspection.group_gains);
      if (t > 0 && previous_group_of.size() == introspection.group_of.size()) {
        int64_t moved = 0;
        for (std::size_t i = 0; i < introspection.group_of.size(); ++i) {
          if (introspection.group_of[i] != previous_group_of[i]) ++moved;
        }
        TDG_BLACKBOX(obs::BlackboxEventType::kGroupChurn,
                     static_cast<double>(t), static_cast<double>(moved),
                     static_cast<double>(introspection.group_of.size()));
      }
      previous_group_of = introspection.group_of;
    }
  }
  result.final_skills = std::move(skills);
  return result;
}

void RecordGroupGainSummary(int round,
                            const std::vector<double>& group_gains) {
  if (group_gains.empty()) return;
  if (!obs::FlightRecorder::Global().active()) return;
  double min_gain = group_gains[0];
  double max_gain = min_gain;
  double sum = 0.0;
  for (double g : group_gains) {
    min_gain = std::min(min_gain, g);
    max_gain = std::max(max_gain, g);
    sum += g;
  }
  TDG_BLACKBOX(obs::BlackboxEventType::kGroupGainSummary,
               static_cast<double>(round),
               static_cast<double>(group_gains.size()), min_gain,
               sum / static_cast<double>(group_gains.size()), max_gain);
}

}  // namespace tdg
