// Pins the instrumentation vocabulary: the name every recorded span id
// decodes to, and the perf-attribution domain names the kernels charge.
// Both are external contracts — span ids are on disk in flight-recorder
// dumps, and domain names are on /metrics, in --metrics_out files and in
// bench reports — so they must never drift.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "baselines/simulated_annealing.h"
#include "core/branch_bound.h"
#include "core/brute_force.h"
#include "core/grouping.h"
#include "core/interaction.h"
#include "core/learning_gain.h"
#include "core/objective.h"
#include "core/skills.h"
#include "core/soa.h"
#include "obs/obs.h"

namespace tdg {
namespace {

// Restores the profiling toggle on scope exit.
class ScopedProfiling {
 public:
  ScopedProfiling() : previous_(obs::ProfilingEnabled()) {
    obs::SetProfilingEnabled(true);
  }
  ~ScopedProfiling() { obs::SetProfilingEnabled(previous_); }

 private:
  bool previous_;
};

int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

SkillVector Skills(int n) {
  SkillVector skills(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    skills[i] = 1.0 + std::fmod(0.6180339887 * (i + 1) * (i + 3), 5.0);
  }
  return skills;
}

obs::BlackboxEvent SpanEvent(double id) {
  obs::BlackboxEvent event;
  event.type = obs::BlackboxEventType::kSpan;
  event.values[0] = id;
  return event;
}

TEST(ZoneTest, SpanIdsDecodeToTheirNames) {
  const std::vector<std::string> expected = {
      "span_0",
      "process/run",
      "process/round",
      "interaction/star_round",
      "interaction/clique_round",
      "sweep/run",
      "sweep/cell",
      "sweep/shard",
      "solver/branch_bound",
      "solver/brute_force",
      "amt/experiment",
      "amt/population",
      "amt/round",
      "span_13",
  };
  for (size_t id = 0; id < expected.size(); ++id) {
    EXPECT_EQ(obs::BlackboxEventLabel(SpanEvent(static_cast<double>(id))),
              expected[id])
        << "span id " << id;
  }
}

// A dump read from disk can carry any double in the span slot; only an
// integral id that some zone records gets a name.
TEST(ZoneTest, NonIntegralSpanIdsDecodeRaw) {
  EXPECT_EQ(obs::BlackboxEventLabel(SpanEvent(1.5)), "span_1.5");
  EXPECT_EQ(obs::BlackboxEventLabel(SpanEvent(4.25)), "span_4.25");
  EXPECT_EQ(obs::BlackboxEventLabel(SpanEvent(-1)), "span_-1");
  EXPECT_EQ(obs::BlackboxEventLabel(SpanEvent(256)), "span_256");
  EXPECT_EQ(obs::BlackboxEventLabel(SpanEvent(2.0)), "process/round");
}

TEST(ZoneTest, EveryPerfDomainIsChargedByItsKernel) {
  const std::vector<std::string> domains = {
      "core/skills/sort",
      "core/skills/deficits",
      "core/learning_gain/star",
      "core/theory/clique_prefix",
      "core/learning_gain/clique_naive",
      "core/objective/swap_delta",
      "baselines/sa/anneal",
      "core/branch_bound/search",
      "core/branch_bound/subtree",
      "core/brute_force/search",
      "core/brute_force/shard",
  };
  std::vector<int64_t> before;
  for (const std::string& domain : domains) {
    before.push_back(CounterValue("perf/" + domain + "/calls"));
  }
  {
    ScopedProfiling profiling;
    const LinearGain linear(0.5);
    const LogGain log_gain(0.5);
    const SkillVector skills = Skills(12);
    const Grouping grouping({{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}});

    SortedByskillDescending(skills);
    SkillDeficits(skills);
    for (const auto& [mode, gain] :
         {std::pair<InteractionMode, const LearningGainFunction*>{
              InteractionMode::kStar, &linear},
          {InteractionMode::kClique, &linear},
          {InteractionMode::kClique, &log_gain}}) {
      SkillVector round_skills = skills;
      ASSERT_TRUE(ApplyRound(mode, grouping, *gain, round_skills).ok());
    }
    ASSERT_TRUE(EvaluateRoundGainDelta(InteractionMode::kStar, grouping,
                                       linear, skills, 0, 1, 1, 2)
                    .ok());
    baselines::SimulatedAnnealingPolicy annealer(InteractionMode::kStar,
                                                 linear, /*seed=*/7);
    ASSERT_TRUE(annealer.FormGroups(skills, 2).ok());

    const SkillVector small = Skills(6);
    BranchBoundOptions bb_options;
    bb_options.num_threads = 2;
    ASSERT_TRUE(SolveTdgBranchBound(small, 2, 2, InteractionMode::kStar,
                                    linear, bb_options)
                    .ok());
    BruteForceOptions bf_options;
    bf_options.num_threads = 2;
    ASSERT_TRUE(SolveTdgBruteForce(small, 2, 2, InteractionMode::kStar,
                                   linear, bf_options)
                    .ok());
  }
  for (size_t i = 0; i < domains.size(); ++i) {
    EXPECT_GT(CounterValue("perf/" + domains[i] + "/calls"), before[i])
        << domains[i];
  }
}

// Self-time inside one fused round: the nested sort charges itself, the
// round domain charges the rest, and the two never add up to more than the
// thread spent — the invariant `tdg_profile --check` gates on.
TEST(ZoneTest, FusedRoundChargesSortAndRoundOnceEach) {
  const LinearGain linear(0.5);
  const LogGain log_gain(0.5);
  struct Case {
    soa::DyGroupsLayout layout;
    InteractionMode mode;
    const LearningGainFunction* gain;
    std::string domain;
  };
  const Case cases[] = {
      {soa::DyGroupsLayout::kStarBlocks, InteractionMode::kStar, &linear,
       "core/learning_gain/star"},
      {soa::DyGroupsLayout::kRoundRobin, InteractionMode::kClique, &linear,
       "core/theory/clique_prefix"},
      {soa::DyGroupsLayout::kRoundRobin, InteractionMode::kClique, &log_gain,
       "core/learning_gain/clique_naive"},
  };
  ScopedProfiling profiling;
  obs::ThreadPerfCounters& counters =
      obs::ThreadPerfCounters::ForCurrentThread();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.domain);
    SkillVector skills = Skills(4096);
    const std::string sort = "perf/core/skills/sort/";
    const std::string round = "perf/" + c.domain + "/";
    const int64_t sort_calls = CounterValue(sort + "calls");
    const int64_t round_calls = CounterValue(round + "calls");
    const int64_t sort_ns = CounterValue(sort + "task_clock_ns");
    const int64_t round_ns = CounterValue(round + "task_clock_ns");

    const obs::PerfSample window_start = counters.Read();
    ASSERT_TRUE(soa::DyGroupsRound(c.layout, c.mode, *c.gain, skills,
                                   /*num_groups=*/8,
                                   soa::ThreadLocalArena())
                    .ok());
    const int64_t window_ns = counters.Read().DeltaSince(
        window_start)[obs::PerfEvent::kTaskClockNs];

    EXPECT_EQ(CounterValue(sort + "calls") - sort_calls, 1);
    EXPECT_EQ(CounterValue(round + "calls") - round_calls, 1);
    EXPECT_LE((CounterValue(sort + "task_clock_ns") - sort_ns) +
                  (CounterValue(round + "task_clock_ns") - round_ns),
              window_ns);
  }
}

}  // namespace
}  // namespace tdg
