#include "obs/perf_counters.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <thread>

#include "obs/bench_report.h"
#include "obs/metrics.h"
#include "obs/zone.h"

namespace tdg::obs {
namespace {

// Burns thread CPU time until the task clock advanced by at least
// `min_delta_ns`, so attribution tests always have something to attribute.
void SpinTaskClock(int64_t min_delta_ns) {
  ThreadPerfCounters& counters = ThreadPerfCounters::ForCurrentThread();
  const PerfSample start = counters.Read();
  volatile double sink = 0.0;
  for (;;) {
    for (int i = 0; i < 5000; ++i) {
      sink = sink + static_cast<double>(i) * 1e-9;
    }
    const PerfSample now = counters.Read();
    if (now.DeltaSince(start)[PerfEvent::kTaskClockNs] >= min_delta_ns) {
      return;
    }
  }
}

// Restores the profiling toggle on scope exit — these tests flip process
// state that other tests rely on being off.
class ScopedProfilingEnabled {
 public:
  explicit ScopedProfilingEnabled(bool enabled)
      : previous_(ProfilingEnabled()) {
    SetProfilingEnabled(enabled);
  }
  ~ScopedProfilingEnabled() { SetProfilingEnabled(previous_); }

 private:
  bool previous_;
};

TEST(PerfCountersTest, EventAndBackendNamesAreStable) {
  EXPECT_EQ(PerfBackendName(PerfBackend::kPerfEvent), "perf_event");
  EXPECT_EQ(PerfBackendName(PerfBackend::kRusage), "rusage");
  EXPECT_EQ(PerfEventName(PerfEvent::kCycles), "cycles");
  EXPECT_EQ(PerfEventName(PerfEvent::kInstructions), "instructions");
  EXPECT_EQ(PerfEventName(PerfEvent::kCacheReferences), "cache_references");
  EXPECT_EQ(PerfEventName(PerfEvent::kCacheMisses), "cache_misses");
  EXPECT_EQ(PerfEventName(PerfEvent::kBranchMisses), "branch_misses");
  EXPECT_EQ(PerfEventName(PerfEvent::kTaskClockNs), "task_clock_ns");
  EXPECT_EQ(PerfEventName(PerfEvent::kPageFaults), "page_faults");
}

TEST(PerfCountersTest, ProbeNeverFailsAndSuppliesPortableEvents) {
  ThreadPerfCounters& counters = ThreadPerfCounters::ForCurrentThread();
  // Whatever backend the host grants, reading must work and the portable
  // events must be live: both backends can supply task clock + page faults.
  const PerfSample sample = counters.Read();
  EXPECT_TRUE(sample.available(PerfEvent::kTaskClockNs));
  EXPECT_TRUE(sample.available(PerfEvent::kPageFaults));
  if (counters.backend() == PerfBackend::kPerfEvent) {
    // The hardware backend only stays active when the core events opened.
    EXPECT_TRUE(sample.available(PerfEvent::kCycles));
    EXPECT_TRUE(sample.available(PerfEvent::kInstructions));
  } else {
    EXPECT_FALSE(sample.available(PerfEvent::kCycles));
    EXPECT_FALSE(sample.available(PerfEvent::kInstructions));
  }
}

TEST(PerfCountersTest, ReadingsAreMonotoneUnderWork) {
  ThreadPerfCounters& counters = ThreadPerfCounters::ForCurrentThread();
  const PerfSample before = counters.Read();
  SpinTaskClock(2'000'000);  // 2ms of thread CPU
  const PerfSample delta = counters.Read().DeltaSince(before);
  EXPECT_GE(delta[PerfEvent::kTaskClockNs], 2'000'000);
  if (counters.backend() == PerfBackend::kPerfEvent) {
    EXPECT_GT(delta[PerfEvent::kCycles], 0);
    EXPECT_GT(delta[PerfEvent::kInstructions], 0);
  }
}

TEST(PerfCountersTest, DeltaSincePropagatesUnavailabilityAndClamps) {
  PerfSample before;
  PerfSample after;
  before.values[static_cast<int>(PerfEvent::kCycles)] = 100;
  after.values[static_cast<int>(PerfEvent::kCycles)] = 250;
  // Instructions unavailable on one side each way.
  before.values[static_cast<int>(PerfEvent::kInstructions)] = 7;
  after.values[static_cast<int>(PerfEvent::kTaskClockNs)] = 9;
  // Page faults go backwards (counter re-open); must clamp, not underflow.
  before.values[static_cast<int>(PerfEvent::kPageFaults)] = 50;
  after.values[static_cast<int>(PerfEvent::kPageFaults)] = 20;

  const PerfSample delta = after.DeltaSince(before);
  EXPECT_EQ(delta[PerfEvent::kCycles], 150);
  EXPECT_FALSE(delta.available(PerfEvent::kInstructions));
  EXPECT_FALSE(delta.available(PerfEvent::kTaskClockNs));
  EXPECT_FALSE(delta.available(PerfEvent::kBranchMisses));
  EXPECT_EQ(delta[PerfEvent::kPageFaults], 0);
}

TEST(PerfCountersTest, ForceRusageBackendDegradesFreshThreads) {
  ForceRusageBackend(true);
  PerfBackend forced_backend = PerfBackend::kPerfEvent;
  PerfSample forced_sample;
  // The calling thread's counter set may predate the force — probe from a
  // fresh thread, which must take the degraded path.
  std::thread probe([&] {
    ThreadPerfCounters& counters = ThreadPerfCounters::ForCurrentThread();
    forced_backend = counters.backend();
    forced_sample = counters.Read();
  });
  probe.join();
  ForceRusageBackend(false);

  EXPECT_EQ(forced_backend, PerfBackend::kRusage);
  EXPECT_TRUE(forced_sample.available(PerfEvent::kTaskClockNs));
  EXPECT_TRUE(forced_sample.available(PerfEvent::kPageFaults));
  EXPECT_FALSE(forced_sample.available(PerfEvent::kCycles));
}

TEST(PerfProfileTest, ScopesAreNoOpsWhileProfilingDisabled) {
  ASSERT_FALSE(ProfilingEnabled());
  // An unprofiled zone neither charges nor registers its domain's counters
  // (absent before means absent after).
  auto sort_calls = [] {
    const std::map<std::string, int64_t> counters =
        MetricsRegistry::Global().SnapshotCounters();
    const auto it = counters.find("perf/core/skills/sort/calls");
    return it == counters.end() ? std::optional<int64_t>() : it->second;
  };
  const std::optional<int64_t> calls_before = sort_calls();
  {
    ScopedZone zone(Zone::kSkillsSort);
    SpinTaskClock(200'000);
  }
  EXPECT_EQ(sort_calls(), calls_before);
}

TEST(PerfProfileTest, AttributesSelfTimeToNestedDomains) {
  ScopedProfilingEnabled profiling(true);
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& outer_clock =
      registry.GetCounter("perf/core/branch_bound/search/task_clock_ns");
  Counter& inner_clock =
      registry.GetCounter("perf/core/branch_bound/subtree/task_clock_ns");
  Counter& outer_calls =
      registry.GetCounter("perf/core/branch_bound/search/calls");
  Counter& inner_calls =
      registry.GetCounter("perf/core/branch_bound/subtree/calls");
  const int64_t outer_clock_before = outer_clock.Value();
  const int64_t inner_clock_before = inner_clock.Value();
  const int64_t outer_calls_before = outer_calls.Value();
  const int64_t inner_calls_before = inner_calls.Value();

  ThreadPerfCounters& counters = ThreadPerfCounters::ForCurrentThread();
  const PerfSample window_start = counters.Read();
  {
    ScopedZone outer(Zone::kBranchBoundSearch);
    SpinTaskClock(1'000'000);
    {
      ScopedZone inner(Zone::kBranchBoundSubtree);
      SpinTaskClock(1'000'000);
    }
    SpinTaskClock(1'000'000);
  }
  const int64_t window_ns =
      counters.Read().DeltaSince(window_start)[PerfEvent::kTaskClockNs];

  const int64_t outer_ns = outer_clock.Value() - outer_clock_before;
  const int64_t inner_ns = inner_clock.Value() - inner_clock_before;
  EXPECT_EQ(outer_calls.Value() - outer_calls_before, 1);
  EXPECT_EQ(inner_calls.Value() - inner_calls_before, 1);
  // Both zones did ~1ms+ of work...
  EXPECT_GE(outer_ns, 1'000'000);
  EXPECT_GE(inner_ns, 1'000'000);
  // ...and self-time accounting means their sum can never exceed the
  // enclosing thread window (the invariant tdg_profile --check gates on).
  EXPECT_LE(outer_ns + inner_ns, window_ns);
}

TEST(PerfProfileTest, ScopedBenchRepRecordsPerRepCounterSeries) {
  ScopedProfilingEnabled profiling(true);
  BenchReporter reporter("perf_counters_test");
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedBenchRep scoped(reporter, "profile/case");
    SpinTaskClock(300'000);
    scoped.set_objective(1.0);
  }

  const BenchReport report = reporter.Build();
  EXPECT_EQ(
      report.perf_backend,
      PerfBackendName(ThreadPerfCounters::ForCurrentThread().backend()));
  ASSERT_EQ(report.cases.size(), 1u);
  const BenchCase& bench_case = report.cases[0];
  ASSERT_EQ(bench_case.wall_micros.size(), static_cast<size_t>(kReps));
  ASSERT_FALSE(bench_case.counter_series.empty());
  const auto clock_series =
      bench_case.counter_series.find("perf/total/task_clock_ns");
  ASSERT_NE(clock_series, bench_case.counter_series.end());
  for (const auto& [series, samples] : bench_case.counter_series) {
    EXPECT_EQ(samples.size(), static_cast<size_t>(kReps)) << series;
  }
  for (double sample : clock_series->second) {
    EXPECT_GE(sample, 300'000.0);
  }
  EXPECT_TRUE(report.Validate().ok());
}

}  // namespace
}  // namespace tdg::obs
