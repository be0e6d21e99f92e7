// Shared google-benchmark registration for the running-time figures
// (Fig 12: star mode, Fig 13: clique mode). Measures the full α-round
// DYGROUPS-MODE loop (grouping + skill updates) for every policy, with the
// population generated outside the timed region. Times are reported in
// microseconds, matching the paper's axes.
#ifndef TDG_BENCH_BENCH_RUNTIME_COMMON_H_
#define TDG_BENCH_BENCH_RUNTIME_COMMON_H_

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "baselines/registry.h"
#include "bench_common.h"
#include "core/process.h"
#include "obs/obs.h"
#include "random/distributions.h"
#include "util/logging.h"

namespace tdg::bench {

inline void RunPolicyBenchmark(benchmark::State& state,
                               const std::string& policy_name,
                               InteractionMode mode, int n, int k) {
  random::Rng rng(42);
  SkillVector skills =
      random::GenerateSkills(rng, random::SkillDistribution::kLogNormal, n);
  LinearGain gain(0.5);
  ProcessConfig config;
  config.num_groups = k;
  config.num_rounds = 5;
  config.mode = mode;
  config.record_history = false;

  // Per-iteration process wall time goes through the tdg::obs registry —
  // the same histogram machinery the sweep framework reports from — and the
  // registry-derived mean/p50/p95 are attached as benchmark counters.
  obs::Histogram& process_micros =
      obs::MetricsRegistry::Global().GetHistogram(
          "bench/process_micros/" + policy_name);
  const obs::Histogram::Totals before = process_micros.GetTotals();

  const std::string case_key =
      "vary/" + std::string(InteractionModeName(mode)) + "/" + policy_name +
      "/n=" + std::to_string(n) + "/k=" + std::to_string(k);
  obs::BenchReporter& reporter = obs::GlobalBenchReporter();
  uint64_t seed = 1;
  for (auto _ : state) {
    auto policy = baselines::MakePolicy(policy_name, seed++);
    TDG_CHECK(policy.ok());
    if (reporter.enabled()) {
      // ScopedBenchRep records the repetition plus registry counter deltas,
      // and — under --profile — the per-rep "perf/total/<event>" series.
      obs::ScopedBenchRep rep(reporter, case_key);
      auto result = RunProcess(skills, config, gain, **policy);
      rep.watch().Pause();
      TDG_CHECK(result.ok()) << result.status();
      rep.set_objective(result->total_gain);
      // DoNotOptimize(lvalue) makes its argument an *output* operand of the
      // asm — this google-benchmark version clobbers the referenced double.
      // Keep the sink on a copy so the recorded objective stays intact.
      double sink = result->total_gain;
      benchmark::DoNotOptimize(sink);
      process_micros.Record(static_cast<double>(rep.watch().TotalMicros()));
    } else {
      obs::ScopedHistogramTimer timer(process_micros);
      auto result = RunProcess(skills, config, gain, **policy);
      timer.watch().Pause();
      TDG_CHECK(result.ok()) << result.status();
      double sink = result->total_gain;
      benchmark::DoNotOptimize(sink);
    }
  }

  const obs::Histogram::Totals after = process_micros.GetTotals();
  const int64_t timed = after.count - before.count;
  if (timed > 0) {
    state.counters["proc_us_mean"] =
        benchmark::Counter((after.sum - before.sum) / timed);
    state.counters["proc_us_p50"] =
        benchmark::Counter(process_micros.Quantile(0.50));
    state.counters["proc_us_p95"] =
        benchmark::Counter(process_micros.Quantile(0.95));
  }
  state.SetLabel(policy_name);
}

/// Registers the paper's two sweeps for `mode`:
///   varying n in {10, 100, ..., 100000} at k = 5 (Fig 12/13 (a));
///   varying k in {5, 50, 500, 5000} at n = 10000 (Fig 12/13 (b)).
inline void RegisterRuntimeBenchmarks(InteractionMode mode) {
  const std::string mode_name(InteractionModeName(mode));
  for (const std::string& policy : baselines::AllPolicyNames()) {
    for (int n : {10, 100, 1000, 10000, 100000}) {
      std::string name =
          "vary_n/" + mode_name + "/" + policy + "/n=" + std::to_string(n);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [policy, mode, n](benchmark::State& state) {
            RunPolicyBenchmark(state, policy, mode, n, /*k=*/5);
          })
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
    }
    for (int k : {5, 50, 500, 5000}) {
      std::string name =
          "vary_k/" + mode_name + "/" + policy + "/k=" + std::to_string(k);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [policy, mode, k](benchmark::State& state) {
            RunPolicyBenchmark(state, policy, mode, /*n=*/10000, k);
          })
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
    }
  }
}

/// main() of a running-time figure: google-benchmark takes its own
/// --benchmark_* flags, then the Harness parses what is left.
inline int RuntimeMain(int argc, char** argv, InteractionMode mode) {
  // The report's manifest keeps the whole command line.
  std::vector<std::string> args(argv + 1, argv + argc);
  RegisterRuntimeBenchmarks(mode);
  benchmark::Initialize(&argc, argv);
  Harness harness(argc, argv);
  obs::GlobalBenchReporter().set_args(std::move(args));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return harness.Finish();
}

}  // namespace tdg::bench

#endif  // TDG_BENCH_BENCH_RUNTIME_COMMON_H_
