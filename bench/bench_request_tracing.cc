// Overhead certificate for the request-tracing plane (DESIGN.md §14): what
// does binding a RequestContext, running the phase spans, and filing the
// trace into the tail sampler + rolling windows add to a served advance?
//
// Run twice; the paired case shares its key across modes so tdg_perfdiff
// can gate it:
//
//   bench_request_tracing --tracing=off --report_out=off.json [--profile]
//   bench_request_tracing --tracing=on  --report_out=on.json  [--profile]
//   tdg_perfdiff --threshold=1.25 --baseline=off.json --candidate=on.json
//
// Cases (per-op micros over batched reps):
//   request/advance        one cohort advance through CohortManager. With
//                          --tracing=on the op carries the full
//                          request-path scaffolding (mint + bind + phase
//                          spans + Finish + TailSampler::Offer, a
//                          threshold compare for a fast advance, +
//                          WindowedHistogram::Record); with --tracing=off
//                          it is the bare advance every pre-tracing build
//                          served. Deliberately the worst case: a ~6 us
//                          in-memory advance with no journal and no
//                          socket, so the sub-microsecond absolute cost
//                          is visible as a ratio — hence the 1.25 gate
//                          threshold rather than the default 1.10.
//   phase/span_bound       (tracing=on only) one ScopedRequestPhase
//                          open/close charging a bound context.
//   phase/span_unbound     (tracing=off only) the same span with no
//                          context bound — the single thread-local load
//                          every instrumented site pays outside a
//                          request. Mode-specific keys: the two spans
//                          measure different regimes, so they document
//                          absolute costs instead of forming a
//                          nonsensical regression pair.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/tail_sampler.h"
#include "obs/windowed_histogram.h"
#include "serve/cohort_manager.h"

namespace tdg::bench {
namespace {

constexpr int kReps = 15;
constexpr int kAdvancesPerRep = 1000;
constexpr int kSpansPerRep = 100000;

// Small enough that the advance itself is fast — the regime where tracing
// overhead would show, the opposite of hiding it under a huge cohort.
constexpr int kParticipants = 60;

serve::CohortManager* OpenBenchManager() {
  static auto manager = [] {
    auto opened = serve::CohortManager::Open({});
    TDG_CHECK(opened.ok()) << opened.status();
    serve::CohortConfig config;
    config.group_size = 3;
    std::vector<serve::CohortParticipant> participants;
    participants.reserve(kParticipants);
    for (int i = 0; i < kParticipants; ++i) {
      // Built with += rather than `"p" + std::to_string(i)`, which GCC 12
      // flags with a false -Wrestrict (PR105651) in Release builds.
      std::string key = "p";
      key += std::to_string(i);
      participants.push_back({std::move(key), 1.0 + 0.05 * i});
    }
    auto status = (*opened)->Enroll("bench", config, participants);
    TDG_CHECK(status.ok()) << status;
    return std::move(opened).value();
  }();
  return manager.get();
}

double TracedAdvanceOps(serve::CohortManager* manager,
                        obs::TailSampler& sampler,
                        obs::WindowedHistogram& windowed) {
  util::Stopwatch watch;
  for (int i = 0; i < kAdvancesPerRep; ++i) {
    obs::RequestContext context;
    context.trace_id = obs::MintTraceId();
    {
      obs::ScopedRequestContext bind(context);
      auto gain = manager->Advance("bench");
      TDG_CHECK(gain.ok()) << gain.status();
      context.endpoint = "advance";
      obs::FinishRequest(context, 200);
    }
    sampler.Offer(context);
    windowed.Record(static_cast<double>(context.total_micros));
  }
  return static_cast<double>(watch.ElapsedMicros()) / kAdvancesPerRep;
}

double BareAdvanceOps(serve::CohortManager* manager) {
  util::Stopwatch watch;
  for (int i = 0; i < kAdvancesPerRep; ++i) {
    auto gain = manager->Advance("bench");
    TDG_CHECK(gain.ok()) << gain.status();
  }
  return static_cast<double>(watch.ElapsedMicros()) / kAdvancesPerRep;
}

double SpanOps() {
  util::Stopwatch watch;
  for (int i = 0; i < kSpansPerRep; ++i) {
    obs::ScopedRequestPhase span(obs::RequestPhase::kCompute);
  }
  return static_cast<double>(watch.ElapsedMicros()) / kSpansPerRep;
}

void RunCase(const std::string& case_key, double (*op)(), int reps) {
  op();  // warm-up
  double total = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    obs::ScopedBenchRep bench_rep(obs::GlobalBenchReporter(), case_key);
    const double per_op = op();
    bench_rep.watch().Pause();
    bench_rep.set_objective(per_op);
    total += per_op;
  }
  std::printf("%-24s %12.4f us/op\n", case_key.c_str(), total / reps);
}

int Main(int argc, char** argv) {
  Harness harness(argc, argv, {{"tracing", util::FlagKind::kString}});
  const std::string mode = harness.flags().GetString("tracing", "on");
  if (mode != "on" && mode != "off") {
    std::fprintf(stderr, "unknown --tracing=%s (on|off)\n", mode.c_str());
    return 2;
  }
  const bool tracing = mode == "on";
  PrintHeader("request tracing overhead",
              tracing ? "DESIGN.md §14 — tracing ON"
                      : "DESIGN.md §14 — tracing OFF (baseline)");

  serve::CohortManager* manager = OpenBenchManager();
  obs::TailSampler sampler;  // the default threshold, as served
  obs::WindowedHistogram windowed(
      obs::WindowedHistogram::Options{/*output_scale=*/1e-6});

  {
    const std::string case_key = "request/advance";
    // Warm-up either path once.
    if (tracing) {
      TracedAdvanceOps(manager, sampler, windowed);
    } else {
      BareAdvanceOps(manager);
    }
    double total = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      obs::ScopedBenchRep bench_rep(obs::GlobalBenchReporter(), case_key);
      const double per_op = tracing
                                ? TracedAdvanceOps(manager, sampler, windowed)
                                : BareAdvanceOps(manager);
      bench_rep.watch().Pause();
      bench_rep.set_objective(per_op);
      total += per_op;
    }
    std::printf("%-24s %12.4f us/op\n", case_key.c_str(), total / kReps);
  }

  if (tracing) {
    // Bound span: charges elapsed micros to the context.
    obs::RequestContext context;
    context.trace_id = obs::MintTraceId();
    obs::ScopedRequestContext bind(context);
    RunCase("phase/span_bound", SpanOps, kReps);
  } else {
    // Unbound span: the thread-local load every instrumented site pays
    // outside a request.
    RunCase("phase/span_unbound", SpanOps, kReps);
  }

  return harness.Finish();
}

}  // namespace
}  // namespace tdg::bench

int main(int argc, char** argv) { return tdg::bench::Main(argc, argv); }
