// Throughput of the flight recorder's hot paths (obs/flight_recorder.h,
// DESIGN.md §12) — the certification bench for the "always-on" claim: how
// much does one TDG_BLACKBOX record cost, how cheap is the inactive check
// the production kernels pay when no recorder runs, and how fast can a dump
// be decoded post-mortem.
//
// Cases (all per-op micros over batched reps):
//   record/active       one Record() into a claimed per-thread ring
//   record/inactive     Record() with the recorder stopped — the price
//                       every instrumented call site pays in normal runs
//   record/threads=T    T threads hammering their own rings concurrently
//   record/dropped      Record() past the ring quota (max_rings=1, second
//                       thread drops) — the overload path
//   decode/ring=64k     DecodeBlackbox over a full dump
//
// Usage:
//   bench_flight_recorder [--report_out=rec.json] [--profile]
//
// The report plugs into tdg_perfdiff like every other bench artifact.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/flight_recorder.h"

namespace tdg::bench {
namespace {

constexpr int kOpsPerRep = 100000;

std::string TempPath(const char* name) {
  return std::string("/tmp/tdg_bench_flight_recorder.") + name + ".bin";
}

obs::FlightRecorder::Options RecorderOptions(const std::string& path,
                                             int max_rings = 64) {
  obs::FlightRecorder::Options options;
  options.path = path;
  options.ring_bytes = 64 * 1024;
  options.max_rings = max_rings;
  return options;
}

// Per-op micros for kOpsPerRep Record calls on the current configuration
// of the global recorder (active, inactive, or quota-exhausted).
double RecordOps(obs::FlightRecorder& recorder) {
  util::Stopwatch watch;
  for (int i = 0; i < kOpsPerRep; ++i) {
    recorder.Record(obs::BlackboxEventType::kNote,
                    {static_cast<double>(i), 2.0, 3.0});
  }
  return static_cast<double>(watch.ElapsedMicros()) / kOpsPerRep;
}

void RunRecordCase(const std::string& case_key, int reps,
                   obs::FlightRecorder& recorder) {
  RecordOps(recorder);  // warm-up claims the ring / settles the cache
  double total = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    obs::ScopedBenchRep bench_rep(obs::GlobalBenchReporter(), case_key);
    const double per_op = RecordOps(recorder);
    bench_rep.watch().Pause();
    bench_rep.set_objective(per_op);
    total += per_op;
  }
  std::printf("%-24s %12.4f us/op\n", case_key.c_str(), total / reps);
}

void RunThreadsCase(int threads, int reps, obs::FlightRecorder& recorder) {
  const std::string case_key =
      "record/threads=" + std::to_string(threads);
  double total = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    obs::ScopedBenchRep bench_rep(obs::GlobalBenchReporter(), case_key);
    std::atomic<int> ready{0};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&ready, threads, &recorder] {
        ready.fetch_add(1);
        while (ready.load() < threads) {
        }
        RecordOps(recorder);
      });
    }
    for (std::thread& worker : workers) worker.join();
    bench_rep.watch().Pause();
    const double per_op =
        static_cast<double>(bench_rep.watch().TotalMicros()) /
        (static_cast<double>(kOpsPerRep) * threads);
    bench_rep.set_objective(per_op);
    total += per_op;
  }
  std::printf("%-24s %12.4f us/op\n", case_key.c_str(), total / reps);
}

void RunDecodeCase(int reps) {
  const std::string path = TempPath("decode");
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  auto status = recorder.Start(RecorderOptions(path));
  TDG_CHECK(status.ok()) << status;
  RecordOps(recorder);  // wraps the 64 KiB ring many times over
  recorder.Stop();

  const std::string case_key = "decode/ring=64k";
  double total = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    obs::ScopedBenchRep bench_rep(obs::GlobalBenchReporter(), case_key);
    auto dump = obs::ReadBlackbox(path);
    bench_rep.watch().Pause();
    TDG_CHECK(dump.ok()) << dump.status();
    bench_rep.set_objective(static_cast<double>(dump->events.size()));
    total += static_cast<double>(bench_rep.watch().TotalMicros());
  }
  std::printf("%-24s %12.1f us/decode\n", case_key.c_str(), total / reps);
  std::remove(path.c_str());
}

int Main(int argc, char** argv) {
  Harness harness(argc, argv);
  PrintHeader("flight recorder throughput",
              "DESIGN.md §12 (always-on black box)");
  constexpr int kReps = 15;
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();

  // Inactive first: the recorder has never started, exactly the state every
  // instrumented kernel sees in a run without --blackbox.
  RunRecordCase("record/inactive", kReps, recorder);

  const std::string active_path = TempPath("active");
  auto status = recorder.Start(RecorderOptions(active_path));
  TDG_CHECK(status.ok()) << status;
  RunRecordCase("record/active", kReps, recorder);
  RunThreadsCase(4, kReps, recorder);
  recorder.Stop();
  std::remove(active_path.c_str());

  // One ring only: the main thread claims it during warm-up, then a second
  // thread exercises the full-quota drop path.
  const std::string drop_path = TempPath("drop");
  status = recorder.Start(RecorderOptions(drop_path, /*max_rings=*/1));
  TDG_CHECK(status.ok()) << status;
  RecordOps(recorder);  // claim the only ring on this thread
  {
    double per_op = 0.0;
    std::thread dropper([&per_op, &recorder] {
      RecordOps(recorder);  // warm-up: this thread's claim fails
      per_op = RecordOps(recorder);
    });
    dropper.join();
    for (int rep = 0; rep < kReps; ++rep) {
      obs::ScopedBenchRep bench_rep(obs::GlobalBenchReporter(),
                                    "record/dropped");
      std::thread worker([&per_op, &recorder] {
        per_op = RecordOps(recorder);
      });
      worker.join();
      bench_rep.watch().Pause();
      bench_rep.set_objective(per_op);
    }
    std::printf("%-24s %12.4f us/op\n", "record/dropped", per_op);
  }
  recorder.Stop();
  std::remove(drop_path.c_str());

  RunDecodeCase(kReps);

  return harness.Finish();
}

}  // namespace
}  // namespace tdg::bench

int main(int argc, char** argv) { return tdg::bench::Main(argc, argv); }
