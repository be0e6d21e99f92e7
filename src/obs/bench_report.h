#ifndef TDG_OBS_BENCH_REPORT_H_
#define TDG_OBS_BENCH_REPORT_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/run_manifest.h"
#include "util/json.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/stopwatch.h"

namespace tdg::obs {

/// One benchmark case: a stable key (the pairing handle for tdg_perfdiff)
/// plus per-repetition wall times and objective values, and summed solver
/// counter deltas pulled from the MetricsRegistry. Since v2 a case may also
/// carry per-repetition counter series (hardware perf counter totals such
/// as "perf/total/instructions"), which give tdg_perfdiff near-noise-free
/// regression signals to gate on.
struct BenchCase {
  std::string key;
  std::vector<double> wall_micros;  // one entry per repetition
  std::vector<double> objective;    // parallel to wall_micros
  std::map<std::string, double> counters;
  /// Per-repetition sample series, parallel to wall_micros. Populated by
  /// ScopedBenchRep under --profile with one "perf/total/<event>" series
  /// per available perf event.
  std::map<std::string, std::vector<double>> counter_series;

  double MeanWallMicros() const;
};

/// Machine-readable result of one bench binary run — the `BENCH_<name>.json`
/// artifact that makes perf claims checkable across PRs. Stable schema:
/// sorted object keys, cases in first-recorded order.
struct BenchReport {
  static constexpr const char* kSchema = "tdg.bench_report.v2";

  std::string schema = kSchema;
  std::string bench_name;
  RunManifest manifest;
  /// Counter backend live while the report was recorded ("perf_event" or
  /// "rusage"); empty when profiling was off.
  std::string perf_backend;
  std::vector<BenchCase> cases;

  util::JsonValue ToJson() const;
  static util::StatusOr<BenchReport> FromJson(const util::JsonValue& json);

  /// Structural validity: schema string, parseable manifest, non-empty
  /// unique case keys, wall/objective arrays of equal non-zero length,
  /// finite values. What `tdg_perfdiff --self-check` runs on artifacts.
  util::Status Validate() const;

  util::Status WriteFile(const std::string& path) const;
  static util::StatusOr<BenchReport> ReadFile(const std::string& path);
};

/// Accumulates BenchCase repetitions for one bench binary and writes the
/// report to output_path() when one is set (the bench harness sets it from
/// `--report_out=<path>`). Thread-safe (runtime benches record from
/// benchmark threads). Cases are created on first RecordRep and keep
/// insertion order.
class BenchReporter {
 public:
  explicit BenchReporter(std::string bench_name = "");

  void set_bench_name(const std::string& name);

  void set_output_path(const std::string& path) { output_path_ = path; }
  const std::string& output_path() const { return output_path_; }
  bool enabled() const { return !output_path_.empty(); }

  /// The command line after the program name, recorded in the manifest.
  void set_args(std::vector<std::string> args);

  /// Appends one repetition to `case_key`.
  void RecordRep(const std::string& case_key, double wall_micros,
                 double objective);

  /// Accumulates (sums) a named counter delta onto `case_key`.
  void AddCounter(const std::string& case_key, const std::string& counter,
                  double delta);

  /// Appends one sample to a per-repetition series on `case_key` (e.g.
  /// "perf/total/instructions").
  void RecordSeriesValue(const std::string& case_key,
                         const std::string& series, double value);

  /// Stamps the live counter backend name into the report ("perf_event" /
  /// "rusage"). Set by ScopedBenchRep when profiling is on.
  void set_perf_backend(const std::string& backend);

  /// Builds the report: captured manifest + accumulated cases.
  BenchReport Build() const;

  /// Drops every accumulated case (for tests).
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::string bench_name_;
  std::string output_path_;
  std::string perf_backend_;
  std::vector<std::string> args_;
  std::vector<BenchCase> cases_;
  std::map<std::string, size_t> case_index_;

  BenchCase& CaseLocked(const std::string& case_key);
};

/// The process-wide reporter the bench harness records into
/// (bench_common.h / bench_runtime_common.h).
BenchReporter& GlobalBenchReporter();

/// RAII repetition recorder: times its scope, and on destruction records
/// the repetition plus the deltas of every MetricsRegistry *counter* that
/// changed while it was alive (solver node counts, subtree tasks, ...).
/// Counters first created during the scope are treated as starting from 0. When
/// profiling is on (ProfilingEnabled()) it additionally reads the calling
/// thread's perf counters around the scope and appends each available event
/// delta to the case's "perf/total/<event>" series. Pause the exposed watch
/// to exclude untimed sections.
class ScopedBenchRep {
 public:
  ScopedBenchRep(BenchReporter& reporter, std::string case_key);
  ~ScopedBenchRep();

  ScopedBenchRep(const ScopedBenchRep&) = delete;
  ScopedBenchRep& operator=(const ScopedBenchRep&) = delete;

  void set_objective(double objective) { objective_ = objective; }
  util::Stopwatch& watch() { return watch_; }

 private:
  BenchReporter& reporter_;
  std::string case_key_;
  double objective_ = 0;
  std::map<std::string, int64_t> counters_before_;
  bool perf_active_ = false;
  PerfSample perf_before_;
  util::Stopwatch watch_;
};

}  // namespace tdg::obs

#endif  // TDG_OBS_BENCH_REPORT_H_
