#ifndef TDG_OBS_OBS_H_
#define TDG_OBS_OBS_H_

/// tdg::obs — runtime observability for the DyGroups engine.
///
/// Two pillars, both process-wide:
///   * a thread-safe metrics registry (metrics.h): named counters, gauges,
///     and fixed-bucket latency histograms with p50/p95/p99 summaries,
///     exportable to JSON and an ASCII table;
///   * the flight recorder (flight_recorder.h): the one event store. Zone
///     spans (TDG_ZONE(obs::Zone::kProcessRun), zone.h) and typed
///     semantic events (TDG_BLACKBOX) land in per-thread mmap-backed ring
///     buffers whose dump survives kill -9; `tdg_blackbox` decodes it into
///     a summary, JSONL, or a Chrome trace, and /blackboxz tails it live.
///
/// Controls are runtime only: SetMetricsEnabled(false) freezes every
/// metric, and the recorder is off unless FlightRecorder::Start ran
/// (--blackbox). With both off, instrumented hot paths cost one relaxed
/// atomic load per site.
///
/// A third pillar — the live monitoring plane (stats_server.h,
/// prometheus.h) — serves the same registry over loopback HTTP (/metrics
/// Prometheus exposition, /statusz, /healthz, /blackboxz: the shared routes
/// both obs::StartStatsServer and serve::CohortServer answer on a
/// util::net::HttpServer). Sweep progress is the durable cell count: the
/// --progress line (exp::SweepProgressLine) counts a cell once its
/// checkpoint record is durable, and a crash-safe shard's liveness is read
/// from its checkpoint (exp::WatchSweepCheckpoints, `tdg_sweepmerge
/// --watch`), not published by the shard. All of it only
/// *reads* experiment state: outputs are byte-identical with and without
/// the server.
///
/// A fourth pillar — kernel profiling (perf_counters.h, zone.h) — reads
/// hardware counters (cycles, instructions, cache/branch misses) via
/// perf_event_open, degrading to getrusage/clock_gettime where perf access
/// is denied, and attributes them to the perf domains of the same
/// TDG_ZONE scopes that record spans: one zone table names each timed
/// scope's span and domain. Attribution lands in registry counters
/// "perf/<domain>/<event>", so it reaches /metrics, --metrics_out and bench
/// reports without extra plumbing. Off by default; enable with `--profile`
/// (bench/CLI binaries) or TDG_PROFILE=1.
///
/// A fifth pillar — request-scoped serving telemetry (request_context.h,
/// windowed_histogram.h, tail_sampler.h) — gives the cohort serving plane
/// per-request trace ids threaded into the flight recorder, rolling
/// 10s/1m/5m latency windows (p50/p95/p99, QPS, error rate) on /metrics
/// and /statusz, and a bounded ring of slow-request phase breakdowns and
/// trace ids on /slowz. See the which-tool-when table in README
/// "Observability".

#include "obs/bench_report.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/perf_diff.h"
#include "obs/prometheus.h"
#include "obs/request_context.h"
#include "obs/run_manifest.h"
#include "obs/stats_server.h"
#include "obs/tail_sampler.h"
#include "obs/windowed_histogram.h"
#include "obs/zone.h"
#include "util/status.h"

namespace tdg::obs {

/// Stamps build provenance (git sha, compiler, build type, sanitizer, os —
/// from RunManifest::Capture()) into the registry's build_info label set,
/// rendered as the `tdg_build_info{...} 1` gauge on /metrics and as the
/// "build_info" object in JSON exports. Idempotent.
void InstallBuildInfoMetrics();

/// Peak resident set size of this process in bytes (ru_maxrss, normalized
/// across platforms); 0 when getrusage fails.
int64_t ProcessPeakRssBytes();

/// Refreshes the point-in-time process gauges in the global registry:
///   gauge "process/uptime_seconds"
///   gauge "process/peak_rss_bytes"   (tdg_process_peak_rss_bytes on
///                                     /metrics)
/// A no-op when metrics are frozen. Called before every snapshot export so
/// file exports and /metrics scrapes agree on what a snapshot carries.
void RefreshProcessGauges();

/// Writes MetricsRegistry::Global().Snapshot() as JSON to `path`, calling
/// RefreshProcessGauges() first.
util::Status WriteMetricsJsonFile(const std::string& path);

}  // namespace tdg::obs

#endif  // TDG_OBS_OBS_H_
