#ifndef TDG_OBS_STATS_SERVER_H_
#define TDG_OBS_STATS_SERVER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "obs/run_manifest.h"
#include "util/json.h"
#include "util/net.h"
#include "util/statusor.h"

namespace tdg::obs {

/// What the shared monitoring endpoints serve (DESIGN.md §9).
struct StatsRouteOptions {
  /// Provenance served on /statusz. The servers capture it at Start when
  /// left default-constructed (empty git_sha).
  RunManifest manifest;
  /// Dump file tailed by /blackboxz; the global FlightRecorder's active
  /// path when empty.
  std::string blackbox_path;
  /// Events served per /blackboxz request (the newest ones).
  int blackbox_tail = 256;
};

/// Server-specific additions to the shared endpoints; both may be empty.
struct StatsRouteHooks {
  /// Runs before /metrics renders the registry (refresh owned gauges).
  std::function<void()> before_metrics;
  /// Adds the server's own fields to the /statusz object.
  std::function<void(util::JsonValue& statusz)> add_statusz;
};

/// The monitoring endpoints every embedded server answers first:
///   /healthz    200 "ok" — liveness probe: the process answers
///   /metrics    Prometheus text exposition of the metrics registry
///               (see obs/prometheus.h), plus the process gauges
///   /statusz    JSON: manifest, uptime_seconds, peak_rss_bytes,
///               requests_served, port (+ the hook's fields)
///   /blackboxz  JSONL tail of the flight recorder's live dump (see
///               obs/flight_recorder.h)
/// Returns the complete response for those paths (405 for a method other
/// than GET/HEAD), nullopt for every other path. Errors carry the
/// {"error": ...} JSON body.
std::optional<std::string> ServeStatsRoute(
    const util::net::HttpRequest& request, const util::net::HttpServer& server,
    const StatsRouteOptions& options, const StatsRouteHooks& hooks = {});

/// Options of the sweep-side monitoring server (StartStatsServer).
struct StatsServerOptions : StatsRouteOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port.
  int port = 0;
  /// When non-empty, the bound port is written here (atomic replace).
  std::string port_file;
};

/// Starts the sweep-side monitoring server: a util::net::HttpServer
/// answering the shared routes above and 404 for every other path. Off by
/// default; when started it only *reads* the metrics registry, so sweep
/// outputs are byte-identical with and without it (asserted by
/// StatsServerTest.SweepOutputsAreByteIdenticalWithServerOn).
util::StatusOr<std::unique_ptr<util::net::HttpServer>> StartStatsServer(
    StatsServerOptions options);

}  // namespace tdg::obs

#endif  // TDG_OBS_STATS_SERVER_H_
