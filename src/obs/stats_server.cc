#include "obs/stats_server.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/prometheus.h"
#include "util/stopwatch.h"

namespace tdg::obs {
namespace {

std::string OkResponse(std::string_view content_type, std::string_view body) {
  return util::net::BuildHttpResponse(200, "OK", content_type, body);
}

std::string BlackboxzResponse(const StatsRouteOptions& options) {
  const std::string path = !options.blackbox_path.empty()
                               ? options.blackbox_path
                               : FlightRecorder::Global().path();
  if (path.empty()) {
    return util::net::BuildHttpJsonError(404, "Not Found",
                                         "no flight recorder active");
  }
  // Tail the *file*, never the live mapping: a fresh read has no data race
  // with the writers, and the decoder skips in-flight records by magic
  // validation. One JSON object per line, oldest first.
  auto dump = ReadBlackbox(path);
  if (!dump.ok()) {
    return util::net::BuildHttpJsonError(503, "Service Unavailable",
                                         dump.status().ToString());
  }
  const std::size_t total = dump->events.size();
  const std::size_t tail =
      options.blackbox_tail > 0 &&
              static_cast<std::size_t>(options.blackbox_tail) < total
          ? static_cast<std::size_t>(options.blackbox_tail)
          : total;
  std::string body;
  for (std::size_t i = total - tail; i < total; ++i) {
    body += BlackboxEventToJson(dump->events[i]).Serialize();
    body += '\n';
  }
  return OkResponse("application/jsonl", body);
}

/// Read bounds for one monitoring request. Scrapes carry no body, so the
/// body cap only has to admit the empty one; 2 s total is generous for a
/// loopback client that is not dead or hostile.
util::net::HttpLimits StatsLimits() {
  util::net::HttpLimits limits;
  limits.max_body_bytes = 16 * 1024;
  return limits;
}

void ServeStatsConnection(const util::net::HttpServer& server,
                          const StatsServerOptions& options,
                          util::net::Socket connection) {
  auto request = util::net::ReadHttpRequest(connection, server.limits());
  std::string response;
  if (!request.ok()) {
    // The shared machinery distinguishes malformed (400) from slow (408),
    // oversized (413), and unsupported-framing (501) requests; an already
    // hung-up peer gets the 400 written into the void, which is harmless.
    response = util::net::BuildHttpErrorResponse(request.status());
  } else if (auto shared = ServeStatsRoute(*request, server, options)) {
    response = std::move(*shared);
  } else {
    response = util::net::BuildHttpJsonError(
        404, "Not Found",
        "not found; try /healthz /metrics /statusz /blackboxz");
  }
  (void)connection.WriteAll(response);  // peer may have hung up; that's fine
}

}  // namespace

std::optional<std::string> ServeStatsRoute(
    const util::net::HttpRequest& request, const util::net::HttpServer& server,
    const StatsRouteOptions& options, const StatsRouteHooks& hooks) {
  const std::string& path = request.path;
  if (path != "/healthz" && path != "/metrics" && path != "/statusz" &&
      path != "/blackboxz") {
    return std::nullopt;
  }
  if (request.method != "GET" && request.method != "HEAD") {
    return util::net::BuildHttpJsonError(
        405, "Method Not Allowed", "method not allowed on this endpoint");
  }
  if (path == "/healthz") return OkResponse("text/plain", "ok\n");
  if (path == "/blackboxz") return BlackboxzResponse(options);
  if (path == "/metrics") {
    // Refresh the process gauges (uptime, peak RSS) so every scrape carries
    // them. Gauge::Set is a no-op under SetMetricsEnabled(false) — exactly
    // the runs that demand byte-stable outputs.
    RefreshProcessGauges();
    if (hooks.before_metrics) hooks.before_metrics();
    return OkResponse(
        kPrometheusContentType,
        RenderPrometheusText(MetricsRegistry::Global().Snapshot()));
  }
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("manifest", options.manifest.ToJson());
  json.Set("uptime_seconds",
           static_cast<double>(util::MonotonicMicros() -
                               server.start_micros()) /
               1e6);
  json.Set("peak_rss_bytes", static_cast<long long>(ProcessPeakRssBytes()));
  json.Set("requests_served",
           static_cast<long long>(server.requests_served()));
  json.Set("port", server.port());
  if (hooks.add_statusz) hooks.add_statusz(json);
  return OkResponse("application/json", json.Serialize() + "\n");
}

util::StatusOr<std::unique_ptr<util::net::HttpServer>> StartStatsServer(
    StatsServerOptions options) {
  if (options.manifest.git_sha.empty()) {
    options.manifest = RunManifest::Capture();
  }
  util::net::HttpServer::Options http_options{
      options.port, options.port_file, /*num_workers=*/4, StatsLimits()};
  auto server = std::make_unique<util::net::HttpServer>(
      std::move(http_options),
      [options = std::move(options)](const util::net::HttpServer& server,
                                     util::net::Socket connection) {
        ServeStatsConnection(server, options, std::move(connection));
      });
  TDG_RETURN_IF_ERROR(server->Start());
  return server;
}

}  // namespace tdg::obs
