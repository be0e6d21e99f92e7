#ifndef TDG_SERVE_COHORT_SERVER_H_
#define TDG_SERVE_COHORT_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "obs/run_manifest.h"
#include "obs/stats_server.h"
#include "obs/tail_sampler.h"
#include "serve/cohort_manager.h"
#include "util/net.h"
#include "util/statusor.h"

namespace tdg::serve {

/// The grouping-as-a-service front end (DESIGN.md §13): cohort routes over
/// a CohortManager on a util::net::HttpServer worker pool — cohort
/// operations take locks and write journals, so one slow request must not
/// head-of-line-block the monitoring scrapes. Loopback only,
/// `Connection: close`.
///
/// Endpoints (JSON in, JSON out):
///   GET  /healthz /metrics /blackboxz  the shared monitoring routes
///                                    (obs::ServeStatsRoute); /metrics also
///                                    carries the serve gauges (cohorts,
///                                    resident participants)
///   GET  /statusz                    the shared fields + cohorts,
///                                    resident_participants, and the
///                                    rolling latency windows
///   GET  /cohorts                    {"cohorts":[summary...]}
///   POST /cohorts                    {"id","config","participants"} → 201
///   GET  /cohorts/<id>               one summary
///   POST /cohorts/<id>/advance       {} → {"gain","round"}
///   GET  /cohorts/<id>/rounds/<t>    the canonical round JSON
///                                    (AppendCohortRoundJson)
///   POST /cohorts/<id>/join          {"key","skill"} → {"id","participants"}
///   POST /cohorts/<id>/leave         {"key"} → {"id","participants"}
///   GET  /tracez                     {"traces":[...]} — recently completed
///                                    requests with their trace ids
///   GET  /slowz                      JSONL, one slow/sampled request per
///                                    line with the per-phase breakdown
///
/// Error mapping: read/parse failures use util::net's contract (400 / 408 /
/// 413 / 501); application errors map NotFound → 404, FailedPrecondition
/// → 409, InvalidArgument → 400, anything else → 500. Every response
/// carries {"error": message} JSON.
class CohortServer {
 public:
  struct Options : util::net::HttpServer::Options {
    /// Provenance served on /statusz; captured at Start when left default.
    obs::RunManifest manifest;
    /// Tail-sampling knobs for /slowz and /tracez (threshold, 1-in-N
    /// sample, ring capacities).
    obs::TailSampler::Options tail;
  };

  /// Binds, writes the port file, and launches the accept loop + workers.
  /// `manager` is borrowed and must outlive the server.
  static util::StatusOr<std::unique_ptr<CohortServer>> Start(
      CohortManager* manager, Options options);

  CohortServer(const CohortServer&) = delete;
  CohortServer& operator=(const CohortServer&) = delete;

  /// The actually bound port (resolves port 0 requests).
  int port() const { return http_.port(); }
  int64_t requests_served() const { return http_.requests_served(); }

  /// The /slowz + /tracez sampler (exposed for tests).
  const obs::TailSampler& tail_sampler() const { return tail_sampler_; }

  /// Stops accepting, drains queued connections, joins all threads.
  /// Idempotent.
  void Stop() { http_.Stop(); }

 private:
  CohortServer(CohortManager* manager, Options options);

  void HandleConnection(util::net::Socket connection);
  std::string Route(const util::net::HttpRequest& request,
                    std::string* endpoint_label);
  // The serve additions to the shared monitoring routes.
  void RefreshGauges() const;
  void AddStatusz(util::JsonValue& json) const;

  CohortManager* manager_;  // not owned
  obs::StatsRouteOptions routes_;
  obs::TailSampler tail_sampler_;
  util::net::HttpServer http_;  // last: its threads use the members above
};

}  // namespace tdg::serve

#endif  // TDG_SERVE_COHORT_SERVER_H_
