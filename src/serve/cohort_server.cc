#include "serve/cohort_server.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/string_util.h"

namespace tdg::serve {
namespace {

std::string OkJson(const util::JsonValue& json) {
  return util::net::BuildHttpResponse(200, "OK", "application/json",
                                      json.Serialize() + "\n");
}

/// Application-level status → HTTP. (Transport-level read failures go
/// through util::net::BuildHttpErrorResponse instead.)
std::string AppErrorResponse(const util::Status& status) {
  switch (status.code()) {
    case util::StatusCode::kNotFound:
      return util::net::BuildHttpJsonError(404, "Not Found",
                                           status.message());
    case util::StatusCode::kFailedPrecondition:
      return util::net::BuildHttpJsonError(409, "Conflict", status.message());
    case util::StatusCode::kInvalidArgument:
      return util::net::BuildHttpJsonError(400, "Bad Request",
                                           status.message());
    default:
      return util::net::BuildHttpJsonError(500, "Internal Server Error",
                                           status.message());
  }
}

std::string MethodNotAllowed() {
  return util::net::BuildHttpJsonError(405, "Method Not Allowed",
                                       "method not allowed on this endpoint");
}

util::JsonValue SummaryJson(const CohortManager::Summary& summary) {
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("config", summary.config.ToJson());
  json.Set("id", summary.id);
  json.Set("participants", summary.participants);
  json.Set("rounds", summary.rounds);
  return json;
}

/// Splits "/cohorts/<id>[/<verb>[/<arg>]]" into its path segments after
/// "/cohorts/". Returns false when the path is not under /cohorts/.
bool SplitCohortPath(std::string_view path,
                     std::vector<std::string>* segments) {
  constexpr std::string_view kPrefix = "/cohorts/";
  if (path.substr(0, kPrefix.size()) != kPrefix) return false;
  std::string_view rest = path.substr(kPrefix.size());
  segments->clear();
  while (!rest.empty()) {
    const size_t slash = rest.find('/');
    if (slash == std::string_view::npos) {
      segments->push_back(std::string(rest));
      break;
    }
    segments->push_back(std::string(rest.substr(0, slash)));
    rest = rest.substr(slash + 1);
  }
  // "/cohorts//x" produces an empty segment; treat as not found.
  for (const std::string& segment : *segments) {
    if (segment.empty()) return false;
  }
  return !segments->empty();
}

}  // namespace

CohortServer::CohortServer(CohortManager* manager, Options options)
    : manager_(manager),
      tail_sampler_(options.tail),
      http_(options, [this](const util::net::HttpServer&,
                            util::net::Socket connection) {
        HandleConnection(std::move(connection));
      }) {
  routes_.manifest = std::move(options.manifest);
}

util::StatusOr<std::unique_ptr<CohortServer>> CohortServer::Start(
    CohortManager* manager, Options options) {
  if (manager == nullptr) {
    return util::Status::InvalidArgument(
        "CohortServer needs a CohortManager");
  }
  if (options.manifest.git_sha.empty()) {
    options.manifest = obs::RunManifest::Capture();
  }
  std::unique_ptr<CohortServer> server(
      new CohortServer(manager, std::move(options)));
  TDG_RETURN_IF_ERROR(server->http_.Start());
  return server;
}

void CohortServer::HandleConnection(util::net::Socket connection) {
  // One trace per accepted connection: the context rides a thread-local
  // down through CohortManager/Cohort (phase spans) and its id is stamped
  // into every flight-recorder record the request emits, so a /tracez id
  // resolves to the request's causal path in a tdg_blackbox dump.
  obs::RequestContext context;
  context.trace_id = obs::MintTraceId();
  obs::ScopedRequestContext bind_context(context);

  util::StatusOr<util::net::HttpRequest> request = [&] {
    obs::ScopedRequestPhase parse_phase(obs::RequestPhase::kParse);
    return util::net::ReadHttpRequest(connection, http_.limits());
  }();
  std::string endpoint_label = "other";
  std::string response;
  if (!request.ok()) {
    // Transport/limit rejections (408/413/400/...) are requests too: they
    // get the "unreadable" endpoint label and flow through the same
    // latency histograms and response-class counters as routed traffic.
    response = util::net::BuildHttpErrorResponse(request.status());
    endpoint_label = "unreadable";
  } else {
    response = Route(*request, &endpoint_label);
  }
  {
    obs::ScopedRequestPhase serialize_phase(obs::RequestPhase::kSerialize);
    (void)connection.WriteAll(response);
    connection.Close();
  }

  auto code = util::net::HttpStatusCode(response);
  const int status = code.ok() ? *code : 500;
  context.endpoint = endpoint_label;
  obs::FinishRequest(context, status);
  tail_sampler_.Offer(context);
  // Per-endpoint latency (rolling windows and cumulative histogram) and
  // response classes are tdg_serve's /metrics product surface, like the
  // tail sampler. Their names are dynamic, so they use the registry API,
  // not the macros; label sets are bounded by the router, so they cannot
  // grow the registry without bound.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const double micros = static_cast<double>(context.total_micros);
  registry
      .GetWindowed("serve/latency_seconds/" + endpoint_label,
                   /*output_scale=*/1e-6)
      .Record(micros, /*error=*/status >= 400);
  registry.GetHistogram("serve/latency/" + endpoint_label).Record(micros);
  const int klass = status / 100;
  registry
      .GetCounter(klass == 2   ? "serve/responses/2xx"
                  : klass == 4 ? "serve/responses/4xx"
                  : klass == 5 ? "serve/responses/5xx"
                               : "serve/responses/other")
      .Add(1);
  TDG_OBS_COUNTER_ADD("serve/requests", 1);
}

std::string CohortServer::Route(const util::net::HttpRequest& request,
                                std::string* endpoint_label) {
  if (auto shared = obs::ServeStatsRoute(
          request, http_, routes_,
          {[this] { RefreshGauges(); },
           [this](util::JsonValue& json) { AddStatusz(json); }})) {
    *endpoint_label = request.path.substr(1);
    return std::move(*shared);
  }
  const std::string& method = request.method;
  const std::string& path = request.path;
  const bool get = method == "GET" || method == "HEAD";
  const bool post = method == "POST";
  if (!get && !post) {
    *endpoint_label = "other";
    return MethodNotAllowed();
  }

  if (path == "/tracez") {
    *endpoint_label = "tracez";
    if (!get) return MethodNotAllowed();
    return OkJson(tail_sampler_.RecentTracesJson());
  }

  if (path == "/slowz") {
    *endpoint_label = "slowz";
    if (!get) return MethodNotAllowed();
    return util::net::BuildHttpResponse(200, "OK", "application/x-ndjson",
                                        tail_sampler_.SlowTracesJsonl());
  }

  if (path == "/cohorts") {
    *endpoint_label = "cohorts";
    if (get) {
      util::JsonValue cohorts = util::JsonValue::MakeArray();
      for (const std::string& id : manager_->CohortIds()) {
        auto summary = manager_->GetSummary(id);
        if (summary.ok()) cohorts.Append(SummaryJson(*summary));
      }
      util::JsonValue json = util::JsonValue::MakeObject();
      json.Set("cohorts", std::move(cohorts));
      return OkJson(json);
    }
    // POST /cohorts — enroll.
    auto body = util::JsonValue::Parse(request.body);
    if (!body.ok()) return AppErrorResponse(body.status());
    auto enroll = CohortEnroll::FromJson(*body);
    if (!enroll.ok()) return AppErrorResponse(enroll.status());
    util::Status enrolled =
        manager_->Enroll(enroll->id, enroll->config, enroll->participants);
    if (!enrolled.ok()) return AppErrorResponse(enrolled);
    util::JsonValue json = util::JsonValue::MakeObject();
    json.Set("id", enroll->id);
    json.Set("participants",
             static_cast<long long>(enroll->participants.size()));
    return util::net::BuildHttpResponse(201, "Created", "application/json",
                                        json.Serialize() + "\n");
  }

  std::vector<std::string> segments;
  if (SplitCohortPath(path, &segments)) {
    const std::string& id = segments[0];
    if (segments.size() == 1) {
      *endpoint_label = "cohort";
      if (!get) return MethodNotAllowed();
      auto summary = manager_->GetSummary(id);
      if (!summary.ok()) return AppErrorResponse(summary.status());
      return OkJson(SummaryJson(*summary));
    }
    if (segments.size() == 3 && segments[1] == "rounds") {
      *endpoint_label = "round";
      if (!get) return MethodNotAllowed();
      auto round_index = util::ParseInt(segments[2]);
      if (!round_index.ok() || *round_index < 0 ||
          *round_index > 1000000000) {
        return AppErrorResponse(util::Status::InvalidArgument(
            "round index must be a non-negative integer"));
      }
      auto round = manager_->GetRound(id, static_cast<int>(*round_index));
      if (!round.ok()) return AppErrorResponse(round.status());
      // The cohort lock is released; the round's bytes stream straight
      // into the body.
      obs::ScopedRequestPhase serialize_phase(obs::RequestPhase::kSerialize);
      std::string body;
      AppendCohortRoundJson(*round, static_cast<int>(*round_index), body);
      body.push_back('\n');
      return util::net::BuildHttpResponse(200, "OK", "application/json",
                                          body);
    }
    if (segments.size() == 2 &&
        (segments[1] == "advance" || segments[1] == "join" ||
         segments[1] == "leave")) {
      const std::string& verb = segments[1];
      *endpoint_label = verb;
      if (!post) return MethodNotAllowed();
      // An advance takes no fields, so its body is never read.
      util::JsonValue fields;
      if (verb != "advance") {
        auto body = util::JsonValue::Parse(request.body);
        if (!body.ok()) return AppErrorResponse(body.status());
        fields = *std::move(body);
      }
      auto op = ParseCohortOp(verb, fields);
      if (!op.ok()) return AppErrorResponse(op.status());
      auto applied = manager_->Apply(id, *op);
      if (!applied.ok()) return AppErrorResponse(applied.status());
      util::JsonValue json = util::JsonValue::MakeObject();
      if (op->kind == CohortOp::kAdvance) {
        json.Set("gain", applied->gain);
        json.Set("round", applied->round);
      } else {
        json.Set("id", id);
        json.Set("participants", applied->participants);
      }
      return OkJson(json);
    }
  }

  *endpoint_label = "other";
  return util::net::BuildHttpJsonError(404, "Not Found", "no such endpoint");
}

void CohortServer::RefreshGauges() const {
  TDG_OBS_GAUGE_SET("serve/cohorts",
                    static_cast<double>(manager_->num_cohorts()));
  TDG_OBS_GAUGE_SET("serve/resident_participants",
                    static_cast<double>(manager_->total_participants()));
}

void CohortServer::AddStatusz(util::JsonValue& json) const {
  json.Set("cohorts", manager_->num_cohorts());
  json.Set("resident_participants",
           static_cast<long long>(manager_->total_participants()));
  const CohortManager::RestoreStats& restore = manager_->restore_stats();
  util::JsonValue restore_json = util::JsonValue::MakeObject();
  restore_json.Set("journals", restore.journals);
  restore_json.Set("ops", restore.ops);
  restore_json.Set("threads", restore.threads);
  restore_json.Set("seconds", restore.seconds);
  json.Set("restore", std::move(restore_json));
  // Rolling latency windows per endpoint: {"advance": {"1m": {qps, p50,
  // p95, p99, error_rate, count}, ...}, ...}. Latencies in seconds.
  util::JsonValue windows_json = util::JsonValue::MakeObject();
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  constexpr std::string_view kWindowedPrefix = "serve/latency_seconds/";
  for (const auto& [name, stats] : snapshot.windowed) {
    if (name.substr(0, kWindowedPrefix.size()) != kWindowedPrefix) continue;
    util::JsonValue per_endpoint = util::JsonValue::MakeObject();
    for (const obs::WindowStats& w : stats.windows) {
      util::JsonValue entry = util::JsonValue::MakeObject();
      entry.Set("count", static_cast<long long>(w.count));
      entry.Set("qps", w.qps);
      entry.Set("error_rate", w.error_rate);
      entry.Set("p50", w.p50);
      entry.Set("p95", w.p95);
      entry.Set("p99", w.p99);
      per_endpoint.Set(w.label, std::move(entry));
    }
    windows_json.Set(std::string(name.substr(kWindowedPrefix.size())),
                     std::move(per_endpoint));
  }
  json.Set("windows", std::move(windows_json));
}

}  // namespace tdg::serve
