// tdg_servectl — scripting client and offline replayer for tdg_serve.
//
//   tdg_servectl run --port=P --schedule=S.json [--from=I] [--to=J]
//       Drives a running server through a schedule file: enrolls the
//       cohort (only when --from=0) and then replays ops[I, J) as HTTP
//       requests. Lets the CI e2e split one schedule around a `kill -9`.
//
//   tdg_servectl dump --port=P --id=ID
//       Fetches every advanced round of a cohort and prints each response
//       body verbatim: one compact JSON line, the canonical
//       AppendCohortRoundJson form.
//
//   tdg_servectl stats --port=P
//       Fetches /statusz from a running server and prints the rolling
//       windowed latency/QPS table (10s/1m/5m per endpoint, latencies in
//       milliseconds) plus the headline serving counters.
//
//   tdg_servectl offline --schedule=S.json --via=cohort|process [--to=J]
//       Replays the same schedule without a server and prints the same
//       JSON lines. --via=cohort drives a local serve::Cohort (any
//       schedule); --via=process drives the batch core::RunProcess (only
//       valid for churn-free star/clique schedules whose size divides
//       evenly — the regime where the two are bitwise-identical). Diffing
//       `dump` against `offline` is the serving plane's end-to-end
//       correctness check: groupings served across enroll → churn →
//       kill -9 → restart must be byte-identical to an uninterrupted
//       offline run.
//
// Schedule file: an enroll payload plus the ops to replay, each one
// serve::CohortOp in the grammar stated at CohortOp (serve/cohort.h):
//   {"id": "...", "config": {...CohortConfig...},
//    "participants": [{"key": "...", "skill": s}, ...],
//    "ops": [{"op": "advance"}, {"op": "join", "key": "...", "skill": s},
//            {"op": "leave", "key": "..."}, ...]}
//
// Exit codes: 0 = ok, 1 = server/application error, 2 = usage error.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/dygroups.h"
#include "core/process.h"
#include "serve/cohort.h"
#include "util/file_util.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/net.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using tdg::serve::AppendCohortRoundJson;
using tdg::serve::Cohort;
using tdg::serve::CohortEnroll;
using tdg::serve::CohortOp;
using tdg::serve::CohortParticipant;
using tdg::util::JsonValue;
using tdg::util::Status;
using tdg::util::StatusOr;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  tdg_servectl run --port=P --schedule=S.json [--from=I] [--to=J]\n"
      "  tdg_servectl dump --port=P --id=ID\n"
      "  tdg_servectl stats --port=P\n"
      "  tdg_servectl offline --schedule=S.json --via=cohort|process "
      "[--to=J]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "tdg_servectl: %s\n", status.ToString().c_str());
  return 1;
}

struct Schedule {
  CohortEnroll enroll;
  std::vector<CohortOp> ops;
};

StatusOr<Schedule> LoadSchedule(const std::string& path) {
  TDG_ASSIGN_OR_RETURN(std::string text, tdg::util::ReadFileToString(path));
  TDG_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(text));
  Schedule schedule;
  TDG_ASSIGN_OR_RETURN(schedule.enroll, CohortEnroll::FromJson(json));
  TDG_ASSIGN_OR_RETURN(JsonValue ops, json.GetField("ops"));
  if (!ops.is_array()) {
    return Status::InvalidArgument("schedule 'ops' must be an array");
  }
  for (const JsonValue& entry : ops.AsArray()) {
    TDG_ASSIGN_OR_RETURN(CohortOp op, tdg::serve::ParseCohortOp(entry));
    schedule.ops.push_back(std::move(op));
  }
  return schedule;
}

/// POSTs and fails on anything but a 2xx.
Status Post(int port, const std::string& path, const std::string& body) {
  TDG_ASSIGN_OR_RETURN(std::string response,
                       tdg::util::net::HttpDo(port, "POST", path, body));
  TDG_ASSIGN_OR_RETURN(int code, tdg::util::net::HttpStatusCode(response));
  if (code / 100 != 2) {
    auto body_text = tdg::util::net::HttpBody(response);
    return Status::Internal(tdg::util::StrFormat(
        "POST %s -> %d: %s", path.c_str(), code,
        body_text.ok() ? body_text->c_str() : "?"));
  }
  return Status::OK();
}

/// GETs and returns the body; fails on anything but a 2xx.
StatusOr<std::string> GetBody(int port, const std::string& path) {
  TDG_ASSIGN_OR_RETURN(std::string response,
                       tdg::util::net::HttpGet(port, path));
  TDG_ASSIGN_OR_RETURN(int code, tdg::util::net::HttpStatusCode(response));
  TDG_ASSIGN_OR_RETURN(std::string body, tdg::util::net::HttpBody(response));
  if (code / 100 != 2) {
    return Status::Internal(tdg::util::StrFormat(
        "GET %s -> %d: %s", path.c_str(), code, body.c_str()));
  }
  return body;
}

StatusOr<JsonValue> GetJson(int port, const std::string& path) {
  TDG_ASSIGN_OR_RETURN(std::string body, GetBody(port, path));
  return JsonValue::Parse(body);
}

/// Prints one round as the server serves it: its wire form and a newline.
void PrintRound(const tdg::serve::CohortRound& round, int t) {
  std::string line;
  AppendCohortRoundJson(round, t, line);
  std::printf("%s\n", line.c_str());
}

int Run(const tdg::util::FlagParser& flags) {
  const int port = static_cast<int>(flags.GetInt("port", 0));
  const std::string schedule_path = flags.GetString("schedule", "");
  if (port <= 0 || schedule_path.empty()) return Usage();
  auto schedule = LoadSchedule(schedule_path);
  if (!schedule.ok()) return Fail(schedule.status());
  const long long from = flags.GetInt("from", 0);
  const long long to = flags.GetInt(
      "to", static_cast<long long>(schedule->ops.size()));
  if (from < 0 || to > static_cast<long long>(schedule->ops.size()) ||
      from > to) {
    return Fail(Status::InvalidArgument("bad --from/--to window"));
  }

  if (from == 0) {
    Status enrolled =
        Post(port, "/cohorts", schedule->enroll.ToJson().Serialize() + "\n");
    if (!enrolled.ok()) return Fail(enrolled);
  }

  // Each op is POSTed to its verb's route with the op itself as the body.
  const std::string base = "/cohorts/" + schedule->enroll.id + "/";
  for (long long i = from; i < to; ++i) {
    const CohortOp& op = schedule->ops[static_cast<size_t>(i)];
    std::string body;
    tdg::serve::AppendCohortOpJson(op, body);
    body.push_back('\n');
    Status applied =
        Post(port, base + std::string(tdg::serve::CohortOpVerb(op.kind)),
             body);
    if (!applied.ok()) return Fail(applied);
  }
  std::fprintf(stderr, "tdg_servectl: applied ops [%lld, %lld) of %s\n",
               from, to, schedule->enroll.id.c_str());
  return 0;
}

int Dump(const tdg::util::FlagParser& flags) {
  const int port = static_cast<int>(flags.GetInt("port", 0));
  const std::string id = flags.GetString("id", "");
  if (port <= 0 || id.empty()) return Usage();
  auto summary = GetJson(port, "/cohorts/" + id);
  if (!summary.ok()) return Fail(summary.status());
  auto rounds = summary->GetField("rounds");
  if (!rounds.ok() || !rounds->is_number()) {
    return Fail(Status::Internal("summary has no 'rounds'"));
  }
  const int total = static_cast<int>(rounds->AsNumber());
  for (int t = 0; t < total; ++t) {
    // The served bytes as they came off the socket, so `cmp` against an
    // offline replay checks the server's own serialization.
    auto round = GetBody(
        port, tdg::util::StrFormat("/cohorts/%s/rounds/%d", id.c_str(), t));
    if (!round.ok()) return Fail(round.status());
    std::fwrite(round->data(), 1, round->size(), stdout);
  }
  return 0;
}

int Stats(const tdg::util::FlagParser& flags) {
  const int port = static_cast<int>(flags.GetInt("port", 0));
  if (port <= 0) return Usage();
  auto statusz = GetJson(port, "/statusz");
  if (!statusz.ok()) return Fail(statusz.status());

  auto headline = [&](const char* field) -> std::string {
    auto value = statusz->GetField(field);
    if (!value.ok()) return "?";
    return value->is_number()
               ? tdg::util::FormatDouble(value->AsNumber(), 2)
               : value->Serialize();
  };
  std::printf("cohorts=%s participants=%s requests_served=%s "
              "uptime_seconds=%s\n",
              headline("cohorts").c_str(),
              headline("resident_participants").c_str(),
              headline("requests_served").c_str(),
              headline("uptime_seconds").c_str());

  auto windows = statusz->GetField("windows");
  if (!windows.ok() || !windows->is_object()) {
    return Fail(Status::Internal(
        "/statusz has no 'windows' (server predates windowed telemetry?)"));
  }
  tdg::util::TablePrinter table({"endpoint", "window", "qps", "count",
                                 "error_rate", "p50_ms", "p95_ms",
                                 "p99_ms"});
  auto number = [](const JsonValue& entry, const char* field) {
    auto value = entry.GetField(field);
    return value.ok() && value->is_number() ? value->AsNumber() : 0.0;
  };
  for (const auto& [endpoint, per_window] : windows->AsObject()) {
    if (!per_window.is_object()) continue;
    for (const auto& [label, entry] : per_window.AsObject()) {
      if (!entry.is_object()) continue;
      // /statusz latencies are seconds; print milliseconds.
      table.AddRow(
          {endpoint, label, tdg::util::FormatDouble(number(entry, "qps"), 2),
           tdg::util::FormatDouble(number(entry, "count"), 0),
           tdg::util::FormatDouble(number(entry, "error_rate"), 3),
           tdg::util::FormatDouble(number(entry, "p50") * 1e3, 3),
           tdg::util::FormatDouble(number(entry, "p95") * 1e3, 3),
           tdg::util::FormatDouble(number(entry, "p99") * 1e3, 3)});
    }
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int OfflineViaCohort(const Schedule& schedule, long long to) {
  const CohortEnroll& enroll = schedule.enroll;
  auto cohort = Cohort::Create(enroll.id, enroll.config, enroll.participants);
  if (!cohort.ok()) return Fail(cohort.status());
  for (long long i = 0; i < to; ++i) {
    Status applied = cohort->Apply(schedule.ops[static_cast<size_t>(i)]);
    if (!applied.ok()) return Fail(applied);
  }
  for (int t = 0; t < cohort->rounds_advanced(); ++t) {
    PrintRound(cohort->rounds()[static_cast<size_t>(t)], t);
  }
  return 0;
}

int OfflineViaProcess(const Schedule& schedule, long long to) {
  const CohortEnroll& enroll = schedule.enroll;
  // The batch driver runs a fixed population for a fixed α, so it only
  // matches schedules with no churn, an evenly dividing size, and a
  // deterministic DyGroups policy.
  const int n = static_cast<int>(enroll.participants.size());
  if (enroll.config.policy == tdg::serve::CohortPolicy::kRandom) {
    return Fail(Status::InvalidArgument(
        "--via=process cannot replay the random policy"));
  }
  if (n < enroll.config.group_size ||
      n % enroll.config.group_size != 0) {
    return Fail(Status::InvalidArgument(
        "--via=process needs n divisible by group_size"));
  }
  for (long long i = 0; i < to; ++i) {
    if (schedule.ops[static_cast<size_t>(i)].kind != CohortOp::kAdvance) {
      return Fail(Status::InvalidArgument(
          "--via=process cannot replay join/leave churn"));
    }
  }
  const int num_rounds = static_cast<int>(to);

  // No churn: every round shares one id vector, as a served cohort's do.
  tdg::SkillVector skills;
  auto table = std::make_shared<tdg::serve::KeyTable>();
  auto ids = std::make_shared<std::vector<uint32_t>>();
  for (const CohortParticipant& participant : enroll.participants) {
    skills.push_back(participant.skill);
    const auto id = static_cast<uint32_t>(ids->size());
    table->Append(id, participant.key);
    ids->push_back(id);
  }
  auto gain = tdg::LinearGain::Create(enroll.config.learning_rate);
  if (!gain.ok()) return Fail(gain.status());
  tdg::ProcessConfig config;
  config.num_groups = n / enroll.config.group_size;
  config.num_rounds = num_rounds;
  config.mode = enroll.config.mode;
  config.record_history = true;
  auto policy = tdg::MakeDyGroupsPolicy(
      enroll.config.policy == tdg::serve::CohortPolicy::kStar
          ? tdg::InteractionMode::kStar
          : tdg::InteractionMode::kClique);
  auto result = tdg::RunProcess(skills, config, *gain, *policy);
  if (!result.ok()) return Fail(result.status());

  for (int t = 0; t < num_rounds; ++t) {
    const tdg::RoundRecord& record =
        result->history[static_cast<size_t>(t)];
    tdg::serve::CohortRound round;
    round.table = table;
    round.ids = ids;
    round.assignment = std::make_shared<const std::vector<int>>(
        record.grouping.Assignment(n));
    round.num_groups = record.grouping.num_groups();
    round.gain = record.gain;
    PrintRound(round, t);
  }
  return 0;
}

int Offline(const tdg::util::FlagParser& flags) {
  const std::string schedule_path = flags.GetString("schedule", "");
  const std::string via = flags.GetString("via", "cohort");
  if (schedule_path.empty()) return Usage();
  auto schedule = LoadSchedule(schedule_path);
  if (!schedule.ok()) return Fail(schedule.status());
  const long long to = flags.GetInt(
      "to", static_cast<long long>(schedule->ops.size()));
  if (to < 0 || to > static_cast<long long>(schedule->ops.size())) {
    return Fail(Status::InvalidArgument("bad --to"));
  }
  if (via == "cohort") return OfflineViaCohort(*schedule, to);
  if (via == "process") return OfflineViaProcess(*schedule, to);
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  using enum tdg::util::FlagKind;
  tdg::util::FlagParser flags;
  const Status parsed = flags.Parse(
      argc, argv,
      {{"port", kInt}, {"schedule", kString}, {"from", kInt}, {"to", kInt},
       {"id", kString}, {"via", kString}});
  if (!parsed.ok()) {
    std::fprintf(stderr, "tdg_servectl: %s\n", parsed.ToString().c_str());
    return Usage();
  }
  if (flags.positional().empty()) return Usage();
  const std::string& command = flags.positional()[0];
  if (command == "run") return Run(flags);
  if (command == "dump") return Dump(flags);
  if (command == "stats") return Stats(flags);
  if (command == "offline") return Offline(flags);
  return Usage();
}
