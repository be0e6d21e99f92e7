#include "serve/cohort_manager.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#if defined(TDG_TEST_HOOKS)
#include <chrono>
#include <cstdlib>
#include <thread>
#endif

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/run_manifest.h"
#include "util/string_util.h"

namespace tdg::serve {
namespace {

constexpr std::string_view kJournalSchema = "tdg.cohort_journal.v1";
constexpr std::string_view kJournalSuffix = ".cohort";

/// Build+config digest stamped into every journal header. Covers the build
/// provenance (same convention as the sweep checkpoints: a rebuilt binary
/// refuses to replay) plus the cohort's identity and config — but not the
/// participants, whose integrity the JSON parse already checks.
std::string JournalDigest(const std::string& id, const CohortConfig& config) {
  return obs::RunManifest::Capture().BuildDigest(
      util::StrFormat("cohort/%s/%s", id.c_str(),
                      config.ToJson().Serialize().c_str()));
}

util::JsonValue ParticipantsToJson(
    const std::vector<CohortParticipant>& participants) {
  util::JsonValue array = util::JsonValue::MakeArray();
  for (const CohortParticipant& participant : participants) {
    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("key", participant.key);
    entry.Set("skill", participant.skill);
    array.Append(std::move(entry));
  }
  return array;
}

std::string HeaderLine(const std::string& id, const CohortConfig& config,
                       const std::vector<CohortParticipant>& participants) {
  util::JsonValue header = util::JsonValue::MakeObject();
  header.Set("schema", std::string(kJournalSchema));
  header.Set("id", id);
  header.Set("config", config.ToJson());
  header.Set("participants", ParticipantsToJson(participants));
  header.Set("digest", JournalDigest(id, config));
  return header.Serialize();
}

std::string JoinOpLine(const std::string& key, double skill) {
  util::JsonValue op = util::JsonValue::MakeObject();
  op.Set("op", "join");
  op.Set("key", key);
  op.Set("skill", skill);
  return op.Serialize();
}

std::string LeaveOpLine(const std::string& key) {
  util::JsonValue op = util::JsonValue::MakeObject();
  op.Set("op", "leave");
  op.Set("key", key);
  return op.Serialize();
}

std::string AdvanceOpLine() {
  util::JsonValue op = util::JsonValue::MakeObject();
  op.Set("op", "advance");
  return op.Serialize();
}

#if defined(TDG_TEST_HOOKS)
/// Test-only latency injection (sweep_shard's TDG_TEST_CRASH_AFTER_CELLS
/// idiom): TDG_TEST_SLOW_ADVANCE_MICROS=<n> stalls the compute phase of
/// every Advance by n microseconds, giving the tracing CI e2e a
/// deterministic slow request for /slowz to catch.
void MaybeInjectSlowAdvance() {
  static const long delay_micros = [] {
    const char* value = std::getenv("TDG_TEST_SLOW_ADVANCE_MICROS");
    return value != nullptr ? std::atol(value) : 0L;
  }();
  if (delay_micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_micros));
  }
}
#endif

void RecordChurn(const Cohort& cohort, int joined, int left) {
  TDG_BLACKBOX(obs::BlackboxEventType::kCohortChurn,
               static_cast<double>(cohort.id_hash()),
               static_cast<double>(cohort.rounds_advanced()),
               static_cast<double>(joined), static_cast<double>(left),
               static_cast<double>(cohort.num_participants()));
}

}  // namespace

util::StatusOr<std::unique_ptr<CohortManager>> CohortManager::Open(
    Options options) {
  std::unique_ptr<CohortManager> manager(
      new CohortManager(std::move(options)));
  const std::string& dir = manager->options_.state_dir;
  if (dir.empty()) return manager;

  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return util::Status::IOError(util::StrFormat(
        "cannot create state dir '%s': %s", dir.c_str(),
        std::strerror(errno)));
  }
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return util::Status::IOError(util::StrFormat(
        "cannot open state dir '%s': %s", dir.c_str(),
        std::strerror(errno)));
  }
  std::vector<std::string> journals;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.size() > kJournalSuffix.size() &&
        name.compare(name.size() - kJournalSuffix.size(),
                     kJournalSuffix.size(), kJournalSuffix) == 0) {
      journals.push_back(name);
    }
  }
  ::closedir(handle);
  // Deterministic replay order (readdir order is filesystem-dependent).
  std::sort(journals.begin(), journals.end());
  for (const std::string& name : journals) {
    TDG_RETURN_IF_ERROR(manager->ReplayJournal(dir + "/" + name));
  }
  return manager;
}

std::string CohortManager::JournalPath(const std::string& id) const {
  return options_.state_dir + "/" + id + std::string(kJournalSuffix);
}

util::Status CohortManager::ReplayJournal(const std::string& path) {
  TDG_ASSIGN_OR_RETURN(std::string text, util::ReadFileToString(path));

  // Split into lines, remembering each line's byte offset so a torn final
  // line (crash mid-append) can be truncated away in place.
  struct Line {
    std::string_view text;
    uint64_t offset = 0;
    bool complete = false;  // terminated by '\n'
  };
  std::vector<Line> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t newline = text.find('\n', start);
    Line line;
    line.offset = start;
    if (newline == std::string::npos) {
      line.text = std::string_view(text).substr(start);
      line.complete = false;
      start = text.size();
    } else {
      line.text = std::string_view(text).substr(start, newline - start);
      line.complete = true;
      start = newline + 1;
    }
    if (!line.text.empty()) lines.push_back(line);
  }

  // Parse every line up front; a bad *final* line is a torn append and is
  // healed by truncation, a bad line anywhere else is corruption.
  std::vector<util::JsonValue> records;
  records.reserve(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    auto parsed = util::JsonValue::Parse(lines[i].text);
    if (!parsed.ok() || !lines[i].complete) {
      if (i + 1 == lines.size()) {
        TDG_RETURN_IF_ERROR(util::TruncateFile(path, lines[i].offset));
        break;
      }
      return util::Status::IOError(util::StrFormat(
          "journal '%s' is corrupt at line %zu (not a torn tail): %s",
          path.c_str(), i + 1, parsed.ok()
                                   ? "unterminated line before the tail"
                                   : parsed.status().message().c_str()));
    }
    records.push_back(std::move(parsed).value());
  }
  if (records.empty()) {
    return util::Status::IOError(util::StrFormat(
        "journal '%s' has no usable header line", path.c_str()));
  }

  // Header: schema + digest gate, then the enroll payload.
  const util::JsonValue& header = records[0];
  TDG_ASSIGN_OR_RETURN(util::JsonValue schema, header.GetField("schema"));
  if (!schema.is_string() || schema.AsString() != kJournalSchema) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "journal '%s' has schema '%s', want '%.*s'", path.c_str(),
        schema.is_string() ? schema.AsString().c_str() : "?",
        static_cast<int>(kJournalSchema.size()), kJournalSchema.data()));
  }
  TDG_ASSIGN_OR_RETURN(util::JsonValue id_json, header.GetField("id"));
  TDG_ASSIGN_OR_RETURN(util::JsonValue config_json,
                       header.GetField("config"));
  TDG_ASSIGN_OR_RETURN(util::JsonValue participants_json,
                       header.GetField("participants"));
  TDG_ASSIGN_OR_RETURN(util::JsonValue digest_json,
                       header.GetField("digest"));
  if (!id_json.is_string() || !digest_json.is_string()) {
    return util::Status::IOError(util::StrFormat(
        "journal '%s' header is malformed", path.c_str()));
  }
  const std::string& id = id_json.AsString();
  TDG_RETURN_IF_ERROR(ValidateCohortId(id));
  if (JournalPath(id) != path) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "journal '%s' declares cohort id '%s', which does not match its "
        "file name",
        path.c_str(), id.c_str()));
  }
  TDG_ASSIGN_OR_RETURN(CohortConfig config,
                       CohortConfig::FromJson(config_json));
  if (digest_json.AsString() != JournalDigest(id, config)) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "journal '%s' was written by a different build or its header was "
        "edited (digest mismatch); refusing to replay",
        path.c_str()));
  }
  TDG_ASSIGN_OR_RETURN(std::vector<CohortParticipant> participants,
                       ParticipantsFromJson(participants_json));
  TDG_ASSIGN_OR_RETURN(Cohort cohort,
                       Cohort::Create(id, config, participants));

  // Ops. Every journaled op passed its precheck when appended, so replay
  // failures mean the journal (not the request stream) is damaged.
  for (size_t i = 1; i < records.size(); ++i) {
    TDG_ASSIGN_OR_RETURN(util::JsonValue op_json,
                         records[i].GetField("op"));
    if (!op_json.is_string()) {
      return util::Status::IOError(util::StrFormat(
          "journal '%s' op line %zu is malformed", path.c_str(), i + 1));
    }
    const std::string& op = op_json.AsString();
    util::Status applied = util::Status::OK();
    if (op == "join") {
      TDG_ASSIGN_OR_RETURN(util::JsonValue key, records[i].GetField("key"));
      TDG_ASSIGN_OR_RETURN(util::JsonValue skill,
                           records[i].GetField("skill"));
      if (!key.is_string() || !skill.is_number()) {
        return util::Status::IOError(util::StrFormat(
            "journal '%s' join op %zu is malformed", path.c_str(), i + 1));
      }
      applied = cohort.Join(key.AsString(), skill.AsNumber());
    } else if (op == "leave") {
      TDG_ASSIGN_OR_RETURN(util::JsonValue key, records[i].GetField("key"));
      if (!key.is_string()) {
        return util::Status::IOError(util::StrFormat(
            "journal '%s' leave op %zu is malformed", path.c_str(), i + 1));
      }
      applied = cohort.Leave(key.AsString());
    } else if (op == "advance") {
      applied = cohort.Advance().status();
    } else {
      return util::Status::IOError(util::StrFormat(
          "journal '%s' op line %zu has unknown op '%s'", path.c_str(),
          i + 1, op.c_str()));
    }
    if (!applied.ok()) {
      return util::Status::IOError(util::StrFormat(
          "journal '%s' op line %zu does not replay: %s", path.c_str(),
          i + 1, applied.message().c_str()));
    }
  }

  TDG_BLACKBOX(obs::BlackboxEventType::kCohortRestore,
               static_cast<double>(cohort.id_hash()),
               static_cast<double>(cohort.rounds_advanced()),
               static_cast<double>(cohort.num_participants()));
  TDG_OBS_COUNTER_ADD("serve/cohort_restores", 1);

  auto entry = std::make_unique<Entry>(std::move(cohort));
  TDG_ASSIGN_OR_RETURN(entry->journal, util::DurableAppendFile::Open(path));
  std::lock_guard<std::mutex> lock(map_mutex_);
  cohorts_.emplace(id, std::move(entry));
  ++restored_cohorts_;
  return util::Status::OK();
}

util::Status CohortManager::Enroll(
    const std::string& id, const CohortConfig& config,
    const std::vector<CohortParticipant>& participants) {
  TDG_ASSIGN_OR_RETURN(Cohort cohort,
                       Cohort::Create(id, config, participants));
  auto entry = std::make_unique<Entry>(std::move(cohort));
  if (!options_.state_dir.empty()) {
    const std::string path = JournalPath(id);
    {
      std::lock_guard<std::mutex> lock(map_mutex_);
      if (cohorts_.count(id) != 0) {
        return util::Status::FailedPrecondition(util::StrFormat(
            "cohort '%s' already exists", id.c_str()));
      }
    }
    if (util::FileExists(path)) {
      return util::Status::FailedPrecondition(util::StrFormat(
          "cohort '%s' already has a journal at '%s'", id.c_str(),
          path.c_str()));
    }
    TDG_ASSIGN_OR_RETURN(entry->journal, util::DurableAppendFile::Open(path));
    util::Status appended =
        entry->journal.AppendLine(HeaderLine(id, config, participants));
    if (!appended.ok()) {
      entry->journal.Close();
      ::unlink(path.c_str());
      return appended;
    }
  }

  const Cohort& resident = entry->cohort;
  TDG_BLACKBOX(obs::BlackboxEventType::kCohortEnroll,
               static_cast<double>(resident.id_hash()),
               static_cast<double>(resident.num_participants()),
               static_cast<double>(config.group_size),
               static_cast<double>(config.mode));
  TDG_OBS_COUNTER_ADD("serve/cohort_enrolls", 1);

  std::lock_guard<std::mutex> lock(map_mutex_);
  if (!cohorts_.emplace(id, std::move(entry)).second) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "cohort '%s' already exists", id.c_str()));
  }
  return util::Status::OK();
}

util::StatusOr<CohortManager::Entry*> CohortManager::Find(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  auto it = cohorts_.find(id);
  if (it == cohorts_.end()) {
    return util::Status::NotFound(
        util::StrFormat("no cohort '%s'", id.c_str()));
  }
  return it->second.get();
}

util::Status CohortManager::Join(const std::string& id,
                                 const std::string& key, double skill) {
  TDG_ASSIGN_OR_RETURN(Entry * entry, Find(id));
  // Per-entry lock acquisition is a traced phase: under contention this is
  // where a request's tail latency hides (DESIGN.md §14).
  std::unique_lock<std::mutex> lock(entry->mutex, std::defer_lock);
  {
    obs::ScopedRequestPhase lock_phase(obs::RequestPhase::kLockWait);
    lock.lock();
  }
  TDG_RETURN_IF_ERROR(entry->cohort.CanJoin(key, skill));
  if (entry->journal.is_open()) {
    obs::ScopedRequestPhase journal_phase(obs::RequestPhase::kJournal);
    TDG_RETURN_IF_ERROR(entry->journal.AppendLine(JoinOpLine(key, skill)));
  }
  TDG_RETURN_IF_ERROR(entry->cohort.Join(key, skill));
  RecordChurn(entry->cohort, /*joined=*/1, /*left=*/0);
  TDG_OBS_COUNTER_ADD("serve/cohort_joins", 1);
  return util::Status::OK();
}

util::Status CohortManager::Leave(const std::string& id,
                                  const std::string& key) {
  TDG_ASSIGN_OR_RETURN(Entry * entry, Find(id));
  std::unique_lock<std::mutex> lock(entry->mutex, std::defer_lock);
  {
    obs::ScopedRequestPhase lock_phase(obs::RequestPhase::kLockWait);
    lock.lock();
  }
  TDG_RETURN_IF_ERROR(entry->cohort.CanLeave(key));
  if (entry->journal.is_open()) {
    obs::ScopedRequestPhase journal_phase(obs::RequestPhase::kJournal);
    TDG_RETURN_IF_ERROR(entry->journal.AppendLine(LeaveOpLine(key)));
  }
  TDG_RETURN_IF_ERROR(entry->cohort.Leave(key));
  RecordChurn(entry->cohort, /*joined=*/0, /*left=*/1);
  TDG_OBS_COUNTER_ADD("serve/cohort_leaves", 1);
  return util::Status::OK();
}

util::StatusOr<CohortManager::Advanced> CohortManager::Advance(
    const std::string& id) {
  TDG_ASSIGN_OR_RETURN(Entry * entry, Find(id));
  std::unique_lock<std::mutex> lock(entry->mutex, std::defer_lock);
  {
    obs::ScopedRequestPhase lock_phase(obs::RequestPhase::kLockWait);
    lock.lock();
  }
  TDG_RETURN_IF_ERROR(entry->cohort.CanAdvance());
  if (entry->journal.is_open()) {
    obs::ScopedRequestPhase journal_phase(obs::RequestPhase::kJournal);
    TDG_RETURN_IF_ERROR(entry->journal.AppendLine(AdvanceOpLine()));
  }
  obs::ScopedRequestPhase compute_phase(obs::RequestPhase::kCompute);
#if defined(TDG_TEST_HOOKS)
  MaybeInjectSlowAdvance();
#endif
  TDG_ASSIGN_OR_RETURN(double gain, entry->cohort.Advance());
  return Advanced{gain, entry->cohort.rounds_advanced() - 1};
}

std::vector<std::string> CohortManager::CohortIds() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  std::vector<std::string> ids;
  ids.reserve(cohorts_.size());
  for (const auto& [id, entry] : cohorts_) ids.push_back(id);
  return ids;  // std::map iterates sorted
}

util::StatusOr<CohortManager::Summary> CohortManager::GetSummary(
    const std::string& id) const {
  TDG_ASSIGN_OR_RETURN(Entry * entry, Find(id));
  std::unique_lock<std::mutex> lock(entry->mutex, std::defer_lock);
  {
    obs::ScopedRequestPhase lock_phase(obs::RequestPhase::kLockWait);
    lock.lock();
  }
  Summary summary;
  summary.id = entry->cohort.id();
  summary.rounds = entry->cohort.rounds_advanced();
  summary.participants = entry->cohort.num_participants();
  summary.config = entry->cohort.config();
  return summary;
}

util::StatusOr<CohortRound> CohortManager::GetRound(const std::string& id,
                                                    int round) const {
  TDG_ASSIGN_OR_RETURN(Entry * entry, Find(id));
  std::unique_lock<std::mutex> lock(entry->mutex, std::defer_lock);
  {
    obs::ScopedRequestPhase lock_phase(obs::RequestPhase::kLockWait);
    lock.lock();
  }
  if (round < 0 || round >= entry->cohort.rounds_advanced()) {
    return util::Status::NotFound(util::StrFormat(
        "cohort '%s' has %d rounds; round %d does not exist yet",
        id.c_str(), entry->cohort.rounds_advanced(), round));
  }
  return entry->cohort.rounds()[static_cast<size_t>(round)];
}

util::StatusOr<Cohort> CohortManager::SnapshotCohort(
    const std::string& id) const {
  TDG_ASSIGN_OR_RETURN(Entry * entry, Find(id));
  std::lock_guard<std::mutex> lock(entry->mutex);
  return entry->cohort;
}

int CohortManager::num_cohorts() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return static_cast<int>(cohorts_.size());
}

long long CohortManager::total_participants() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  long long total = 0;
  for (const auto& [id, entry] : cohorts_) {
    std::lock_guard<std::mutex> entry_lock(entry->mutex);
    total += entry->cohort.num_participants();
  }
  return total;
}

}  // namespace tdg::serve
