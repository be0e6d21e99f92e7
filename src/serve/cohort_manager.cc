#include "serve/cohort_manager.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
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
#include "util/logging.h"
#include "util/parallel_for.h"
#include "util/stopwatch.h"
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

/// The journal's first line: the enroll payload plus schema and digest.
std::string HeaderLine(const CohortEnroll& enroll) {
  util::JsonValue header = enroll.ToJson();
  header.Set("schema", std::string(kJournalSchema));
  header.Set("digest", JournalDigest(enroll.id, enroll.config));
  return header.Serialize();
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

/// The cohort a journal's header line enrolls, after its schema and
/// digest gates.
util::StatusOr<Cohort> CohortFromHeader(const util::JsonValue& header) {
  TDG_ASSIGN_OR_RETURN(util::JsonValue schema, header.GetField("schema"));
  if (!schema.is_string() || schema.AsString() != kJournalSchema) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "journal schema is '%s', want '%.*s'",
        schema.is_string() ? schema.AsString().c_str() : "?",
        static_cast<int>(kJournalSchema.size()), kJournalSchema.data()));
  }
  TDG_ASSIGN_OR_RETURN(CohortEnroll enroll, CohortEnroll::FromJson(header));
  auto digest = header.GetField("digest");
  if (!digest.ok() || !digest->is_string() ||
      digest->AsString() != JournalDigest(enroll.id, enroll.config)) {
    return util::Status::FailedPrecondition(
        "journal was written by a different build or its header was edited "
        "(digest mismatch); refusing to replay");
  }
  return Cohort::Create(enroll.id, enroll.config, enroll.participants);
}

// The parameters are unused when TDG_OBS_DISABLED compiles TDG_BLACKBOX out.
void RecordChurn([[maybe_unused]] const Cohort& cohort,
                 [[maybe_unused]] int joined, [[maybe_unused]] int left) {
  TDG_BLACKBOX(obs::BlackboxEventType::kCohortChurn,
               static_cast<double>(cohort.id_hash()),
               static_cast<double>(cohort.rounds_advanced()),
               static_cast<double>(joined), static_cast<double>(left),
               static_cast<double>(cohort.num_participants()));
}

}  // namespace

/// One journal's replay: the read phase fills everything but `path` from
/// the file alone; the commit phase acts on it.
struct CohortManager::Replay {
  std::string path;
  util::StatusOr<util::DurablePrefix> prefix = util::DurablePrefix{};
  std::optional<Cohort> cohort;
};

util::StatusOr<std::unique_ptr<CohortManager>> CohortManager::Open(
    Options options) {
  std::unique_ptr<CohortManager> manager(
      new CohortManager(std::move(options)));
  const std::string& dir = manager->options_.state_dir;
  if (dir.empty()) return manager;

  const util::Stopwatch stopwatch;
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
  std::vector<Replay> replays;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.size() > kJournalSuffix.size() &&
        name.compare(name.size() - kJournalSuffix.size(),
                     kJournalSuffix.size(), kJournalSuffix) == 0) {
      replays.emplace_back().path = dir + "/" + name;
    }
  }
  ::closedir(handle);
  // Deterministic commit order (readdir order is filesystem-dependent).
  std::sort(replays.begin(), replays.end(),
            [](const Replay& a, const Replay& b) { return a.path < b.path; });

  // Read: a cohort's rounds depend only on its own journal, so every
  // journal replays independently. A single journal replays inline: no
  // thread is started.
  const int count = static_cast<int>(replays.size());
  const int threads = std::min(util::AvailableCpus(), count);
  util::ParallelFor(threads, count, [&](int i) {
    ReadJournal(replays[static_cast<size_t>(i)]);
  });
  // Commit: serial in name order, stopping at the first error, so the
  // files end as a serial replay leaves them and the journals after a bad
  // one stay untouched.
  for (Replay& replay : replays) {
    TDG_RETURN_IF_ERROR(manager->CommitJournal(replay));
  }
  manager->restore_.journals = count;
  manager->restore_.threads = threads;
  manager->restore_.seconds = stopwatch.ElapsedSeconds();
  return manager;
}

std::string CohortManager::JournalPath(const std::string& id) const {
  return options_.state_dir + "/" + id + std::string(kJournalSuffix);
}

void CohortManager::ReadJournal(Replay& replay) {
  // Line 1 is the enroll header; every later line is one op. Every
  // journaled op passed Cohort::Check when it was appended, so an op that
  // does not replay means the journal, not the request stream, is damaged.
  std::optional<Cohort>& cohort = replay.cohort;
  replay.prefix = util::ReadDurableJsonl(
      replay.path, [&](const util::JsonValue& record) -> util::Status {
        if (!cohort.has_value()) {
          TDG_ASSIGN_OR_RETURN(Cohort enrolled, CohortFromHeader(record));
          cohort.emplace(std::move(enrolled));
          return util::Status::OK();
        }
        util::StatusOr<CohortOp> op = ParseCohortOp(record);
        util::Status applied = op.ok() ? cohort->Apply(*op) : op.status();
        if (!applied.ok()) {
          return util::Status::IOError("op does not replay: " +
                                       applied.message());
        }
        return util::Status::OK();
      });
}

util::Status CohortManager::CommitJournal(Replay& replay) {
  TDG_ASSIGN_OR_RETURN(const util::DurablePrefix prefix, replay.prefix);
  const std::string& path = replay.path;
  if (prefix.records == 0) {
    // A fresh start: the crash came before the enroll's header line was
    // durable, so the enroll was never acknowledged. Drop the file, which
    // frees the id for a new enroll.
    TDG_LOG(Warning) << "journal '" << path
                     << "' holds no durable header; its enroll was never "
                        "acknowledged, removing it";
    if (::unlink(path.c_str()) != 0) {
      return util::Status::IOError(util::StrFormat(
          "cannot remove '%s': %s", path.c_str(), std::strerror(errno)));
    }
    return util::Status::OK();
  }
  Cohort& cohort = *replay.cohort;
  if (JournalPath(cohort.id()) != path) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "journal '%s' declares cohort id '%s', which does not match its "
        "file name",
        path.c_str(), cohort.id().c_str()));
  }
  if (prefix.torn_tail) {
    // Cut the torn bytes before the next append lands after them.
    TDG_RETURN_IF_ERROR(util::TruncateFile(path, prefix.bytes));
  }

  TDG_BLACKBOX(obs::BlackboxEventType::kCohortRestore,
               static_cast<double>(cohort.id_hash()),
               static_cast<double>(cohort.rounds_advanced()),
               static_cast<double>(cohort.num_participants()));
  TDG_OBS_COUNTER_ADD("serve/cohort_restores", 1);

  auto entry = std::make_unique<Entry>(std::move(cohort));
  TDG_ASSIGN_OR_RETURN(entry->journal, util::DurableAppendFile::Open(path));
  std::lock_guard<std::mutex> lock(map_mutex_);
  cohorts_.emplace(entry->cohort.id(), std::move(entry));
  ++restored_cohorts_;
  restore_.ops += prefix.records - 1;
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
    // O_EXCL: of two racing enrolls of one id, exactly one creates the
    // journal, and only that one ever writes or removes it.
    util::StatusOr<util::DurableAppendFile> journal =
        util::DurableAppendFile::Create(path);
    if (journal.status().code() == util::StatusCode::kFailedPrecondition) {
      return util::Status::FailedPrecondition(util::StrFormat(
          "cohort '%s' already has a journal at '%s'", id.c_str(),
          path.c_str()));
    }
    TDG_ASSIGN_OR_RETURN(entry->journal, std::move(journal));
    util::Status appended = entry->journal.AppendLine(
        HeaderLine({.id = id, .config = config, .participants = participants}));
    if (!appended.ok()) {
      entry->journal.Close();
      ::unlink(path.c_str());
      return appended;
    }
  }

  TDG_BLACKBOX(obs::BlackboxEventType::kCohortEnroll,
               static_cast<double>(entry->cohort.id_hash()),
               static_cast<double>(entry->cohort.num_participants()),
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

util::StatusOr<CohortManager::Applied> CohortManager::Apply(
    const std::string& id, const CohortOp& op) {
  TDG_ASSIGN_OR_RETURN(Entry * entry, Find(id));
  // Per-entry lock acquisition is a traced phase: under contention this is
  // where a request's tail latency hides (DESIGN.md §14).
  std::unique_lock<std::mutex> lock(entry->mutex, std::defer_lock);
  {
    obs::ScopedRequestPhase lock_phase(obs::RequestPhase::kLockWait);
    lock.lock();
  }
  Cohort& cohort = entry->cohort;
  TDG_RETURN_IF_ERROR(cohort.Check(op));
  if (entry->journal.is_open()) {
    obs::ScopedRequestPhase journal_phase(obs::RequestPhase::kJournal);
    std::string line;
    AppendCohortOpJson(op, line);
    TDG_RETURN_IF_ERROR(entry->journal.AppendLine(line));
  }
  Applied applied;
  switch (op.kind) {
    case CohortOp::kJoin:
      TDG_RETURN_IF_ERROR(cohort.Apply(op));
      RecordChurn(cohort, /*joined=*/1, /*left=*/0);
      TDG_OBS_COUNTER_ADD("serve/cohort_joins", 1);
      break;
    case CohortOp::kLeave:
      TDG_RETURN_IF_ERROR(cohort.Apply(op));
      RecordChurn(cohort, /*joined=*/0, /*left=*/1);
      TDG_OBS_COUNTER_ADD("serve/cohort_leaves", 1);
      break;
    case CohortOp::kAdvance: {
      obs::ScopedRequestPhase compute_phase(obs::RequestPhase::kCompute);
#if defined(TDG_TEST_HOOKS)
      MaybeInjectSlowAdvance();
#endif
      TDG_RETURN_IF_ERROR(cohort.Apply(op));
      applied.round = cohort.rounds_advanced() - 1;
      applied.gain = cohort.rounds().back().gain;
      break;
    }
  }
  applied.participants = cohort.num_participants();
  return applied;
}

util::Status CohortManager::Join(const std::string& id,
                                 const std::string& key, double skill) {
  return Apply(id, {.kind = CohortOp::kJoin, .key = key, .skill = skill})
      .status();
}

util::Status CohortManager::Leave(const std::string& id,
                                  const std::string& key) {
  return Apply(id, {.kind = CohortOp::kLeave, .key = key}).status();
}

util::StatusOr<CohortManager::Applied> CohortManager::Advance(
    const std::string& id) {
  return Apply(id, {});
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
