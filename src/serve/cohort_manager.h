#ifndef TDG_SERVE_COHORT_MANAGER_H_
#define TDG_SERVE_COHORT_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/cohort.h"
#include "util/file_util.h"
#include "util/status.h"
#include "util/statusor.h"

namespace tdg::serve {

/// Holds the resident cohorts behind the serving plane and makes every
/// acknowledged operation durable (DESIGN.md §13).
///
/// Persistence is one write-ahead journal per cohort,
/// `<state_dir>/<id>.cohort`, in the repo's fsync'd-append JSONL idiom
/// (util::DurableAppendFile, the same primitive under the sweep
/// checkpoints):
///
///   line 1   {"schema":"tdg.cohort_journal.v1", "id":..., "config":{...},
///             "participants":[{"key":..,"skill":..},...], "digest":"..."}
///   line 2+  {"op":"join","key":..,"skill":..} | {"op":"leave","key":..}
///            | {"op":"advance"}
///
/// The digest is RunManifest::BuildDigest over the enroll payload — the
/// same convention as the sweep checkpoints — so a journal written by a
/// different build (or an edited header) is refused instead of silently
/// replayed into different bits.
///
/// Ordering per operation: precheck (Cohort::Can*) → fsync'd append →
/// apply in memory → acknowledge. An op is therefore journaled iff it was
/// (or will deterministically be) applied: a `kill -9` between append and
/// apply only means the restart replays one op further than the dying
/// process got — never that an acknowledged round is lost. Because a
/// Cohort is deterministic, Open() replaying a journal reconstructs the
/// exact pre-crash state bitwise, RNG stream included. A torn final line
/// (the crash landed mid-append) is truncated away, like the sweep
/// checkpoint reader; torn *middle* lines mean real corruption and are
/// errors.
///
/// Thread-safety: the cohort map is guarded by one mutex, each cohort (and
/// its journal) by its own, so operations on different cohorts proceed in
/// parallel while per-cohort histories stay linearizable.
class CohortManager {
 public:
  struct Options {
    /// Journal directory (created if missing). Empty = in-memory only —
    /// the offline-replay tools and most tests run without persistence.
    std::string state_dir;
  };

  /// Opens the manager, replaying every `*.cohort` journal in `state_dir`.
  static util::StatusOr<std::unique_ptr<CohortManager>> Open(
      Options options);

  /// Creates a cohort and journals its enroll payload.
  util::Status Enroll(const std::string& id, const CohortConfig& config,
                      const std::vector<CohortParticipant>& participants);

  util::Status Join(const std::string& id, const std::string& key,
                    double skill);
  util::Status Leave(const std::string& id, const std::string& key);
  /// One advanced round: its learning gain and its index, read together
  /// under the cohort lock, so concurrent advances never mix them up.
  struct Advanced {
    double gain = 0.0;
    int round = 0;
    bool operator==(const Advanced&) const = default;
  };
  /// Advances one round.
  util::StatusOr<Advanced> Advance(const std::string& id);

  struct Summary {
    std::string id;
    int rounds = 0;
    int participants = 0;
    CohortConfig config;
  };

  /// All cohort ids, sorted.
  std::vector<std::string> CohortIds() const;
  util::StatusOr<Summary> GetSummary(const std::string& id) const;
  /// One advanced round. O(1) under the cohort lock: the round's key epoch
  /// and assignment are shared, immutable values, so the copy handed out is
  /// two reference-count bumps, and the caller serializes it unlocked.
  util::StatusOr<CohortRound> GetRound(const std::string& id,
                                       int round) const;
  /// Deep copy of the cohort under its lock (tests, offline diffing).
  util::StatusOr<Cohort> SnapshotCohort(const std::string& id) const;

  int num_cohorts() const;
  /// Residents summed over all cohorts (the /metrics gauge).
  long long total_participants() const;
  /// Cohorts reconstructed from journals by Open().
  int restored_cohorts() const { return restored_cohorts_; }

 private:
  struct Entry {
    mutable std::mutex mutex;
    Cohort cohort;
    util::DurableAppendFile journal;  // closed when persistence is off

    explicit Entry(Cohort c) : cohort(std::move(c)) {}
  };

  explicit CohortManager(Options options)
      : options_(std::move(options)) {}

  util::Status ReplayJournal(const std::string& path);
  std::string JournalPath(const std::string& id) const;
  /// Looks up an entry; the caller locks entry->mutex.
  util::StatusOr<Entry*> Find(const std::string& id) const;

  Options options_;
  mutable std::mutex map_mutex_;
  std::map<std::string, std::unique_ptr<Entry>> cohorts_;
  int restored_cohorts_ = 0;
};

}  // namespace tdg::serve

#endif  // TDG_SERVE_COHORT_MANAGER_H_
