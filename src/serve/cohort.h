#ifndef TDG_SERVE_COHORT_H_
#define TDG_SERVE_COHORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/interaction.h"
#include "core/learning_gain.h"
#include "random/rng.h"
#include "util/json.h"
#include "util/status.h"
#include "util/statusor.h"

namespace tdg::serve {

/// A *resident* α-process: the serving-plane counterpart of core's batch
/// RunProcess (DESIGN.md §13). Where RunProcess executes a fixed population
/// for a fixed α and returns, a Cohort lives for the duration of a course:
/// participants join and leave between rounds (mid-α churn, as modeled by
/// tdg::sim's gain-driven retention), rounds advance one at a time on
/// demand, and every advanced round's grouping stays addressable.
///
/// Everything is deterministic: the same construction + operation sequence
/// reproduces the same rounds *bitwise* — group membership, gains, and
/// post-round skills. That is the restore contract of the journal layer
/// (serve::CohortManager): replaying a journal is re-running the ops.
/// The star and clique policies run the same fused round as RunProcess
/// (soa::DyGroupsRound, on the balanced size profile), so a churn-free
/// cohort whose size divides evenly reproduces RunProcess with the
/// matching policy bitwise, and every cohort's rounds equal the sized
/// builders of core/variable_groups.h followed by ApplyRound.

/// Grouping rule the cohort runs each round.
enum class CohortPolicy {
  // Fused round, star-block layout: DyGroupsStarLocalSized's grouping
  // (paper Algorithm 2, §VII-sized).
  kStar,
  // Fused round, round-robin layout: DyGroupsCliqueLocalSized's grouping
  // (paper Algorithm 3, §VII-sized).
  kClique,
  kRandom,  // RandomGroupingSized + ApplyRound, fed by the cohort's RNG
};

std::string_view CohortPolicyName(CohortPolicy policy);
util::StatusOr<CohortPolicy> ParseCohortPolicy(std::string_view name);

struct CohortConfig {
  /// Target group size m. Each round forms k = floor(n/m) groups with
  /// balanced sizes floor(n/k) and ceil(n/k) — i.e. exactly m and m+1
  /// whenever n mod m <= k; the lone group absorbs the whole remainder when
  /// m <= n < 2m. When n < m the round runs as one group of n.
  int group_size = 4;
  CohortPolicy policy = CohortPolicy::kStar;
  InteractionMode mode = InteractionMode::kStar;
  double learning_rate = 0.25;  // r of the linear gain family, in (0, 1)
  uint64_t seed = 1;            // per-cohort RNG stream (kRandom only)

  util::Status Validate() const;
  util::JsonValue ToJson() const;
  /// Every key is optional (absent keeps the field default above); a key
  /// that is present with the wrong type or value is an error.
  static util::StatusOr<CohortConfig> FromJson(const util::JsonValue& json);
};

struct CohortParticipant {
  std::string key;  // caller-assigned identity, stable across rounds
  double skill = 0;

  bool operator==(const CohortParticipant& other) const = default;
};

/// One epoch of the resident key list, in id order. Immutable once built:
/// consecutive rounds with no Join or Leave between them share one epoch.
using KeyEpoch = std::shared_ptr<const std::vector<std::string>>;

/// One advanced round, flat (key,id) backed: `*keys` are the residents at
/// round time in id order, `(*assignment)[id]` their group; both are set
/// on every recorded round. A round is an immutable value — copying one
/// bumps two reference counts, so a reader can take it out from under the
/// cohort lock in O(1) and serialize it after the lock is released.
struct CohortRound {
  KeyEpoch keys;
  std::shared_ptr<const std::vector<int>> assignment;
  int num_groups = 0;
  double gain = 0;

  /// Deep: compares key and assignment contents, never epoch identity, so
  /// a restored round equals its reference bitwise.
  bool operator==(const CohortRound& other) const;
};

/// Streams the canonical wire form of one round into `out`:
/// {"assignment":[...],"gain":g,"keys":[...],"num_groups":k,"round":t}.
/// This is the one definition of the round's bytes; the HTTP server writes
/// it straight into the response body.
void AppendCohortRoundJson(const CohortRound& round, int round_index,
                           std::string& out);

/// The same round as a JSON document: AppendCohortRoundJson's bytes,
/// parsed, so Serialize() reproduces them exactly. For offline tools that
/// embed a round in a larger document.
util::JsonValue CohortRoundToJson(const CohortRound& round, int round_index);

/// Parses the enroll payload's [{"key": string, "skill": number}, ...].
util::StatusOr<std::vector<CohortParticipant>> ParticipantsFromJson(
    const util::JsonValue& json);

/// Syntax rules for identifiers that travel through URLs, JSON, and journal
/// file names. Cohort ids: [A-Za-z0-9_-]{1,64}. Participant keys:
/// printable ASCII without '/' or '"', 1..128 bytes.
util::Status ValidateCohortId(std::string_view id);
util::Status ValidateParticipantKey(std::string_view key);

class Cohort {
 public:
  /// Validates everything (id syntax, config, key syntax/uniqueness,
  /// strictly positive finite skills) and seeds the cohort's RNG stream.
  static util::StatusOr<Cohort> Create(
      const std::string& id, const CohortConfig& config,
      const std::vector<CohortParticipant>& participants);

  /// Write-ahead prechecks: exactly the validation their mutating
  /// counterparts run, with no state change. The journal layer calls these
  /// *before* appending an op so that every appended op is guaranteed to
  /// apply — a journal never contains a rejected operation.
  util::Status CanJoin(const std::string& key, double skill) const;
  util::Status CanLeave(const std::string& key) const;
  util::Status CanAdvance() const;

  /// Enrolls / removes one participant effective from the next round.
  util::Status Join(const std::string& key, double skill);
  util::Status Leave(const std::string& key);

  /// Runs one round over the current residents under the configured
  /// policy on the balanced size profile, applies the interaction update
  /// and records the round. Returns the round's learning gain LG(G_t).
  util::StatusOr<double> Advance();

  const std::string& id() const { return id_; }
  const CohortConfig& config() const { return config_; }
  int num_participants() const {
    return static_cast<int>(participants_.size());
  }
  int rounds_advanced() const { return static_cast<int>(rounds_.size()); }
  /// Residents in id order (insertion order, stable under Leave).
  const std::vector<CohortParticipant>& participants() const {
    return participants_;
  }
  const std::vector<CohortRound>& rounds() const { return rounds_; }

  bool HasParticipant(const std::string& key) const;

  /// Stable 32-bit label for flight-recorder events (FNV of the id) — the
  /// same cohort hashes identically across restarts.
  uint32_t id_hash() const { return id_hash_; }

  /// The balanced size profile described at CohortConfig::group_size.
  static util::StatusOr<std::vector<int>> SizeProfileFor(int n,
                                                         int group_size);

 private:
  Cohort(std::string id, const CohortConfig& config, LinearGain gain);

  std::string id_;
  CohortConfig config_;
  LinearGain gain_;
  uint32_t id_hash_ = 0;
  std::vector<CohortParticipant> participants_;
  // The residents' key epoch; null after a Join or Leave until the next
  // Advance builds a fresh one.
  KeyEpoch keys_;
  std::vector<CohortRound> rounds_;
  random::Rng rng_;
};

}  // namespace tdg::serve

#endif  // TDG_SERVE_COHORT_H_
