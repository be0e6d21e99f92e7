#ifndef TDG_SERVE_COHORT_H_
#define TDG_SERVE_COHORT_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
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

/// Every participant key a cohort has admitted, each under a stable id
/// (0, 1, 2, ... in admission order). Append-only: an entry never moves and
/// never changes once written, so a round resolves its ids through the
/// table after the cohort lock is released while a writer appends. The
/// entries live in a fixed directory of chunks that grow geometrically
/// (chunk c holds 64·2^c keys); neither the directory nor a chunk is ever
/// reallocated, and a writer fills only entries and chunk slots that no
/// published id reaches yet.
class KeyTable {
 public:
  KeyTable() = default;
  KeyTable(const KeyTable&) = delete;
  KeyTable& operator=(const KeyTable&) = delete;

  /// Writes `key` as entry `id` when `id` is the table's next id. When it
  /// is not, because a copy of the cohort that shares this table appended
  /// first, writes nothing and returns false.
  bool Append(uint32_t id, std::string_view key);

  const std::string& operator[](uint32_t id) const {
    const int chunk = ChunkOf(id);
    return chunks_[chunk][id - ChunkStart(chunk)];
  }

 private:
  static constexpr int kFirstChunkBits = 6;  // chunk 0 holds 64 keys
  // 64·(2^26 - 1) ids: every uint32_t id below 2^32 - 64.
  static constexpr int kChunks = 26;

  static int ChunkOf(uint32_t id) {
    return std::bit_width((id >> kFirstChunkBits) + 1) - 1;
  }
  static uint32_t ChunkStart(int chunk) {
    return ((1u << chunk) - 1) << kFirstChunkBits;
  }

  std::unique_ptr<std::string[]> chunks_[kChunks];
  std::atomic<uint32_t> size_{0};
};

/// One advanced round: `*ids` are the residents at round time in resident
/// order, as ids into `*table`, and `(*assignment)[i]` is the group of the
/// i-th of them; all three are set on every recorded round. A round is an
/// immutable value — copying one bumps three reference counts, so a reader
/// can take it out from under the cohort lock in O(1) and serialize it
/// after the lock is released. Consecutive rounds with no Join or Leave
/// between them share one id vector.
struct CohortRound {
  std::shared_ptr<const KeyTable> table;
  std::shared_ptr<const std::vector<uint32_t>> ids;
  std::shared_ptr<const std::vector<int>> assignment;
  int num_groups = 0;
  double gain = 0;

  /// The key of the resident at position i.
  const std::string& key(size_t i) const { return (*table)[(*ids)[i]]; }

  /// Deep: compares the resolved keys and the assignment contents, never
  /// table or vector identity, so a restored round equals its reference
  /// bitwise.
  bool operator==(const CohortRound& other) const;
};

/// Appends the canonical wire form of one round to `out`, sized exactly
/// first and then written with one resize (DESIGN.md §13):
/// {"assignment":[...],"gain":g,"keys":[...],"num_groups":k,"round":t}.
/// This is the one definition of the round's bytes; the HTTP server writes
/// it straight into the response body.
void AppendCohortRoundJson(const CohortRound& round, int round_index,
                           std::string& out);

/// The same round as a JSON document: AppendCohortRoundJson's bytes,
/// parsed, so Serialize() reproduces them exactly. For offline tools that
/// embed a round in a larger document.
util::JsonValue CohortRoundToJson(const CohortRound& round, int round_index);

/// An enroll payload — {"config": {...}, "id": "...", "participants":
/// [{"key": string, "skill": number}, ...]} — the POST /cohorts body and
/// the core of a journal's header line and of a tdg_servectl schedule.
struct CohortEnroll {
  std::string id;
  CohortConfig config;
  std::vector<CohortParticipant> participants;

  util::JsonValue ToJson() const;
  /// InvalidArgument when a field is missing or has the wrong type; the
  /// values are Cohort::Create's to check. Other fields are ignored.
  static util::StatusOr<CohortEnroll> FromJson(const util::JsonValue& json);
};

/// One operation on a resident cohort: the unit that the journal records,
/// the HTTP routes apply, and tdg_servectl schedules replay. This is the
/// one statement of its grammar. As one JSON object (a journal line or a
/// schedule entry), keys in sorted order:
///
///   {"key": K, "op": "join", "skill": S}   K a string, S a number
///   {"key": K, "op": "leave"}              K a string
///   {"op": "advance"}
///
/// Other fields are ignored. The HTTP routes carry the verb in the path
/// (POST /cohorts/<id>/<verb>) and the other fields in the body. The parser
/// checks types only; the values (key syntax, a finite positive skill,
/// residency) are Cohort::Check's.
struct CohortOp {
  enum Kind { kJoin, kLeave, kAdvance };
  Kind kind = kAdvance;
  std::string key;   // join and leave
  double skill = 0;  // join

  bool operator==(const CohortOp& other) const = default;
};

/// "join", "leave" or "advance".
std::string_view CohortOpVerb(CohortOp::Kind kind);

/// Parses one op from its verb and its fields (an object; for an advance
/// it is not read). InvalidArgument on an unknown verb, a missing key or a
/// skill that is not a number.
util::StatusOr<CohortOp> ParseCohortOp(std::string_view verb,
                                       const util::JsonValue& fields);
/// The same parse of one JSON object whose "op" member is the verb.
util::StatusOr<CohortOp> ParseCohortOp(const util::JsonValue& object);

/// Streams the op as one JSON object in the grammar above.
void AppendCohortOpJson(const CohortOp& op, std::string& out);

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

  /// Write-ahead precheck: exactly the validation Apply runs, with no
  /// state change. The journal layer calls it *before* appending an op so
  /// that every appended op is guaranteed to apply — a journal never
  /// contains a rejected operation.
  util::Status Check(const CohortOp& op) const;

  /// The one mutation: Check, then apply. A join or a leave takes effect
  /// from the next round. An advance runs one round over the current
  /// residents under the configured policy on the balanced size profile,
  /// applies the interaction update and records the round.
  util::Status Apply(const CohortOp& op);

  /// Apply of one join, leave or advance; Advance returns the round's
  /// learning gain LG(G_t).
  util::Status Join(const std::string& key, double skill);
  util::Status Leave(const std::string& key);
  util::StatusOr<double> Advance();

  const std::string& id() const { return id_; }
  const CohortConfig& config() const { return config_; }
  int num_participants() const {
    return static_cast<int>(participants_.size());
  }
  int rounds_advanced() const { return static_cast<int>(rounds_.size()); }
  /// Residents in resident order: join order, stable under Leave; a key
  /// that leaves and joins again goes to the end.
  const std::vector<CohortParticipant>& participants() const {
    return participants_;
  }
  const std::vector<CohortRound>& rounds() const { return rounds_; }

  /// Stable 32-bit label for flight-recorder events (FNV of the id) — the
  /// same cohort hashes identically across restarts.
  uint32_t id_hash() const { return id_hash_; }

  /// The balanced size profile described at CohortConfig::group_size.
  static util::StatusOr<std::vector<int>> SizeProfileFor(int n,
                                                         int group_size);

 private:
  Cohort(std::string id, const CohortConfig& config, LinearGain gain);

  // Advance's mutation, after Check.
  util::Status RunRound();

  // A key's table id and whether it is resident now.
  struct KeyState {
    uint32_t id = 0;
    bool resident = false;
  };
  using KeyIndex = std::unordered_map<std::string_view, KeyState>;

  // Adds `key`, not yet admitted, to the table under the next id.
  KeyIndex::iterator Admit(std::string_view key);

  std::string id_;
  CohortConfig config_;
  LinearGain gain_;
  uint32_t id_hash_ = 0;
  std::vector<CohortParticipant> participants_;
  // participants_'s table ids, position for position.
  std::vector<uint32_t> resident_ids_;
  // The keys this cohort admitted are the table's ids [0, keys_.size()).
  // Copies of the cohort share the table: the first to append past that
  // prefix extends it, and any other continues on a private copy of its
  // own prefix (Admit), so an op on one copy never changes another.
  std::shared_ptr<KeyTable> table_;
  // Every admitted key, viewed in *table_. Each copy owns its own index,
  // and with it its own residency.
  KeyIndex keys_;
  // resident_ids_ as published to the last round; null after a Join or
  // Leave until the next Advance publishes a fresh copy.
  std::shared_ptr<const std::vector<uint32_t>> published_ids_;
  std::vector<CohortRound> rounds_;
  random::Rng rng_;
};

}  // namespace tdg::serve

#endif  // TDG_SERVE_COHORT_H_
