#include "serve/cohort.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <string_view>
#include <utility>

#include "core/process.h"
#include "core/soa.h"
#include "core/variable_groups.h"
#include "obs/obs.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace tdg::serve {

std::string_view CohortPolicyName(CohortPolicy policy) {
  switch (policy) {
    case CohortPolicy::kStar:
      return "star";
    case CohortPolicy::kClique:
      return "clique";
    case CohortPolicy::kRandom:
      return "random";
  }
  return "unknown";
}

util::StatusOr<CohortPolicy> ParseCohortPolicy(std::string_view name) {
  if (name == "star") return CohortPolicy::kStar;
  if (name == "clique") return CohortPolicy::kClique;
  if (name == "random") return CohortPolicy::kRandom;
  return util::Status::InvalidArgument(util::StrFormat(
      "unknown cohort policy '%.*s' (want star, clique, or random)",
      static_cast<int>(name.size()), name.data()));
}

util::Status CohortConfig::Validate() const {
  if (group_size < 1) {
    return util::Status::InvalidArgument(util::StrFormat(
        "group_size must be >= 1, got %d", group_size));
  }
  if (!(learning_rate > 0.0) || !(learning_rate < 1.0)) {
    return util::Status::InvalidArgument(util::StrFormat(
        "learning_rate must be in (0, 1), got %g", learning_rate));
  }
  return util::Status::OK();
}

util::JsonValue CohortConfig::ToJson() const {
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("group_size", group_size);
  json.Set("policy", std::string(CohortPolicyName(policy)));
  json.Set("mode", std::string(InteractionModeName(mode)));
  json.Set("learning_rate", learning_rate);
  json.Set("seed", static_cast<long long>(seed));
  return json;
}

namespace {

/// A present integer field: a JSON number with no fractional part in
/// [lo, hi). Checked before any cast, which is undefined out of range.
util::StatusOr<double> IntegerField(const util::JsonValue& field,
                                    const char* name, double lo, double hi) {
  const double value = field.is_number() ? field.AsNumber() : std::nan("");
  if (!(value >= lo && value < hi) || std::trunc(value) != value) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s must be an integer in [%.0f, %.0f)", name, lo, hi));
  }
  return value;
}

}  // namespace

util::StatusOr<CohortConfig> CohortConfig::FromJson(
    const util::JsonValue& json) {
  if (!json.is_object()) {
    return util::Status::InvalidArgument("cohort config must be an object");
  }
  // Every field is optional: an absent key keeps the struct default, so a
  // minimal enroll payload can say {} or just {"group_size": 3}. A key that
  // IS present must have the right type — a typo'd value is an error, never
  // a silent fallback.
  CohortConfig config;
  if (auto field = json.GetField("group_size"); field.ok()) {
    TDG_ASSIGN_OR_RETURN(
        double group_size,
        IntegerField(*field, "group_size", -0x1p31, 0x1p31));
    config.group_size = static_cast<int>(group_size);
  }
  if (auto field = json.GetField("policy"); field.ok()) {
    if (!field->is_string()) {
      return util::Status::InvalidArgument("policy must be a string");
    }
    TDG_ASSIGN_OR_RETURN(config.policy, ParseCohortPolicy(field->AsString()));
  }
  if (auto field = json.GetField("mode"); field.ok()) {
    if (!field->is_string()) {
      return util::Status::InvalidArgument("mode must be a string");
    }
    TDG_ASSIGN_OR_RETURN(config.mode, ParseInteractionMode(field->AsString()));
  }
  if (auto field = json.GetField("learning_rate"); field.ok()) {
    if (!field->is_number()) {
      return util::Status::InvalidArgument("learning_rate must be a number");
    }
    config.learning_rate = field->AsNumber();
  }
  if (auto field = json.GetField("seed"); field.ok()) {
    // ToJson writes the seed as a signed 64-bit integer, so [0, 2^63) is
    // what survives the journal round trip.
    TDG_ASSIGN_OR_RETURN(double seed,
                         IntegerField(*field, "seed", 0.0, 0x1p63));
    config.seed = static_cast<uint64_t>(seed);
  }
  TDG_RETURN_IF_ERROR(config.Validate());
  return config;
}

bool KeyTable::Append(uint32_t id, std::string_view key) {
  const int chunk = ChunkOf(id);
  TDG_CHECK(chunk < kChunks) << "key table full at id " << id;
  uint32_t expected = id;
  if (!size_.compare_exchange_strong(expected, id + 1)) return false;
  // The chunk is allocated by the append of its first id, before any id in
  // it is published, so no reader reaches the slot being written.
  if (chunks_[chunk] == nullptr) {
    const size_t capacity = size_t{1} << (kFirstChunkBits + chunk);
    chunks_[chunk] = std::make_unique<std::string[]>(capacity);
  }
  chunks_[chunk][id - ChunkStart(chunk)] = key;
  return true;
}

namespace {

template <typename T>
bool SameContents(const std::shared_ptr<const T>& a,
                  const std::shared_ptr<const T>& b) {
  return a == b || (a != nullptr && b != nullptr && *a == *b);
}

}  // namespace

bool CohortRound::operator==(const CohortRound& other) const {
  if (!SameContents(assignment, other.assignment) ||
      num_groups != other.num_groups || gain != other.gain) {
    return false;
  }
  if (ids == nullptr || other.ids == nullptr) return ids == other.ids;
  if (ids->size() != other.ids->size()) return false;
  for (size_t i = 0; i < ids->size(); ++i) {
    if (key(i) != other.key(i)) return false;
  }
  return true;
}

namespace {

// The round's fixed bytes around its values, members in sorted key order
// as a JsonValue object writes them.
constexpr std::string_view kAssignmentOpen = "{\"assignment\":[";
constexpr std::string_view kGainMember = "],\"gain\":";
constexpr std::string_view kKeysOpen = ",\"keys\":[";
constexpr std::string_view kNumGroupsMember = "],\"num_groups\":";
constexpr std::string_view kRoundMember = ",\"round\":";

// Bytes std::to_chars writes for `value`. Compares, not a division per
// digit: a group index below 10^4 takes no division at all.
size_t DecimalSize(int value) {
  unsigned magnitude = value < 0 ? 0u - static_cast<unsigned>(value)
                                 : static_cast<unsigned>(value);
  size_t size = value < 0 ? 2 : 1;  // the sign and the first digit
  for (; magnitude >= 10000; magnitude /= 10000) size += 4;
  return size + (magnitude >= 10) + (magnitude >= 100) + (magnitude >= 1000);
}

size_t Commas(size_t values) { return values > 0 ? values - 1 : 0; }

char* Put(char* dest, std::string_view bytes) {
  std::memcpy(dest, bytes.data(), bytes.size());
  return dest + bytes.size();
}

}  // namespace

void AppendCohortRoundJson(const CohortRound& round, int round_index,
                           std::string& out) {
  // Two passes: the first sums the exact size of the round's bytes, the
  // second resizes `out` once and writes them through a raw pointer. The
  // bytes are JsonWriter's (DESIGN.md §13): the gain goes through
  // JsonWriter::Number, every int is std::to_chars (Number's form for any
  // int-valued double below 1e15), and every key is util::WriteJsonString,
  // the escape behind JsonWriter::String.
  const std::vector<int>& assignment = *round.assignment;
  const std::vector<uint32_t>& ids = *round.ids;
  const KeyTable& table = *round.table;
  std::string gain;
  util::JsonWriter(gain).Number(round.gain);

  size_t size = kAssignmentOpen.size() + Commas(assignment.size()) +
                kGainMember.size() + gain.size() + kKeysOpen.size() +
                Commas(ids.size()) + kNumGroupsMember.size() +
                DecimalSize(round.num_groups) + kRoundMember.size() +
                DecimalSize(round_index) + 1;
  for (int group : assignment) size += DecimalSize(group);
  size_t key_bytes = 0;
  size_t unescaped_key_bytes = 0;
  for (uint32_t id : ids) {
    const std::string& key = table[id];
    key_bytes += util::JsonStringSize(key);
    unescaped_key_bytes += key.size() + 2;
  }
  size += key_bytes;
  // When no key needs an escape (the common round), each is copied whole
  // rather than scanned a second time by WriteJsonString.
  const bool escaped = key_bytes != unescaped_key_bytes;

  const size_t start = out.size();
  out.resize(start + size);
  char* dest = out.data() + start;
  char* const end = out.data() + out.size();
  dest = Put(dest, kAssignmentOpen);
  for (size_t i = 0; i < assignment.size(); ++i) {
    if (i > 0) *dest++ = ',';
    dest = std::to_chars(dest, end, assignment[i]).ptr;
  }
  dest = Put(dest, kGainMember);
  dest = Put(dest, gain);
  dest = Put(dest, kKeysOpen);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) *dest++ = ',';
    const std::string& key = table[ids[i]];
    if (escaped) {
      dest = util::WriteJsonString(key, dest);
    } else {
      *dest++ = '"';
      dest = Put(dest, key);
      *dest++ = '"';
    }
  }
  dest = Put(dest, kNumGroupsMember);
  dest = std::to_chars(dest, end, round.num_groups).ptr;
  dest = Put(dest, kRoundMember);
  dest = std::to_chars(dest, end, round_index).ptr;
  *dest++ = '}';
  TDG_CHECK(dest == end) << "round bytes sized " << size << ", wrote "
                         << (dest - (out.data() + start));
}

util::JsonValue CohortRoundToJson(const CohortRound& round,
                                  int round_index) {
  std::string bytes;
  AppendCohortRoundJson(round, round_index, bytes);
  util::StatusOr<util::JsonValue> json = util::JsonValue::Parse(bytes);
  TDG_CHECK(json.ok()) << json.status();
  return *std::move(json);
}

util::JsonValue CohortEnroll::ToJson() const {
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("id", id);
  json.Set("config", config.ToJson());
  util::JsonValue array = util::JsonValue::MakeArray();
  for (const CohortParticipant& participant : participants) {
    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("key", participant.key);
    entry.Set("skill", participant.skill);
    array.Append(std::move(entry));
  }
  json.Set("participants", std::move(array));
  return json;
}

util::StatusOr<CohortEnroll> CohortEnroll::FromJson(
    const util::JsonValue& json) {
  auto id = json.GetField("id");
  auto config = json.GetField("config");
  auto participants = json.GetField("participants");
  if (!id.ok() || !id->is_string() || !config.ok() || !participants.ok() ||
      !participants->is_array()) {
    return util::Status::InvalidArgument(
        "an enroll needs a string 'id', a 'config' and a 'participants' "
        "array");
  }
  CohortEnroll enroll;
  enroll.id = id->AsString();
  TDG_ASSIGN_OR_RETURN(enroll.config, CohortConfig::FromJson(*config));
  enroll.participants.reserve(participants->AsArray().size());
  for (const util::JsonValue& entry : participants->AsArray()) {
    auto key = entry.GetField("key");
    auto skill = entry.GetField("skill");
    if (!key.ok() || !key->is_string() || !skill.ok() ||
        !skill->is_number()) {
      return util::Status::InvalidArgument(
          "participant entries need a string 'key' and a number 'skill'");
    }
    enroll.participants.push_back({key->AsString(), skill->AsNumber()});
  }
  return enroll;
}

namespace {

// Indexed by CohortOp::Kind.
constexpr std::string_view kCohortOpVerbs[] = {"join", "leave", "advance"};

}  // namespace

std::string_view CohortOpVerb(CohortOp::Kind kind) {
  return kCohortOpVerbs[kind];
}

util::StatusOr<CohortOp> ParseCohortOp(std::string_view verb,
                                       const util::JsonValue& fields) {
  const auto* known = std::find(std::begin(kCohortOpVerbs),
                                std::end(kCohortOpVerbs), verb);
  if (known == std::end(kCohortOpVerbs)) {
    return util::Status::InvalidArgument(util::StrFormat(
        "unknown op '%.*s' (want join, leave, or advance)",
        static_cast<int>(verb.size()), verb.data()));
  }
  CohortOp op;
  op.kind = static_cast<CohortOp::Kind>(known - std::begin(kCohortOpVerbs));
  if (op.kind == CohortOp::kAdvance) return op;
  auto key = fields.GetField("key");
  if (!key.ok() || !key->is_string()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%.*s needs a string 'key'", static_cast<int>(verb.size()),
        verb.data()));
  }
  op.key = key->AsString();
  if (op.kind == CohortOp::kJoin) {
    auto skill = fields.GetField("skill");
    if (!skill.ok() || !skill->is_number()) {
      return util::Status::InvalidArgument("join needs a number 'skill'");
    }
    op.skill = skill->AsNumber();
  }
  return op;
}

util::StatusOr<CohortOp> ParseCohortOp(const util::JsonValue& object) {
  auto verb = object.GetField("op");
  if (!verb.ok() || !verb->is_string()) {
    return util::Status::InvalidArgument("an op needs a string 'op'");
  }
  return ParseCohortOp(verb->AsString(), object);
}

void AppendCohortOpJson(const CohortOp& op, std::string& out) {
  // Members in sorted key order, as a JsonValue object would write them.
  util::JsonWriter writer(out);
  writer.BeginObject();
  if (op.kind != CohortOp::kAdvance) {
    writer.Key("key");
    writer.String(op.key);
  }
  writer.Key("op");
  writer.String(CohortOpVerb(op.kind));
  if (op.kind == CohortOp::kJoin) {
    writer.Key("skill");
    writer.Number(op.skill);
  }
  writer.EndObject();
}

util::Status ValidateCohortId(std::string_view id) {
  if (id.empty() || id.size() > 64) {
    return util::Status::InvalidArgument(
        "cohort id must be 1..64 characters");
  }
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) {
      return util::Status::InvalidArgument(
          "cohort id may only contain [A-Za-z0-9_-]");
    }
  }
  return util::Status::OK();
}

util::Status ValidateParticipantKey(std::string_view key) {
  if (key.empty() || key.size() > 128) {
    return util::Status::InvalidArgument(
        "participant key must be 1..128 bytes");
  }
  for (char c : key) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 32 || u >= 127 || c == '/' || c == '"') {
      return util::Status::InvalidArgument(
          "participant key must be printable ASCII without '/' or '\"'");
    }
  }
  return util::Status::OK();
}

namespace {

// What Check asks of a joining participant alone, before residency.
util::Status ValidateJoinee(const std::string& key, double skill) {
  TDG_RETURN_IF_ERROR(ValidateParticipantKey(key));
  if (!(skill > 0.0) || !std::isfinite(skill)) {
    return util::Status::InvalidArgument(util::StrFormat(
        "skill must be a finite positive number, got %g", skill));
  }
  return util::Status::OK();
}

}  // namespace

Cohort::Cohort(std::string id, const CohortConfig& config, LinearGain gain)
    : id_(std::move(id)),
      config_(config),
      gain_(gain),
      id_hash_(static_cast<uint32_t>(util::Fnv1a64(id_) & 0xffffffffULL)),
      table_(std::make_shared<KeyTable>()),
      rng_(config.seed) {}

util::StatusOr<Cohort> Cohort::Create(
    const std::string& id, const CohortConfig& config,
    const std::vector<CohortParticipant>& participants) {
  TDG_RETURN_IF_ERROR(ValidateCohortId(id));
  TDG_RETURN_IF_ERROR(config.Validate());
  TDG_ASSIGN_OR_RETURN(LinearGain gain,
                       LinearGain::Create(config.learning_rate));
  Cohort cohort(id, config, gain);
  cohort.participants_.reserve(participants.size());
  cohort.resident_ids_.reserve(participants.size());
  cohort.keys_.reserve(participants.size());
  // One join per participant, in input order: a repeated key fails as a
  // join of a resident one.
  for (const CohortParticipant& participant : participants) {
    TDG_RETURN_IF_ERROR(cohort.Apply({.kind = CohortOp::kJoin,
                                      .key = participant.key,
                                      .skill = participant.skill}));
  }
  return cohort;
}

util::Status Cohort::Check(const CohortOp& op) const {
  auto resident = [&] {
    const auto key = keys_.find(op.key);
    return key != keys_.end() && key->second.resident;
  };
  switch (op.kind) {
    case CohortOp::kJoin:
      TDG_RETURN_IF_ERROR(ValidateJoinee(op.key, op.skill));
      if (resident()) {
        return util::Status::FailedPrecondition(util::StrFormat(
            "participant '%s' is already resident in cohort '%s'",
            op.key.c_str(), id_.c_str()));
      }
      return util::Status::OK();
    case CohortOp::kLeave:
      if (!resident()) {
        return util::Status::NotFound(util::StrFormat(
            "participant '%s' is not resident in cohort '%s'",
            op.key.c_str(), id_.c_str()));
      }
      return util::Status::OK();
    case CohortOp::kAdvance:
      if (participants_.empty()) {
        return util::Status::FailedPrecondition(util::StrFormat(
            "cohort '%s' has no residents to group", id_.c_str()));
      }
      return util::Status::OK();
  }
  return util::Status::InvalidArgument("unknown cohort op");
}

util::Status Cohort::Apply(const CohortOp& op) {
  TDG_RETURN_IF_ERROR(Check(op));
  switch (op.kind) {
    case CohortOp::kJoin: {
      auto key = keys_.find(op.key);
      if (key == keys_.end()) key = Admit(op.key);
      key->second.resident = true;
      participants_.push_back({op.key, op.skill});
      resident_ids_.push_back(key->second.id);
      break;
    }
    case CohortOp::kLeave: {
      // Preserve resident order: later residents shift down one position.
      KeyState& state = keys_.find(op.key)->second;
      state.resident = false;
      const auto position =
          std::find(resident_ids_.begin(), resident_ids_.end(), state.id) -
          resident_ids_.begin();
      participants_.erase(participants_.begin() + position);
      resident_ids_.erase(resident_ids_.begin() + position);
      break;
    }
    case CohortOp::kAdvance:
      return RunRound();
  }
  published_ids_.reset();
  return util::Status::OK();
}

Cohort::KeyIndex::iterator Cohort::Admit(std::string_view key) {
  const auto id = static_cast<uint32_t>(keys_.size());
  if (!table_->Append(id, key)) {
    // A copy of this cohort took `id` in the shared table first. Go on with
    // a private table of this cohort's own ids; rounds already published
    // keep the shared one, whose entries below `id` are the same keys.
    auto table = std::make_shared<KeyTable>();
    for (uint32_t i = 0; i < id; ++i) table->Append(i, (*table_)[i]);
    KeyIndex keys;
    keys.reserve(keys_.size() + 1);
    for (const auto& [admitted, state] : keys_) {
      keys.emplace((*table)[state.id], state);
    }
    keys_ = std::move(keys);
    table_ = std::move(table);
    const bool appended = table_->Append(id, key);
    TDG_CHECK(appended);
  }
  return keys_.emplace((*table_)[id], KeyState{.id = id}).first;
}

util::Status Cohort::Join(const std::string& key, double skill) {
  return Apply({.kind = CohortOp::kJoin, .key = key, .skill = skill});
}

util::Status Cohort::Leave(const std::string& key) {
  return Apply({.kind = CohortOp::kLeave, .key = key});
}

util::StatusOr<double> Cohort::Advance() {
  TDG_RETURN_IF_ERROR(Apply({}));
  return rounds_.back().gain;
}

util::StatusOr<std::vector<int>> Cohort::SizeProfileFor(int n,
                                                        int group_size) {
  if (n < 1) {
    return util::Status::InvalidArgument("need at least one participant");
  }
  if (group_size < 1) {
    return util::Status::InvalidArgument("group_size must be >= 1");
  }
  if (n < group_size) return std::vector<int>{n};
  // k = floor(n/m) groups, balanced to sizes floor(n/k) / ceil(n/k). The
  // naive "k groups of m, spread n mod m" is NOT always realizable: for
  // m <= n < 2m there is one group but up to m-1 leftover participants, so
  // the single group absorbs them all (size up to 2m-1). Whenever
  // n mod m <= k — in particular for any n >= m^2 — the balanced sizes are
  // exactly m and m+1.
  const int k = n / group_size;
  const int base = n / k;
  const int extra = n % k;
  std::vector<int> sizes(static_cast<size_t>(k), base);
  for (int g = 0; g < extra; ++g) ++sizes[static_cast<size_t>(g)];
  return sizes;
}

util::Status Cohort::RunRound() {
  const int n = num_participants();
  TDG_ASSIGN_OR_RETURN(std::vector<int> sizes,
                       SizeProfileFor(n, config_.group_size));

  soa::Arena& arena = soa::ThreadLocalArena();
  soa::ArenaScope scope(arena);
  std::span<double> skills = arena.Alloc<double>(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    skills[static_cast<size_t>(i)] =
        participants_[static_cast<size_t>(i)].skill;
  }
  // Star and clique run the fused DyGroups round on the balanced profile
  // (soa.h), which emits the membership directly; only the random control
  // materializes a Grouping.
  soa::RoundIntrospection introspection;
  double round_gain;
  if (config_.policy == CohortPolicy::kRandom) {
    SkillVector random_skills(skills.begin(), skills.end());
    TDG_ASSIGN_OR_RETURN(Grouping grouping,
                         RandomGroupingSized(random_skills, sizes, rng_));
    TDG_ASSIGN_OR_RETURN(round_gain,
                         ApplyRound(config_.mode, grouping, gain_,
                                    random_skills,
                                    &introspection.group_gains));
    std::copy(random_skills.begin(), random_skills.end(), skills.begin());
    introspection.group_of = grouping.Assignment(n);
  } else {
    TDG_ASSIGN_OR_RETURN(
        round_gain,
        soa::DyGroupsRound(config_.policy == CohortPolicy::kStar
                               ? soa::DyGroupsLayout::kStarBlocks
                               : soa::DyGroupsLayout::kRoundRobin,
                           config_.mode, gain_, skills,
                           static_cast<int>(sizes.size()), arena,
                           &introspection));
  }
  for (int i = 0; i < n; ++i) {
    participants_[static_cast<size_t>(i)].skill =
        skills[static_cast<size_t>(i)];
  }

  const int round_index = rounds_advanced();
  if (published_ids_ == nullptr) {
    published_ids_ =
        std::make_shared<const std::vector<uint32_t>>(resident_ids_);
  }
  CohortRound round;
  round.table = table_;
  round.ids = published_ids_;
  round.assignment = std::make_shared<const std::vector<int>>(
      std::move(introspection.group_of));
  round.num_groups = static_cast<int>(sizes.size());
  round.gain = round_gain;
  rounds_.push_back(std::move(round));

  TDG_OBS_COUNTER_ADD("serve/cohort_rounds", 1);
  TDG_OBS_HISTOGRAM_RECORD("serve/round_gain", round_gain);
  RecordGroupGainSummary(round_index, introspection.group_gains);
  TDG_BLACKBOX(obs::BlackboxEventType::kCohortRound,
               static_cast<double>(id_hash_),
               static_cast<double>(round_index), static_cast<double>(n),
               round_gain);
  return util::Status::OK();
}

}  // namespace tdg::serve
