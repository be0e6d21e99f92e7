#ifndef TDG_OBS_ZONE_H_
#define TDG_OBS_ZONE_H_

#include <atomic>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace tdg::obs {

/// Instrumentation zones (DESIGN.md §10, §12): one name per timed scope,
/// feeding both timing planes. While the flight recorder records, a zone
/// with a span id writes one `span` record when it closes (name, duration,
/// nesting depth). While profiling is on, a zone with a perf domain charges
/// the thread's counter deltas to `perf/<domain>/<event>` and
/// `perf/<domain>/calls` as *self time*: a nested zone's cost is taken out
/// of the enclosing one, so no event sums past the thread's total. A
/// domain's counters are registered on its first profiled entry, so a
/// process that never profiles exports none.
///
/// With both planes off a zone costs one relaxed load. Profiling is off by
/// default: SetProfilingEnabled(true) (`--profile`) or TDG_PROFILE=1.
bool ProfilingEnabled();
void SetProfilingEnabled(bool enabled);

/// The `span` slot of a kSpan flight-recorder record. Values are part of
/// the on-disk format: append only.
enum class BlackboxSpan : std::uint8_t {
  kNone = 0,  // never recorded: the zone has no span
  kProcessRun = 1,
  kProcessRound = 2,
  kInteractionStarRound = 3,
  kInteractionCliqueRound = 4,
  kSweepRun = 5,
  kSweepCell = 6,
  kSweepShard = 7,
  kSolverBranchBound = 8,
  kSolverBruteForce = 9,
  kAmtExperiment = 10,
  kAmtPopulation = 11,
  kAmtRound = 12,
};

/// Every timed scope; its kZoneTable row names its span and perf domain.
enum class Zone : std::uint8_t {
  // Span and perf domain.
  kStarRound,
  kLinearCliqueRound,  // Theorem 3's prefix sums
  kNaiveCliqueRound,   // the O(t²) clique update
  kBranchBoundSearch,  // coordination self time; subtrees charge their own
  kBruteForceSearch,   // coordination self time; shards charge their own
  // Span only.
  kProcessRun,
  kProcessRound,
  kSweepRun,
  kSweepCell,
  kSweepShard,
  kAmtExperiment,
  kAmtPopulation,
  kAmtRound,
  // Perf domain only.
  kSkillsSort,
  kSkillsDeficits,
  kSwapDelta,
  kBranchBoundSubtree,
  kBruteForceShard,
  kAnneal,  // SA proposal loop; swap deltas and rounds charge their own
};

struct ZoneSpec {
  BlackboxSpan span;           // kNone: no span record
  std::string_view span_name;  // what `span` decodes to
  std::string_view domain;     // "": no perf attribution
};

/// The zone table, in Zone order. Two zones may share a span id (both
/// clique rounds record `interaction/clique_round`); domain names are on
/// /metrics and in bench reports, so they never change.
inline constexpr ZoneSpec kZoneTable[] = {
    {BlackboxSpan::kInteractionStarRound, "interaction/star_round",
     "core/learning_gain/star"},
    {BlackboxSpan::kInteractionCliqueRound, "interaction/clique_round",
     "core/theory/clique_prefix"},
    {BlackboxSpan::kInteractionCliqueRound, "interaction/clique_round",
     "core/learning_gain/clique_naive"},
    {BlackboxSpan::kSolverBranchBound, "solver/branch_bound",
     "core/branch_bound/search"},
    {BlackboxSpan::kSolverBruteForce, "solver/brute_force",
     "core/brute_force/search"},
    {BlackboxSpan::kProcessRun, "process/run", ""},
    {BlackboxSpan::kProcessRound, "process/round", ""},
    {BlackboxSpan::kSweepRun, "sweep/run", ""},
    {BlackboxSpan::kSweepCell, "sweep/cell", ""},
    {BlackboxSpan::kSweepShard, "sweep/shard", ""},
    {BlackboxSpan::kAmtExperiment, "amt/experiment", ""},
    {BlackboxSpan::kAmtPopulation, "amt/population", ""},
    {BlackboxSpan::kAmtRound, "amt/round", ""},
    {BlackboxSpan::kNone, "", "core/skills/sort"},
    {BlackboxSpan::kNone, "", "core/skills/deficits"},
    {BlackboxSpan::kNone, "", "core/objective/swap_delta"},
    {BlackboxSpan::kNone, "", "core/branch_bound/subtree"},
    {BlackboxSpan::kNone, "", "core/brute_force/shard"},
    {BlackboxSpan::kNone, "", "baselines/sa/anneal"},
};
inline constexpr int kNumZones = std::size(kZoneTable);
static_assert(static_cast<int>(Zone::kAnneal) + 1 == kNumZones,
              "one kZoneTable row per Zone");

constexpr const ZoneSpec& ZoneSpecOf(Zone zone) {
  return kZoneTable[static_cast<int>(zone)];
}

namespace zone_internal {
inline constexpr std::uint8_t kRecorderPlane = 1;
inline constexpr std::uint8_t kProfilePlane = 2;
/// The planes that want zones right now, read once per zone entry.
extern std::atomic<std::uint8_t> g_planes;
void SetPlane(std::uint8_t plane, bool on);
}  // namespace zone_internal

/// RAII zone: opens the span when the recorder is recording and the perf
/// domain when profiling is on; closing records the span and charges the
/// domain, then hands the thread back to the enclosing profiled zone.
/// Prefer TDG_ZONE, which names the zone variable for you.
class ScopedZone {
 public:
  explicit ScopedZone(Zone zone) : zone_(zone) {
    const std::uint8_t planes =
        zone_internal::g_planes.load(std::memory_order_relaxed);
    if (planes != 0) Open(planes);
  }
  ~ScopedZone() {
    if (opened_ != 0) Close();
  }

  ScopedZone(const ScopedZone&) = delete;
  ScopedZone& operator=(const ScopedZone&) = delete;

 private:
  void Open(std::uint8_t planes);
  void Close();

  Zone zone_;
  std::uint8_t opened_ = 0;  // the planes this zone opened
  int depth_ = 0;            // open recorded spans around this one
  std::int64_t span_start_micros_ = 0;
  const ScopedZone* parent_ = nullptr;  // enclosing profiled zone
};

}  // namespace tdg::obs

#define TDG_ZONE_CONCAT_INNER(a, b) a##b
#define TDG_ZONE_CONCAT(a, b) TDG_ZONE_CONCAT_INNER(a, b)

/// Opens zone `zone` (an obs::Zone value) for the rest of the enclosing
/// block.
#define TDG_ZONE(zone) \
  ::tdg::obs::ScopedZone TDG_ZONE_CONCAT(tdg_zone_, __LINE__)(zone)

#endif  // TDG_OBS_ZONE_H_
