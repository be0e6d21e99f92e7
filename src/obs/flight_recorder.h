#ifndef TDG_OBS_FLIGHT_RECORDER_H_
#define TDG_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/zone.h"
#include "util/json.h"
#include "util/status.h"
#include "util/statusor.h"

namespace tdg::obs {

/// The flight recorder (DESIGN.md §12): an always-on black box that
/// records compact typed events into per-thread lock-free ring buffers
/// living inside a file-backed MAP_SHARED mapping. Because every store
/// lands in the kernel page cache the moment it retires, the dump file is
/// current even when the process dies by `kill -9` or `std::_Exit` — no
/// handler has to run. The util::AddFatalHandler hook only *adds* a crash
/// marker plus msync+fsync (machine-crash durability) on TDG_CHECK / LOG
/// (Fatal) deaths, using nothing but async-signal-safe calls.
///
/// A record is fixed 64 bytes (16-byte header + six 8-byte value slots);
/// the per-thread arenas are power-of-two sized, so a record never
/// straddles the wrap point and an append is one memcpy plus one release
/// store of the ring cursor. Readers (the `tdg_blackbox` tool, the
/// `/blackboxz` live tail) never touch the mapping: they re-read the file
/// through ordinary file I/O and validate a per-record magic, so torn or
/// in-flight records are counted and skipped, never trusted.
///
/// Start/Stop cost a mutex; Record costs two relaxed/acquire loads when
/// inactive and one 64-byte memcpy when active. The TDG_BLACKBOX macro
/// evaluates its arguments only when the recorder is active.
///
/// The recorder is the only event store: timed scopes are `span` records
/// written by closing zones (zone.h: name, duration, nesting depth), and
/// the Chrome trace and JSONL views are rendered from a dump by
/// `tdg_blackbox`.

/// Binary schema identifier; bump kBlackboxVersion on incompatible change.
inline constexpr char kBlackboxMagic[8] = {'T', 'D', 'G', 'B',
                                           'B', 'O', 'X', '1'};
inline constexpr std::uint32_t kBlackboxVersion = 1;

/// Event vocabulary. Values are part of the on-disk format: append only.
/// Each type's decoded name and payload slots are its kBlackboxEventTable
/// row.
enum class BlackboxEventType : std::uint8_t {
  kNote = 1,  // generic payload (bench, tests)
  kProcessStart = 2,
  kRoundEnd = 3,
  kGroupChurn = 4,
  kGroupGainSummary = 5,
  kRoundObjective = 6,  // fused round
  kPolicyDecision = 7,
  kSweepCellStart = 8,
  kSweepCellEnd = 9,
  kSolverIncumbent = 10,  // shared bound improvements
  kCrash = 11,            // stamped by the fatal handler before abort
  kCohortEnroll = 12,     // serving plane
  kCohortRound = 13,
  kCohortChurn = 14,
  kCohortRestore = 15,  // journal replay on restart
  kRequestStart = 16,   // request_context.h
  kRequestPhase = 17,   // one per timed phase
  kRequestEnd = 18,
  kSpan = 19,  // stamped when the span closes
};

struct BlackboxEventSpec {
  std::string_view name;  // decoder-facing ("round_end")
  std::array<std::string_view, 6> fields;  // named slots; "" past the last
};

/// The event table, in type order (row i is type i + 1). These strings are
/// what every JSONL, Chrome-trace and summary view of a dump shows.
inline constexpr BlackboxEventSpec kBlackboxEventTable[] = {
    {"note", {}},
    {"process_start", {"n", "num_groups", "num_rounds", "mode", "fused"}},
    {"round_end", {"round", "round_gain", "total_gain"}},
    {"group_churn", {"round", "moved", "n"}},
    {"group_gain_summary",
     {"round", "num_groups", "min_gain", "mean_gain", "max_gain"}},
    {"round_objective", {"n", "num_groups", "layout", "round_gain"}},
    {"policy_decision", {"mode", "layout", "n", "num_groups"}},
    {"sweep_cell_start", {"cell_index", "n", "num_groups", "num_rounds"}},
    {"sweep_cell_end", {"cell_index", "mean_gain", "runs"}},
    {"solver_incumbent", {"incumbent"}},
    {"crash", {"fatal"}},
    {"cohort_enroll", {"cohort", "n", "group_size", "mode"}},
    {"cohort_round", {"cohort", "round", "n", "round_gain"}},
    {"cohort_churn", {"cohort", "round", "joined", "left", "n"}},
    {"cohort_restore", {"cohort", "rounds", "n"}},
    {"request_start", {"trace_id"}},
    {"request_phase", {"trace_id", "phase", "micros"}},
    {"request_end", {"trace_id", "status", "micros", "endpoint"}},
    {"span", {"span", "micros", "depth"}},
};

static_assert(std::size(kBlackboxEventTable) ==
                  static_cast<std::size_t>(BlackboxEventType::kSpan),
              "one kBlackboxEventTable row per BlackboxEventType");

/// Decoder-facing name and named payload slots for a type; an unknown type
/// has neither (it decodes as "unknown_<value>" with generic slot names).
std::string_view BlackboxEventName(BlackboxEventType type);
std::vector<std::string_view> BlackboxEventFieldNames(BlackboxEventType type);

/// One decoded event. Payload slots beyond the type's named fields are
/// preserved (they decode under generic names) so old readers stay usable
/// when a type grows a field.
struct BlackboxEvent {
  std::int64_t ts_micros = 0;  // util::MonotonicMicros timeline
  std::uint32_t tid = 0;       // util::CurrentThreadId
  BlackboxEventType type = BlackboxEventType::kNote;
  double values[6] = {0, 0, 0, 0, 0, 0};
};

/// {"ts_micros":..., "tid":..., "event":"round_end", <named fields>}; a
/// span record also carries its "name".
util::JsonValue BlackboxEventToJson(const BlackboxEvent& event);

/// Span records' display name ("process/run"); the event name otherwise.
std::string BlackboxEventLabel(const BlackboxEvent& event);

class FlightRecorder {
 public:
  struct Options {
    /// Dump file; created (replacing any previous file) at Start.
    std::string path;
    /// Per-thread arena bytes; power of two, >= 64. 64 KiB holds the last
    /// 1024 events per thread.
    std::size_t ring_bytes = 64 * 1024;
    /// Ring slots; a thread's ring is reused once it exits, and threads
    /// recording beyond this at once drop events (counted).
    int max_rings = 64;
  };

  /// The process-wide recorder behind TDG_BLACKBOX and --blackbox.
  static FlightRecorder& Global();

  FlightRecorder() = default;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Creates the dump file and starts accepting Record calls. The first
  /// Start registers the fatal-handler sync. Restart (even onto the same
  /// path) is safe at any time: the previous mapping is intentionally kept
  /// alive for the life of the process, so a racing writer can never touch
  /// unmapped memory, and the previous file is unlinked first so it can
  /// never be corrupted through a stale mapping.
  util::Status Start(Options options);

  /// Marks a clean shutdown in the file header, syncs, and stops accepting
  /// events. Idempotent. (A dump *without* the clean-shutdown flag is how
  /// `tdg_blackbox` knows it is looking at a crash.)
  void Stop();

  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Appends one event to this thread's ring. Wait-free after the thread's
  /// first call (which takes an exited thread's ring or claims a new one);
  /// drops — counted — when more than max_rings live threads record.
  /// No-op when inactive. At most six values are recorded; extras are
  /// ignored.
  void Record(BlackboxEventType type, std::initializer_list<double> values);

  /// Appends the kSpan record of a span that opened at `start_micros`
  /// (util::MonotonicMicros) at nesting `depth` and closes now.
  void RecordSpan(BlackboxSpan span, std::int64_t start_micros, int depth);

  /// Events dropped because the ring slots were exhausted (resets on
  /// Start).
  std::int64_t dropped() const;

  /// The active dump path; after Stop, the most recent one ("" before the
  /// first Start). The `/blackboxz` endpoint tails this file.
  std::string path() const;

  /// Fatal-handler body (registered by the first Start): stamps a kCrash
  /// event and syncs the mapping with async-signal-safe calls only.
  static void CrashSync();

  /// Mapped-file handle + layout; immortal once published. Public only so
  /// the implementation's per-thread slot can name it.
  struct State;

 private:
  void AcquireRing(State* state);
  // The global recorder mirrors its flag into the zone planes (zone.h).
  void SetActive(bool active);
  // Record body; `ts_micros` < 0 stamps the current time.
  void RecordAt(BlackboxEventType type, std::int64_t ts_micros,
                std::initializer_list<double> values);

  std::atomic<bool> active_{false};
  std::atomic<State*> state_{nullptr};
  mutable std::mutex mutex_;  // serializes Start/Stop; guards the two below
  std::string last_path_;
  // Earlier epochs' States, never freed (stragglers may still write through
  // them) and owned here so the process still reaches them.
  std::vector<State*> retired_;
};

/// A decoded dump: header facts plus all surviving events merged across
/// rings in timestamp order.
struct BlackboxDump {
  std::size_t ring_bytes = 0;
  int max_rings = 0;
  int rings_claimed = 0;
  bool clean_shutdown = false;
  long long start_unix_ms = 0;
  std::uint64_t dropped = 0;       // ring slots exhausted
  std::uint64_t overwritten = 0;   // pushed out of the ring window
  std::uint64_t torn = 0;          // failed the per-record magic check
  std::vector<BlackboxEvent> events;
};

/// Decodes the binary dump format from memory / from a file. Tolerates
/// torn records and half-claimed rings (counting them); errors only on a
/// missing file, a bad file magic, or an impossible geometry.
util::StatusOr<BlackboxDump> DecodeBlackbox(std::string_view bytes);
util::StatusOr<BlackboxDump> ReadBlackbox(const std::string& path);

/// Narrows `dump` to one served request: the request_start/phase/end
/// records carrying `trace_id` plus every event the same thread recorded
/// inside the request's [start, end] window (the serving plane runs a
/// request start to finish on one worker thread, so that is where the
/// core's spans and cohort_round records land).
void FilterBlackboxTrace(BlackboxDump* dump, std::uint64_t trace_id);

/// Chrome trace_event JSON ("JSON Object Format"; load in chrome://tracing
/// or https://ui.perfetto.dev): span records become complete ("X") events,
/// sweep cells and served requests duration (B/E) slices, and everything
/// else an instant event. Every event carries its decoded record as args.
util::JsonValue BlackboxToChromeTrace(const BlackboxDump& dump);

}  // namespace tdg::obs

/// Records a typed event into the global flight recorder. `...` are up to
/// six double-convertible values (the type's payload slots, in order); they
/// are only evaluated when the recorder is active.
#define TDG_BLACKBOX(type, ...)                               \
  do {                                                        \
    ::tdg::obs::FlightRecorder& tdg_blackbox_recorder =       \
        ::tdg::obs::FlightRecorder::Global();                 \
    if (tdg_blackbox_recorder.active()) {                     \
      tdg_blackbox_recorder.Record((type), {__VA_ARGS__});    \
    }                                                         \
  } while (0)

#endif  // TDG_OBS_FLIGHT_RECORDER_H_
