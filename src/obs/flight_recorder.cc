#include "obs/flight_recorder.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/file_util.h"
#include "util/logging.h"
#include "util/mmap_file.h"
#include "util/record_ring.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace tdg::obs {
namespace {

// ---------------------------------------------------------------------------
// On-disk layout (tdg.blackbox.v1, DESIGN.md §12)
//
//   [FileHeader 64B][ring 0: RingHeader 64B + arena][ring 1: ...]...
//
// The live file is written through the shared mapping with std::atomic
// members; the decoder never aliases those types — it memcpy's the bytes
// into the plain *Wire mirrors below, which keeps the reader free of data
// races (it reads a file, not the mapping) and of alignment assumptions.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kFlagCleanShutdown = 1u << 0;
constexpr std::uint32_t kFlagFatalSync = 1u << 1;
constexpr std::uint32_t kRecordMagic = 0xB1ACB0;  // high 24 bits of magic_type
constexpr std::size_t kHeaderBytes = 64;

struct alignas(64) FileHeaderLive {
  char magic[8];
  std::uint32_t version;
  std::uint32_t max_rings;
  std::uint64_t ring_bytes;
  std::int64_t start_unix_ms;
  std::atomic<std::uint32_t> rings_claimed;
  std::atomic<std::uint32_t> flags;
  std::atomic<std::uint64_t> dropped;
  std::uint8_t reserved[16];
};
static_assert(sizeof(FileHeaderLive) == kHeaderBytes);

struct FileHeaderWire {
  char magic[8];
  std::uint32_t version;
  std::uint32_t max_rings;
  std::uint64_t ring_bytes;
  std::int64_t start_unix_ms;
  std::uint32_t rings_claimed;
  std::uint32_t flags;
  std::uint64_t dropped;
  std::uint8_t reserved[16];
};
static_assert(sizeof(FileHeaderWire) == kHeaderBytes);

struct alignas(64) RingHeaderLive {
  std::atomic<std::uint64_t> cursor;  // total bytes appended (record_ring.h)
  std::uint32_t tid;
  std::uint32_t in_use;
  std::uint8_t reserved[48];
};
static_assert(sizeof(RingHeaderLive) == kHeaderBytes);

struct RingHeaderWire {
  std::uint64_t cursor;
  std::uint32_t tid;
  std::uint32_t in_use;
  std::uint8_t reserved[48];
};
static_assert(sizeof(RingHeaderWire) == kHeaderBytes);

struct RawRecord {
  std::uint32_t magic_type;  // (kRecordMagic << 8) | event type byte
  std::uint32_t tid;
  std::int64_t ts_micros;
  double values[6];
};
static_assert(sizeof(RawRecord) == util::kRecordRingRecordBytes);

std::size_t RingSlotBytes(std::size_t ring_bytes) {
  return kHeaderBytes + ring_bytes;
}

std::size_t FileBytes(int max_rings, std::size_t ring_bytes) {
  return kHeaderBytes +
         static_cast<std::size_t>(max_rings) * RingSlotBytes(ring_bytes);
}

}  // namespace

// Mapped-file handle + geometry. Published once via an atomic pointer and
// never freed or unmapped: a thread still holding a pointer from a
// previous epoch keeps writing into valid (orphaned) memory instead of
// faulting. The leak is bounded by the number of Start calls.
struct FlightRecorder::State {
  std::byte* map = nullptr;
  std::size_t map_bytes = 0;
  int fd = -1;
  std::size_t ring_bytes = 0;
  int max_rings = 0;
  // Rings whose threads exited, handed to the next thread that records
  // before a new ring is claimed (process memory, not in the file).
  std::mutex free_mutex;
  std::vector<int> free_rings;

  FileHeaderLive* header() const {
    return reinterpret_cast<FileHeaderLive*>(map);
  }
  RingHeaderLive* ring_header(int i) const {
    return reinterpret_cast<RingHeaderLive*>(
        map + kHeaderBytes + static_cast<std::size_t>(i) *
                                 RingSlotBytes(ring_bytes));
  }
  std::byte* ring_data(int i) const {
    return reinterpret_cast<std::byte*>(ring_header(i)) + kHeaderBytes;
  }

  // msync + fsync, async-signal-safe. Best effort: there is nobody to
  // report to on the crash path.
  void Sync() const {
    ::msync(map, map_bytes, MS_SYNC);
    if (fd >= 0) ::fsync(fd);
  }
};

namespace {

// Per-thread ring handle, keyed by State pointer identity so a restart
// (new State) forces a fresh claim while stragglers keep their old —
// still mapped — ring.
struct ThreadSlot {
  FlightRecorder::State* state = nullptr;
  util::RecordRingWriter writer;
  std::uint32_t tid = 0;
  int ring = -1;  // index into state's rings; -1 when none was left

  ThreadSlot() = default;
  ThreadSlot(const ThreadSlot&) = delete;
  ThreadSlot& operator=(const ThreadSlot&) = delete;
  ~ThreadSlot() { Release(); }

  // Puts the ring on its State's free list. The ring's cursor and in_use
  // stay as they are, so this thread's records still decode (each carries
  // its own tid) until the next owner's appends overwrite them.
  void Release() {
    if (state != nullptr && ring >= 0) {
      std::lock_guard<std::mutex> lock(state->free_mutex);
      state->free_rings.push_back(ring);
    }
    state = nullptr;
    ring = -1;
    writer = util::RecordRingWriter{};
  }
};
thread_local ThreadSlot tls_slot;

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

util::Status FlightRecorder::Start(Options options) {
  if (options.path.empty()) {
    return util::Status::InvalidArgument("flight recorder path is empty");
  }
  if (!util::IsValidRecordRingCapacity(options.ring_bytes) ||
      options.ring_bytes > (std::size_t{1} << 30)) {
    return util::Status::InvalidArgument(util::StrFormat(
        "flight recorder ring_bytes must be a power of two in [64, 2^30], "
        "got %zu",
        options.ring_bytes));
  }
  if (options.max_rings < 1 || options.max_rings > 4096) {
    return util::Status::InvalidArgument(util::StrFormat(
        "flight recorder max_rings must be in [1, 4096], got %d",
        options.max_rings));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  // Quiesce writers while the state pointer swaps; stragglers that raced
  // past the flag keep writing through the previous (still mapped,
  // about-to-be-orphaned) file, never the new one.
  SetActive(false);

  // Unlink instead of truncating: a previous epoch may still have this
  // path mmapped, and truncating a mapped inode would turn its next store
  // into SIGBUS. After unlink the old inode lives on anonymously until the
  // process exits; the new file is a fresh inode.
  ::unlink(options.path.c_str());
  auto mapped = util::MmapFile::CreateReadWrite(
      options.path, FileBytes(options.max_rings, options.ring_bytes));
  if (!mapped.ok()) return mapped.status();

  auto* state = new State();
  state->map = mapped->data();
  state->map_bytes = mapped->size();
  state->ring_bytes = options.ring_bytes;
  state->max_rings = options.max_rings;
  // Take over the descriptor (for the fatal handler's fsync) and the
  // mapping; both stay alive for the life of the State.
  state->fd = mapped->fd();
  mapped->Leak();

  FileHeaderLive* header = state->header();
  std::memcpy(header->magic, kBlackboxMagic, sizeof(kBlackboxMagic));
  header->version = kBlackboxVersion;
  header->max_rings = static_cast<std::uint32_t>(options.max_rings);
  header->ring_bytes = options.ring_bytes;
  header->start_unix_ms = util::UnixMillis();
  header->rings_claimed.store(0, std::memory_order_relaxed);
  header->flags.store(0, std::memory_order_relaxed);
  header->dropped.store(0, std::memory_order_relaxed);

  static bool fatal_handler_registered = false;
  if (!fatal_handler_registered) {
    fatal_handler_registered = true;
    util::AddFatalHandler(&FlightRecorder::CrashSync);
  }

  state_.store(state, std::memory_order_release);
  last_path_ = options.path;
  SetActive(true);
  return util::Status::OK();
}

void FlightRecorder::Stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!active_.load(std::memory_order_relaxed)) return;
  SetActive(false);
  State* state = state_.load(std::memory_order_acquire);
  if (state != nullptr) {
    state->header()->flags.fetch_or(kFlagCleanShutdown,
                                    std::memory_order_relaxed);
    state->Sync();
  }
}

void FlightRecorder::SetActive(bool active) {
  active_.store(active, std::memory_order_release);
  if (this == &Global()) {
    zone_internal::SetPlane(zone_internal::kRecorderPlane, active);
  }
}

void FlightRecorder::AcquireRing(State* state) {
  ThreadSlot& slot = tls_slot;
  slot.Release();  // a restart leaves the previous epoch's ring behind
  slot.state = state;
  slot.tid = static_cast<std::uint32_t>(util::CurrentThreadId());
  {
    std::lock_guard<std::mutex> lock(state->free_mutex);
    if (!state->free_rings.empty()) {
      slot.ring = state->free_rings.back();
      state->free_rings.pop_back();
    }
  }
  if (slot.ring < 0) {
    const std::uint32_t claimed = state->header()->rings_claimed.fetch_add(
        1, std::memory_order_relaxed);
    if (claimed >= static_cast<std::uint32_t>(state->max_rings)) return;
    slot.ring = static_cast<int>(claimed);
  }
  RingHeaderLive* ring = state->ring_header(slot.ring);
  ring->tid = slot.tid;
  ring->in_use = 1;
  slot.writer.data = state->ring_data(slot.ring);
  slot.writer.capacity_bytes = state->ring_bytes;
  slot.writer.cursor = &ring->cursor;
}

void FlightRecorder::Record(BlackboxEventType type,
                            std::initializer_list<double> values) {
  RecordAt(type, /*ts_micros=*/-1, values);
}

void FlightRecorder::RecordSpan(BlackboxSpan span, std::int64_t start_micros,
                                int depth) {
  // One clock read stamps the record and ends the duration, so decoded
  // [ts - micros, ts] intervals nest exactly.
  const std::int64_t now = util::MonotonicMicros();
  RecordAt(BlackboxEventType::kSpan, now,
           {static_cast<double>(span), static_cast<double>(now - start_micros),
            static_cast<double>(depth)});
}

void FlightRecorder::RecordAt(BlackboxEventType type, std::int64_t ts_micros,
                              std::initializer_list<double> values) {
  if (!active_.load(std::memory_order_relaxed)) return;
  State* state = state_.load(std::memory_order_acquire);
  if (state == nullptr) return;
  ThreadSlot& slot = tls_slot;
  if (slot.state != state) AcquireRing(state);
  if (!slot.writer.valid()) {
    state->header()->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  RawRecord record;
  record.magic_type = (kRecordMagic << 8) |
                      static_cast<std::uint32_t>(type);
  record.tid = slot.tid;
  record.ts_micros = ts_micros < 0 ? util::MonotonicMicros() : ts_micros;
  std::size_t i = 0;
  for (double value : values) {
    if (i >= 6) break;
    record.values[i++] = value;
  }
  for (; i < 6; ++i) record.values[i] = 0.0;
  slot.writer.Append(&record);
}

std::int64_t FlightRecorder::dropped() const {
  State* state = state_.load(std::memory_order_acquire);
  if (state == nullptr) return 0;
  return static_cast<std::int64_t>(
      state->header()->dropped.load(std::memory_order_relaxed));
}

std::string FlightRecorder::path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_path_;
}

void FlightRecorder::CrashSync() {
  FlightRecorder& recorder = Global();
  if (recorder.active_.load(std::memory_order_relaxed)) {
    recorder.Record(BlackboxEventType::kCrash, {1.0});
  }
  State* state = recorder.state_.load(std::memory_order_acquire);
  if (state == nullptr) return;
  state->header()->flags.fetch_or(kFlagFatalSync, std::memory_order_relaxed);
  state->Sync();
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

namespace {

const BlackboxEventSpec* FindBlackboxEventSpec(BlackboxEventType type) {
  const std::size_t row = static_cast<std::size_t>(type) - 1;
  return row < std::size(kBlackboxEventTable) ? &kBlackboxEventTable[row]
                                               : nullptr;
}

}  // namespace

std::string_view BlackboxEventName(BlackboxEventType type) {
  const BlackboxEventSpec* spec = FindBlackboxEventSpec(type);
  return spec == nullptr ? std::string_view() : spec->name;
}

std::vector<std::string_view> BlackboxEventFieldNames(
    BlackboxEventType type) {
  std::vector<std::string_view> fields;
  if (const BlackboxEventSpec* spec = FindBlackboxEventSpec(type)) {
    for (std::string_view field : spec->fields) {
      if (field.empty()) break;
      fields.push_back(field);
    }
  }
  return fields;
}

std::string BlackboxEventLabel(const BlackboxEvent& event) {
  if (event.type == BlackboxEventType::kSpan) {
    // Only an integral id that some zone records has a name; a dump read
    // from disk may hold any double in the slot.
    for (const ZoneSpec& spec : kZoneTable) {
      if (spec.span != BlackboxSpan::kNone &&
          static_cast<double>(spec.span) == event.values[0]) {
        return std::string(spec.span_name);
      }
    }
    return util::StrFormat("span_%g", event.values[0]);
  }
  const std::string_view name = BlackboxEventName(event.type);
  if (name.empty()) {
    return util::StrFormat("unknown_%d", static_cast<int>(event.type));
  }
  return std::string(name);
}

util::JsonValue BlackboxEventToJson(const BlackboxEvent& event) {
  util::JsonValue::Object object;
  object["ts_micros"] = util::JsonValue(
      static_cast<long long>(event.ts_micros));
  object["tid"] = util::JsonValue(static_cast<long long>(event.tid));
  if (event.type == BlackboxEventType::kSpan) {
    object["event"] = util::JsonValue("span");
    object["name"] = util::JsonValue(BlackboxEventLabel(event));
  } else {
    object["event"] = util::JsonValue(BlackboxEventLabel(event));
  }
  const std::vector<std::string_view> fields =
      BlackboxEventFieldNames(event.type);
  for (std::size_t i = 0; i < fields.size() && i < 6; ++i) {
    object[std::string(fields[i])] = util::JsonValue(event.values[i]);
  }
  // Slots past the type's named fields only surface when set — how an old
  // reader shows a field the type grew later.
  for (std::size_t i = fields.size(); i < 6; ++i) {
    if (event.values[i] != 0.0) {
      object[util::StrFormat("v%zu", i)] = util::JsonValue(event.values[i]);
    }
  }
  return util::JsonValue(std::move(object));
}

util::StatusOr<BlackboxDump> DecodeBlackbox(std::string_view bytes) {
  if (bytes.size() < kHeaderBytes) {
    return util::Status::InvalidArgument(util::StrFormat(
        "blackbox dump too short: %zu bytes", bytes.size()));
  }
  FileHeaderWire header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (std::memcmp(header.magic, kBlackboxMagic, sizeof(kBlackboxMagic)) !=
      0) {
    return util::Status::InvalidArgument("not a tdg.blackbox.v1 dump "
                                         "(bad file magic)");
  }
  if (header.version != kBlackboxVersion) {
    return util::Status::InvalidArgument(util::StrFormat(
        "unsupported blackbox version %u", header.version));
  }
  if (!util::IsValidRecordRingCapacity(header.ring_bytes) ||
      header.ring_bytes > (std::uint64_t{1} << 30) || header.max_rings < 1 ||
      header.max_rings > 4096) {
    return util::Status::InvalidArgument(util::StrFormat(
        "implausible blackbox geometry: max_rings=%u ring_bytes=%llu",
        header.max_rings,
        static_cast<unsigned long long>(header.ring_bytes)));
  }
  const std::size_t ring_bytes =
      static_cast<std::size_t>(header.ring_bytes);
  const int max_rings = static_cast<int>(header.max_rings);
  if (bytes.size() < FileBytes(max_rings, ring_bytes)) {
    return util::Status::InvalidArgument(util::StrFormat(
        "truncated blackbox dump: %zu bytes, geometry needs %zu",
        bytes.size(), FileBytes(max_rings, ring_bytes)));
  }

  BlackboxDump dump;
  dump.ring_bytes = ring_bytes;
  dump.max_rings = max_rings;
  dump.clean_shutdown = (header.flags & kFlagCleanShutdown) != 0;
  dump.start_unix_ms = header.start_unix_ms;
  dump.dropped = header.dropped;

  for (int r = 0; r < max_rings; ++r) {
    const std::size_t base =
        kHeaderBytes + static_cast<std::size_t>(r) * RingSlotBytes(ring_bytes);
    RingHeaderWire ring;
    std::memcpy(&ring, bytes.data() + base, sizeof(ring));
    if (ring.in_use == 0) continue;
    ++dump.rings_claimed;
    if (ring.cursor % util::kRecordRingRecordBytes != 0) {
      ++dump.torn;  // torn ring header: the window is untrustworthy
      continue;
    }
    util::RecordRingView view;
    view.data =
        reinterpret_cast<const std::byte*>(bytes.data() + base +
                                           kHeaderBytes);
    view.capacity_bytes = ring_bytes;
    view.cursor = ring.cursor;
    dump.overwritten += view.records_written() - view.record_count();
    for (std::size_t i = 0; i < view.record_count(); ++i) {
      RawRecord record;
      std::memcpy(&record, view.record(i), sizeof(record));
      if ((record.magic_type >> 8) != kRecordMagic) {
        ++dump.torn;
        continue;
      }
      BlackboxEvent event;
      event.ts_micros = record.ts_micros;
      event.tid = record.tid;
      event.type =
          static_cast<BlackboxEventType>(record.magic_type & 0xFF);
      std::memcpy(event.values, record.values, sizeof(event.values));
      dump.events.push_back(event);
    }
  }
  std::stable_sort(dump.events.begin(), dump.events.end(),
                   [](const BlackboxEvent& a, const BlackboxEvent& b) {
                     if (a.ts_micros != b.ts_micros) {
                       return a.ts_micros < b.ts_micros;
                     }
                     return a.tid < b.tid;
                   });
  return dump;
}

util::StatusOr<BlackboxDump> ReadBlackbox(const std::string& path) {
  auto bytes = util::ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return DecodeBlackbox(bytes.value());
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

namespace {

bool IsRequestEvent(const BlackboxEvent& event) {
  return event.type == BlackboxEventType::kRequestStart ||
         event.type == BlackboxEventType::kRequestPhase ||
         event.type == BlackboxEventType::kRequestEnd;
}

bool OwnsTraceId(const BlackboxEvent& event, std::uint64_t trace_id) {
  return IsRequestEvent(event) &&
         static_cast<std::uint64_t>(event.values[0]) == trace_id;
}

}  // namespace

void FilterBlackboxTrace(BlackboxDump* dump, std::uint64_t trace_id) {
  bool have_window = false;
  std::int64_t window_begin = 0;
  std::int64_t window_end = 0;
  std::uint32_t request_tid = 0;
  for (const BlackboxEvent& event : dump->events) {
    if (!OwnsTraceId(event, trace_id)) continue;
    if (!have_window) {
      have_window = true;
      window_begin = event.ts_micros;
      request_tid = event.tid;
    }
    window_begin = std::min(window_begin, event.ts_micros);
    window_end = std::max(window_end, event.ts_micros);
  }
  std::vector<BlackboxEvent> kept;
  for (const BlackboxEvent& event : dump->events) {
    const bool in_thread_window =
        have_window && !IsRequestEvent(event) && event.tid == request_tid &&
        event.ts_micros >= window_begin && event.ts_micros <= window_end;
    if (OwnsTraceId(event, trace_id) || in_thread_window) {
      kept.push_back(event);
    }
  }
  dump->events = std::move(kept);
}

util::JsonValue BlackboxToChromeTrace(const BlackboxDump& dump) {
  util::JsonValue trace_events = util::JsonValue::MakeArray();
  for (const BlackboxEvent& event : dump.events) {
    std::string name = BlackboxEventLabel(event);
    std::string phase = "i";
    double ts = static_cast<double>(event.ts_micros);
    switch (event.type) {
      case BlackboxEventType::kSpan:
        phase = "X";
        ts -= event.values[1];  // the record is stamped at close
        break;
      case BlackboxEventType::kSweepCellStart:
      case BlackboxEventType::kSweepCellEnd:
        phase = event.type == BlackboxEventType::kSweepCellStart ? "B" : "E";
        name = util::StrFormat("cell %lld",
                               static_cast<long long>(event.values[0]));
        break;
      // Served requests are slices named by trace id, so one request lines
      // up with the spans and instants it encloses.
      case BlackboxEventType::kRequestStart:
      case BlackboxEventType::kRequestEnd:
        phase = event.type == BlackboxEventType::kRequestStart ? "B" : "E";
        name = util::StrFormat("req %lld",
                               static_cast<long long>(event.values[0]));
        break;
      default:
        break;
    }
    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("name", name);
    entry.Set("cat", "tdg");
    entry.Set("ph", phase);
    entry.Set("ts", ts);
    if (phase == "X") entry.Set("dur", event.values[1]);
    if (phase == "i") entry.Set("s", "t");
    entry.Set("pid", 1);
    entry.Set("tid", static_cast<double>(event.tid));
    entry.Set("args", BlackboxEventToJson(event));
    trace_events.Append(std::move(entry));
  }
  util::JsonValue root = util::JsonValue::MakeObject();
  root.Set("traceEvents", std::move(trace_events));
  root.Set("displayTimeUnit", "ms");
  return root;
}

}  // namespace tdg::obs
