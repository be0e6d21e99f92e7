// tdg_blackbox — decoder for flight-recorder dumps (tdg.blackbox.v1, see
// DESIGN.md §12).
//
//   tdg_blackbox DUMP.bin                 summary: header facts, a
//                                         per-event-kind table (count,
//                                         threads, first/last ms), and the
//                                         tail of the timeline
//   tdg_blackbox --jsonl DUMP.bin         every event as JSONL on stdout
//                                         (span records carry their name)
//   tdg_blackbox --jsonl=OUT DUMP.bin     ... written to OUT
//   tdg_blackbox --trace=OUT DUMP.bin     Chrome trace_event JSON (load in
//                                         chrome://tracing / Perfetto):
//                                         span records as complete "X"
//                                         events
//   tdg_blackbox --tail=N DUMP.bin        rows in the summary tail
//   tdg_blackbox --trace_id=ID DUMP.bin   narrow any mode above to one
//                                         served request: its request_
//                                         start/phase/end records plus
//                                         everything its thread recorded
//                                         while the request ran (e.g. the
//                                         interaction/*_round span and the
//                                         cohort_round the core recorded)
//
// The dump is written through a shared file mapping, so it is current even
// when the recording process died by kill -9 — a dump without the
// clean-shutdown flag is the black box of a crash. Decoding is
// torn-write-tolerant: records failing their magic check are counted
// (`torn`) and skipped, never trusted.
//
// Exit codes: 0 = decoded, 2 = usage or undecodable input.

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "obs/flight_recorder.h"
#include "util/file_util.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using tdg::obs::BlackboxDump;
using tdg::obs::BlackboxEvent;
using tdg::obs::BlackboxEventToJson;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tdg_blackbox [--jsonl[=OUT]] [--trace=OUT] [--tail=N] "
               "[--trace_id=ID] DUMP.bin\n");
  return 2;
}

std::string EventsJsonl(const BlackboxDump& dump) {
  std::string out;
  for (const BlackboxEvent& event : dump.events) {
    out += BlackboxEventToJson(event).Serialize();
    out += '\n';
  }
  return out;
}

// One row per event kind (span records per span name): how many, from how
// many threads, and when the first and last landed relative to the first
// decoded event.
void PrintKindTable(const BlackboxDump& dump) {
  struct Kind {
    long long count = 0;
    std::set<std::uint32_t> tids;
    std::int64_t first_ts = 0;
    std::int64_t last_ts = 0;
  };
  std::map<std::string, Kind> kinds;
  for (const BlackboxEvent& event : dump.events) {
    Kind& kind = kinds[tdg::obs::BlackboxEventLabel(event)];
    if (kind.count++ == 0) kind.first_ts = event.ts_micros;
    kind.last_ts = event.ts_micros;
    kind.tids.insert(event.tid);
  }
  const std::int64_t origin = dump.events.front().ts_micros;
  tdg::util::TablePrinter table({"kind", "count", "threads", "first_ms",
                                 "last_ms"});
  for (const auto& [name, kind] : kinds) {
    table.AddRow({name, std::to_string(kind.count),
                  std::to_string(kind.tids.size()),
                  tdg::util::StrFormat(
                      "%.3f", static_cast<double>(kind.first_ts - origin) /
                                  1000.0),
                  tdg::util::StrFormat(
                      "%.3f", static_cast<double>(kind.last_ts - origin) /
                                  1000.0)});
  }
  std::printf("%s", table.ToString().c_str());
}

void PrintSummary(const std::string& path, const BlackboxDump& dump,
                  int tail) {
  std::printf("blackbox %s\n", path.c_str());
  std::printf("  shutdown:    %s\n",
              dump.clean_shutdown ? "clean" : "CRASH (no clean-shutdown "
                                             "flag)");
  std::printf("  rings:       %d claimed of %d (%zu bytes each)\n",
              dump.rings_claimed, dump.max_rings, dump.ring_bytes);
  std::printf("  events:      %zu decoded, %llu overwritten, %llu torn, "
              "%llu dropped\n",
              dump.events.size(),
              static_cast<unsigned long long>(dump.overwritten),
              static_cast<unsigned long long>(dump.torn),
              static_cast<unsigned long long>(dump.dropped));
  if (dump.events.empty()) return;
  PrintKindTable(dump);
  const std::size_t n = dump.events.size();
  const std::size_t from =
      tail > 0 && static_cast<std::size_t>(tail) < n
          ? n - static_cast<std::size_t>(tail)
          : 0;
  std::printf("  last %zu events:\n", n - from);
  for (std::size_t i = from; i < n; ++i) {
    std::printf("    %s\n",
                BlackboxEventToJson(dump.events[i]).Serialize().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using enum tdg::util::FlagKind;
  tdg::util::FlagParser flags;
  const tdg::util::Status parsed = flags.Parse(
      argc, argv,
      {{"jsonl", kString}, {"trace", kString}, {"tail", kInt},
       {"trace_id", kInt}});
  if (!parsed.ok()) {
    std::fprintf(stderr, "tdg_blackbox: %s\n", parsed.ToString().c_str());
    return Usage();
  }
  std::string jsonl = flags.GetString("jsonl", "");
  if (flags.positional().size() != 1) return Usage();
  const std::string path = flags.positional()[0];
  const bool jsonl_stdout = jsonl == "true" || jsonl == "-";
  if (jsonl_stdout) jsonl.clear();
  const std::string trace = flags.GetString("trace", "");
  const int tail = static_cast<int>(flags.GetInt("tail", 20));

  auto dump = tdg::obs::ReadBlackbox(path);
  if (!dump.ok()) {
    std::fprintf(stderr, "tdg_blackbox: %s\n",
                 dump.status().ToString().c_str());
    return 2;
  }
  const long long trace_id = flags.GetInt("trace_id", 0);
  if (trace_id != 0) {
    tdg::obs::FilterBlackboxTrace(&dump.value(),
                                  static_cast<std::uint64_t>(trace_id));
  }

  bool emitted = false;
  if (jsonl_stdout) {
    std::fputs(EventsJsonl(dump.value()).c_str(), stdout);
    emitted = true;
  } else if (!jsonl.empty()) {
    auto status = tdg::util::WriteFileAtomic(jsonl, EventsJsonl(dump.value()));
    if (!status.ok()) {
      std::fprintf(stderr, "tdg_blackbox: %s\n", status.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "wrote %zu events to %s\n",
                 dump->events.size(), jsonl.c_str());
    emitted = true;
  }
  if (!trace.empty()) {
    auto status = tdg::util::WriteFileAtomic(
        trace,
        tdg::obs::BlackboxToChromeTrace(dump.value()).Serialize() + "\n");
    if (!status.ok()) {
      std::fprintf(stderr, "tdg_blackbox: %s\n", status.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "wrote chrome trace to %s\n", trace.c_str());
    emitted = true;
  }
  if (!emitted) PrintSummary(path, dump.value(), tail);
  return 0;
}
