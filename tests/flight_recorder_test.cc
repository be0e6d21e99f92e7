// Flight recorder tests (obs/flight_recorder.h, DESIGN.md §12): ring
// arithmetic, the mmap substrate, record → decode roundtrips, wraparound
// and drop accounting, span records (nesting, the JSONL and Chrome-trace
// views), torn-record tolerance, restart-onto-the-same-path safety, and
// the end-to-end crash contract — a child shard killed by the
// fault hook must leave a decodable black box whose cell events match the
// checkpoint it wrote.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <barrier>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exp/sweep_shard.h"
#include "obs/flight_recorder.h"
#include "sweep_shard_test_util.h"
#include "util/file_util.h"
#include "util/json.h"
#include "util/mmap_file.h"
#include "util/record_ring.h"

#ifndef TDG_SWEEP_SHARD_CHILD_BIN
#error "TDG_SWEEP_SHARD_CHILD_BIN must be defined by tests/CMakeLists.txt"
#endif

namespace tdg::obs {
namespace {

using test::MakeScratchDir;
using test::TinyConfig;

FlightRecorder::Options SmallOptions(const std::string& path,
                                     std::size_t ring_bytes = 4096,
                                     int max_rings = 8) {
  FlightRecorder::Options options;
  options.path = path;
  options.ring_bytes = ring_bytes;
  options.max_rings = max_rings;
  return options;
}

// --- ring arithmetic -------------------------------------------------------

TEST(RecordRingTest, CapacityValidation) {
  EXPECT_TRUE(util::IsValidRecordRingCapacity(64));
  EXPECT_TRUE(util::IsValidRecordRingCapacity(1 << 16));
  EXPECT_FALSE(util::IsValidRecordRingCapacity(0));
  EXPECT_FALSE(util::IsValidRecordRingCapacity(32));    // < one record
  EXPECT_FALSE(util::IsValidRecordRingCapacity(96));    // not a power of two
  EXPECT_FALSE(util::IsValidRecordRingCapacity(1000));  // not a power of two
}

TEST(RecordRingTest, AppendThenViewRoundtripsWithoutWrap) {
  constexpr std::size_t kCapacity = 512;  // 8 records
  alignas(64) std::byte arena[kCapacity] = {};
  std::atomic<std::uint64_t> cursor{0};
  util::RecordRingWriter writer{arena, kCapacity, &cursor};
  ASSERT_TRUE(writer.valid());

  for (std::uint64_t i = 0; i < 5; ++i) {
    std::uint64_t record[8] = {i, i * 10};
    writer.Append(record);
  }

  util::RecordRingView view{arena, kCapacity, cursor.load()};
  ASSERT_EQ(view.record_count(), 5u);
  EXPECT_EQ(view.records_written(), 5u);
  for (std::size_t i = 0; i < view.record_count(); ++i) {
    std::uint64_t record[8];
    std::memcpy(record, view.record(i), sizeof(record));
    EXPECT_EQ(record[0], i);
    EXPECT_EQ(record[1], i * 10);
  }
}

TEST(RecordRingTest, WrapKeepsNewestWindowOldestFirst) {
  constexpr std::size_t kCapacity = 256;  // 4 records
  alignas(64) std::byte arena[kCapacity] = {};
  std::atomic<std::uint64_t> cursor{0};
  util::RecordRingWriter writer{arena, kCapacity, &cursor};

  for (std::uint64_t i = 0; i < 11; ++i) {
    std::uint64_t record[8] = {i};
    writer.Append(record);
  }

  util::RecordRingView view{arena, kCapacity, cursor.load()};
  ASSERT_EQ(view.record_count(), 4u);
  EXPECT_EQ(view.records_written(), 11u);
  for (std::size_t i = 0; i < 4; ++i) {
    std::uint64_t record[8];
    std::memcpy(record, view.record(i), sizeof(record));
    EXPECT_EQ(record[0], 7 + i);  // survivors are 7, 8, 9, 10
  }
}

// --- mmap substrate --------------------------------------------------------

TEST(MmapFileTest, CreateWriteCloseLeavesBytesOnDisk) {
  const std::string path = MakeScratchDir() + "/map.bin";
  auto file = util::MmapFile::CreateReadWrite(path, 4096);
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE(file->valid());
  ASSERT_EQ(file->size(), 4096u);
  EXPECT_GE(file->fd(), 0);
  std::memcpy(file->data(), "persisted", 9);
  EXPECT_EQ(file->Sync(), 0);
  file->Close();
  file->Close();  // idempotent

  auto bytes = util::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  ASSERT_EQ(bytes->size(), 4096u);
  EXPECT_EQ(bytes->substr(0, 9), "persisted");
  EXPECT_EQ((*bytes)[9], '\0');  // fresh mapping reads as zeros
}

TEST(MmapFileTest, RejectsUnwritablePath) {
  auto file = util::MmapFile::CreateReadWrite(
      "/nonexistent-dir-tdg/map.bin", 4096);
  EXPECT_FALSE(file.ok());
}

// --- recorder roundtrip ----------------------------------------------------

TEST(FlightRecorderTest, StartRejectsBadGeometry) {
  FlightRecorder recorder;
  EXPECT_FALSE(recorder.Start(SmallOptions("")).ok());
  const std::string path = MakeScratchDir() + "/bb.bin";
  EXPECT_FALSE(recorder.Start(SmallOptions(path, /*ring_bytes=*/1000)).ok());
  EXPECT_FALSE(recorder.Start(SmallOptions(path, /*ring_bytes=*/32)).ok());
  EXPECT_FALSE(
      recorder.Start(SmallOptions(path, 4096, /*max_rings=*/0)).ok());
  EXPECT_FALSE(
      recorder.Start(SmallOptions(path, 4096, /*max_rings=*/5000)).ok());
  EXPECT_FALSE(recorder.active());
}

TEST(FlightRecorderTest, RecordDecodeRoundtrip) {
  const std::string path = MakeScratchDir() + "/bb.bin";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(recorder.Start(SmallOptions(path)).ok());
  EXPECT_TRUE(recorder.active());
  EXPECT_EQ(recorder.path(), path);

  recorder.Record(BlackboxEventType::kRoundEnd, {0.0, 1.5, 1.5});
  recorder.Record(BlackboxEventType::kRoundEnd, {1.0, 2.5, 4.0});
  recorder.Record(BlackboxEventType::kGroupChurn, {1.0, 7.0, 24.0});
  recorder.Stop();
  EXPECT_FALSE(recorder.active());

  auto dump = ReadBlackbox(path);
  ASSERT_TRUE(dump.ok()) << dump.status();
  EXPECT_TRUE(dump->clean_shutdown);
  EXPECT_EQ(dump->rings_claimed, 1);
  EXPECT_EQ(dump->dropped, 0u);
  EXPECT_EQ(dump->overwritten, 0u);
  EXPECT_EQ(dump->torn, 0u);
  ASSERT_EQ(dump->events.size(), 3u);
  EXPECT_GT(dump->start_unix_ms, 0);

  // Timestamps are monotone, so decode order is record order.
  EXPECT_EQ(dump->events[0].type, BlackboxEventType::kRoundEnd);
  EXPECT_DOUBLE_EQ(dump->events[0].values[1], 1.5);
  EXPECT_EQ(dump->events[2].type, BlackboxEventType::kGroupChurn);
  EXPECT_DOUBLE_EQ(dump->events[2].values[1], 7.0);
  EXPECT_LE(dump->events[0].ts_micros, dump->events[1].ts_micros);

  const std::string json =
      BlackboxEventToJson(dump->events[2]).Serialize();
  EXPECT_NE(json.find("\"event\":\"group_churn\""), std::string::npos);
  EXPECT_NE(json.find("\"moved\":7"), std::string::npos);
  EXPECT_NE(json.find("\"n\":24"), std::string::npos);
}

TEST(FlightRecorderTest, RecordIsDroppedWhenInactive) {
  const std::string path = MakeScratchDir() + "/bb.bin";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(recorder.Start(SmallOptions(path)).ok());
  recorder.Record(BlackboxEventType::kNote, {1.0});
  recorder.Stop();
  recorder.Record(BlackboxEventType::kNote, {2.0});  // after Stop: no-op

  auto dump = ReadBlackbox(path);
  ASSERT_TRUE(dump.ok()) << dump.status();
  ASSERT_EQ(dump->events.size(), 1u);
  EXPECT_DOUBLE_EQ(dump->events[0].values[0], 1.0);
}

TEST(FlightRecorderTest, WrapCountsOverwrittenRecords) {
  const std::string path = MakeScratchDir() + "/bb.bin";
  FlightRecorder& recorder = FlightRecorder::Global();
  // 256-byte ring = 4 records.
  ASSERT_TRUE(recorder.Start(SmallOptions(path, /*ring_bytes=*/256)).ok());
  for (int i = 0; i < 10; ++i) {
    recorder.Record(BlackboxEventType::kNote, {static_cast<double>(i)});
  }
  recorder.Stop();

  auto dump = ReadBlackbox(path);
  ASSERT_TRUE(dump.ok()) << dump.status();
  ASSERT_EQ(dump->events.size(), 4u);
  EXPECT_EQ(dump->overwritten, 6u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(dump->events[i].values[0], 6.0 + i);
  }
}

TEST(FlightRecorderTest, EachThreadGetsItsOwnRing) {
  const std::string path = MakeScratchDir() + "/bb.bin";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(recorder.Start(SmallOptions(path)).ok());

  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 16;
  // No thread exits before all have recorded, so none can inherit an
  // exited thread's ring: four rings are in use at once.
  std::barrier all_recorded(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &recorder, &all_recorded] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        recorder.Record(BlackboxEventType::kNote,
                        {static_cast<double>(t), static_cast<double>(i)});
      }
      all_recorded.arrive_and_wait();
    });
  }
  for (std::thread& thread : threads) thread.join();
  recorder.Stop();

  auto dump = ReadBlackbox(path);
  ASSERT_TRUE(dump.ok()) << dump.status();
  EXPECT_EQ(dump->rings_claimed, kThreads);
  EXPECT_EQ(dump->dropped, 0u);
  ASSERT_EQ(dump->events.size(),
            static_cast<std::size_t>(kThreads * kEventsPerThread));
  // Every thread's full sequence survives, attributed to a distinct tid.
  std::vector<int> counts(kThreads, 0);
  std::vector<std::uint32_t> tids(kThreads, 0);
  for (const BlackboxEvent& event : dump->events) {
    const int t = static_cast<int>(event.values[0]);
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    if (counts[t] == 0) {
      tids[t] = event.tid;
    } else {
      EXPECT_EQ(event.tid, tids[t]);
    }
    ++counts[t];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(counts[t], kEventsPerThread);
}

TEST(FlightRecorderTest, RingOfAnExitedThreadIsReused) {
  // Threads that come and go (sweep pool workers, journal replay threads)
  // must not use up the ring slots: each exited thread's ring goes to the
  // next thread that records.
  const std::string path = MakeScratchDir() + "/bb.bin";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(recorder.Start(SmallOptions(path, 4096, /*max_rings=*/2)).ok());
  constexpr int kThreads = 8;
  for (int t = 0; t < kThreads; ++t) {
    std::thread([t, &recorder] {
      recorder.Record(BlackboxEventType::kNote, {static_cast<double>(t)});
    }).join();
  }
  recorder.Stop();
  EXPECT_EQ(recorder.dropped(), 0);

  auto dump = ReadBlackbox(path);
  ASSERT_TRUE(dump.ok()) << dump.status();
  EXPECT_EQ(dump->dropped, 0u);
  ASSERT_EQ(dump->events.size(), static_cast<std::size_t>(kThreads));
  std::set<std::uint32_t> tids;
  for (const BlackboxEvent& event : dump->events) tids.insert(event.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(FlightRecorderTest, ThreadsBeyondRingQuotaDropCounted) {
  const std::string path = MakeScratchDir() + "/bb.bin";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(
      recorder.Start(SmallOptions(path, 4096, /*max_rings=*/1)).ok());
  recorder.Record(BlackboxEventType::kNote, {1.0});  // claims the only ring
  std::thread overflow([&recorder] {
    for (int i = 0; i < 5; ++i) {
      recorder.Record(BlackboxEventType::kNote, {2.0});
    }
  });
  overflow.join();
  EXPECT_EQ(recorder.dropped(), 5);
  recorder.Stop();

  auto dump = ReadBlackbox(path);
  ASSERT_TRUE(dump.ok()) << dump.status();
  EXPECT_EQ(dump->dropped, 5u);
  ASSERT_EQ(dump->events.size(), 1u);
  EXPECT_DOUBLE_EQ(dump->events[0].values[0], 1.0);
}

TEST(FlightRecorderTest, RestartOntoSamePathStartsAFreshDump) {
  const std::string path = MakeScratchDir() + "/bb.bin";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(recorder.Start(SmallOptions(path)).ok());
  recorder.Record(BlackboxEventType::kNote, {1.0});
  // No Stop: restart must cope with a live epoch, even on the same path.
  ASSERT_TRUE(recorder.Start(SmallOptions(path)).ok());
  recorder.Record(BlackboxEventType::kNote, {2.0});
  recorder.Stop();

  auto dump = ReadBlackbox(path);
  ASSERT_TRUE(dump.ok()) << dump.status();
  EXPECT_TRUE(dump->clean_shutdown);
  ASSERT_EQ(dump->events.size(), 1u);  // the first epoch's event is gone
  EXPECT_DOUBLE_EQ(dump->events[0].values[0], 2.0);
}

// --- span records ----------------------------------------------------------

TEST(FlightRecorderSpanTest, SpansNestWithDepthAndContainment) {
  const std::string path = MakeScratchDir() + "/bb.bin";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(recorder.Start(SmallOptions(path)).ok());
  {
    TDG_ZONE(Zone::kSweepCell);
    {
      TDG_ZONE(Zone::kProcessRun);
    }
    {
      TDG_ZONE(Zone::kProcessRun);
    }
  }
  recorder.Stop();

  auto dump = ReadBlackbox(path);
  ASSERT_TRUE(dump.ok()) << dump.status();
  ASSERT_EQ(dump->events.size(), 3u);
  // A span is recorded when it closes, so the enclosing one comes last.
  const BlackboxEvent& outer = dump->events[2];
  EXPECT_EQ(outer.type, BlackboxEventType::kSpan);
  EXPECT_EQ(BlackboxEventLabel(outer), "sweep/cell");
  EXPECT_EQ(outer.values[2], 0.0);  // depth
  const double outer_start = outer.ts_micros - outer.values[1];
  for (int i = 0; i < 2; ++i) {
    const BlackboxEvent& inner = dump->events[i];
    EXPECT_EQ(BlackboxEventLabel(inner), "process/run");
    EXPECT_EQ(inner.values[2], 1.0);
    EXPECT_EQ(inner.tid, outer.tid);
    EXPECT_GE(inner.ts_micros - inner.values[1], outer_start);
    EXPECT_LE(inner.ts_micros, outer.ts_micros);
  }
}

TEST(FlightRecorderSpanTest, ChromeJsonRoundTripsThroughParser) {
  const std::string path = MakeScratchDir() + "/bb.bin";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(recorder.Start(SmallOptions(path)).ok());
  {
    ScopedZone outer(Zone::kAmtExperiment);
    ScopedZone inner(Zone::kAmtRound);
  }
  recorder.Record(BlackboxEventType::kRoundEnd, {0.0, 1.5, 1.5});
  recorder.Stop();
  auto dump = ReadBlackbox(path);
  ASSERT_TRUE(dump.ok()) << dump.status();
  auto parsed =
      util::JsonValue::Parse(BlackboxToChromeTrace(dump.value()).Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  EXPECT_EQ(parsed->GetField("displayTimeUnit")->AsString(), "ms");
  auto trace_events = parsed->GetField("traceEvents");
  ASSERT_TRUE(trace_events.ok());
  ASSERT_EQ(trace_events->AsArray().size(), 3u);
  int complete = 0;
  for (const util::JsonValue& event : trace_events->AsArray()) {
    EXPECT_EQ(event.GetField("cat")->AsString(), "tdg");
    EXPECT_TRUE(event.GetField("ts")->is_number());
    EXPECT_TRUE(event.GetField("tid")->is_number());
    EXPECT_TRUE(event.GetField("args")->is_object());
    const std::string name = event.GetField("name")->AsString();
    if (event.GetField("ph")->AsString() == "X") {
      ++complete;
      EXPECT_TRUE(name == "amt/experiment" || name == "amt/round") << name;
      EXPECT_TRUE(event.GetField("dur")->is_number());
    } else {
      EXPECT_EQ(name, "round_end");
      EXPECT_EQ(event.GetField("ph")->AsString(), "i");
    }
  }
  EXPECT_EQ(complete, 2);
}

TEST(FlightRecorderSpanTest, InactiveRecorderRecordsNoSpans) {
  const std::string path = MakeScratchDir() + "/bb.bin";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_FALSE(recorder.active());
  {
    ScopedZone opened_while_off(Zone::kProcessRun);
    ASSERT_TRUE(recorder.Start(SmallOptions(path)).ok());
    {
      // Depth counts only spans that recorded: this one is outermost.
      ScopedZone inner(Zone::kProcessRound);
    }
  }  // closes while on, but opened while off: no record
  recorder.Stop();
  {
    ScopedZone after_stop(Zone::kProcessRun);
  }

  auto dump = ReadBlackbox(path);
  ASSERT_TRUE(dump.ok()) << dump.status();
  ASSERT_EQ(dump->events.size(), 1u);
  EXPECT_EQ(BlackboxEventLabel(dump->events[0]), "process/round");
  EXPECT_EQ(dump->events[0].values[2], 0.0);
}

TEST(FlightRecorderSpanTest, JsonlCarriesStampsAndSpanName) {
  const std::string path = MakeScratchDir() + "/bb.bin";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(recorder.Start(SmallOptions(path)).ok());
  {
    ScopedZone span(Zone::kBranchBoundSearch);
  }
  recorder.Record(BlackboxEventType::kSpan, {200.0, 5.0, 0.0});
  recorder.Stop();
  auto dump = ReadBlackbox(path);
  ASSERT_TRUE(dump.ok()) << dump.status();
  ASSERT_EQ(dump->events.size(), 2u);

  auto known = util::JsonValue::Parse(
      BlackboxEventToJson(dump->events[0]).Serialize());
  ASSERT_TRUE(known.ok()) << known.status();
  EXPECT_EQ(known->GetField("event")->AsString(), "span");
  EXPECT_EQ(known->GetField("name")->AsString(), "solver/branch_bound");
  EXPECT_EQ(known->GetField("span")->AsNumber(),
            static_cast<double>(BlackboxSpan::kSolverBranchBound));
  EXPECT_GE(known->GetField("micros")->AsNumber(), 0.0);
  EXPECT_EQ(known->GetField("depth")->AsNumber(), 0.0);
  EXPECT_EQ(known->GetField("ts_micros")->AsNumber(),
            static_cast<double>(dump->events[0].ts_micros));
  EXPECT_EQ(known->GetField("tid")->AsNumber(),
            static_cast<double>(dump->events[0].tid));
  // A span id this reader does not know still decodes, under a generic
  // name.
  EXPECT_EQ(BlackboxEventLabel(dump->events[1]), "span_200");
}

// Every event type's decoded name and payload field names, and the
// generic decoding of a type this reader does not know. Dumps on disk and
// every JSONL, Chrome-trace and summary view depend on these strings.
TEST(BlackboxDecodeTest, EventNamesAndFieldsArePinned) {
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"note", ""},
      {"process_start", "n,num_groups,num_rounds,mode,fused"},
      {"round_end", "round,round_gain,total_gain"},
      {"group_churn", "round,moved,n"},
      {"group_gain_summary", "round,num_groups,min_gain,mean_gain,max_gain"},
      {"round_objective", "n,num_groups,layout,round_gain"},
      {"policy_decision", "mode,layout,n,num_groups"},
      {"sweep_cell_start", "cell_index,n,num_groups,num_rounds"},
      {"sweep_cell_end", "cell_index,mean_gain,runs"},
      {"solver_incumbent", "incumbent"},
      {"crash", "fatal"},
      {"cohort_enroll", "cohort,n,group_size,mode"},
      {"cohort_round", "cohort,round,n,round_gain"},
      {"cohort_churn", "cohort,round,joined,left,n"},
      {"cohort_restore", "cohort,rounds,n"},
      {"request_start", "trace_id"},
      {"request_phase", "trace_id,phase,micros"},
      {"request_end", "trace_id,status,micros,endpoint"},
      {"span", "span,micros,depth"},
  };
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto type = static_cast<BlackboxEventType>(i + 1);
    SCOPED_TRACE(i + 1);
    EXPECT_EQ(BlackboxEventName(type), expected[i].first);
    std::string fields;
    for (std::string_view field : BlackboxEventFieldNames(type)) {
      if (!fields.empty()) fields += ",";
      fields += field;
    }
    EXPECT_EQ(fields, expected[i].second);
    BlackboxEvent event;
    event.type = type;
    if (type != BlackboxEventType::kSpan) {
      EXPECT_EQ(BlackboxEventLabel(event), expected[i].first);
    }
  }

  BlackboxEvent unknown;
  unknown.ts_micros = 5;
  unknown.tid = 7;
  unknown.type = static_cast<BlackboxEventType>(20);
  unknown.values[0] = 1.5;
  unknown.values[5] = 2.0;
  EXPECT_EQ(BlackboxEventName(unknown.type), "");
  EXPECT_TRUE(BlackboxEventFieldNames(unknown.type).empty());
  EXPECT_EQ(BlackboxEventLabel(unknown), "unknown_20");
  EXPECT_EQ(BlackboxEventToJson(unknown).Serialize(),
            R"({"event":"unknown_20","tid":7,"ts_micros":5,"v0":1.5,"v5":2})");
}

// --- decoder hardening -----------------------------------------------------

TEST(BlackboxDecodeTest, RejectsGarbageAndTruncation) {
  EXPECT_FALSE(DecodeBlackbox("").ok());
  EXPECT_FALSE(DecodeBlackbox("short").ok());
  EXPECT_FALSE(DecodeBlackbox(std::string(4096, 'x')).ok());
  EXPECT_FALSE(ReadBlackbox("/nonexistent-tdg/bb.bin").ok());

  // A valid header whose file got truncated below its geometry.
  const std::string path = MakeScratchDir() + "/bb.bin";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(recorder.Start(SmallOptions(path)).ok());
  recorder.Stop();
  auto bytes = util::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_FALSE(DecodeBlackbox(
                   std::string_view(*bytes).substr(0, bytes->size() / 2))
                   .ok());
}

TEST(BlackboxDecodeTest, TornRecordIsSkippedAndCounted) {
  const std::string path = MakeScratchDir() + "/bb.bin";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(recorder.Start(SmallOptions(path)).ok());
  recorder.Record(BlackboxEventType::kNote, {1.0});
  recorder.Record(BlackboxEventType::kNote, {2.0});
  recorder.Record(BlackboxEventType::kNote, {3.0});
  recorder.Stop();

  auto bytes = util::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  // Smash the second record's magic: file header (64) + ring 0 header (64)
  // + one record (64) is where it starts.
  std::string corrupted = std::move(bytes).value();
  std::memset(corrupted.data() + 64 + 64 + 64, 0, 8);

  auto dump = DecodeBlackbox(corrupted);
  ASSERT_TRUE(dump.ok()) << dump.status();
  EXPECT_EQ(dump->torn, 1u);
  ASSERT_EQ(dump->events.size(), 2u);
  EXPECT_DOUBLE_EQ(dump->events[0].values[0], 1.0);
  EXPECT_DOUBLE_EQ(dump->events[1].values[0], 3.0);
}

// --- crash end-to-end ------------------------------------------------------

// Runs the child shard binary with the flight recorder on; returns its exit
// code (or -1 on abnormal termination).
int RunChildWithBlackbox(const std::string& config_path,
                         const std::string& checkpoint_path,
                         const std::string& blackbox_path,
                         int crash_after_cells) {
  std::string command;
  if (crash_after_cells >= 0) {
    command += "TDG_TEST_CRASH_AFTER_CELLS=" +
               std::to_string(crash_after_cells) + " ";
  }
  command += std::string("'") + TDG_SWEEP_SHARD_CHILD_BIN + "'";
  command += " --config='" + config_path + "'";
  command += " --checkpoint='" + checkpoint_path + "'";
  command += " --blackbox='" + blackbox_path + "'";
  command += " --threads=1 >/dev/null";
  const int status = std::system(command.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

// How many checkpoint cell records reached disk (the file opens with a
// schema/header line, which does not carry a cell_index).
int CheckpointCellCount(const std::string& path) {
  std::ifstream in(path);
  int cells = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"cell_index\"") != std::string::npos) ++cells;
  }
  return cells;
}

TEST(FlightRecorderCrashTest, KilledShardLeavesDecodableBlackbox) {
#if !defined(TDG_TEST_HOOKS)
  GTEST_SKIP() << "fault-injection hooks compiled out (TDG_TEST_HOOKS=OFF)";
#endif
  const std::string dir = MakeScratchDir();
  const std::string config_path = dir + "/sweep.cfg";
  {
    std::ofstream out(config_path);
    ASSERT_TRUE(out.good());
    out << TinyConfig(1).ToText();
  }
  const std::string checkpoint = dir + "/shard.ckpt";
  const std::string blackbox = dir + "/shard.blackbox";

  constexpr int kCrashAfter = 3;
  ASSERT_EQ(RunChildWithBlackbox(config_path, checkpoint, blackbox,
                                 kCrashAfter),
            exp::kCrashHookExitCode)
      << "the fault hook should have killed the child";

  // The dump must decode even though the child died by _Exit with no
  // handler running — the shared mapping is the persistence.
  auto dump = ReadBlackbox(blackbox);
  ASSERT_TRUE(dump.ok()) << dump.status();
  EXPECT_FALSE(dump->clean_shutdown) << "a killed child must not look clean";

  // Semantic events for the in-flight work made it: with one worker
  // thread, the recorded cell_end events are exactly the checkpoint's
  // cells, in order, ending at the crash cut.
  std::vector<long long> cell_ends;
  bool saw_round_event = false;
  for (const BlackboxEvent& event : dump->events) {
    if (event.type == BlackboxEventType::kSweepCellEnd) {
      cell_ends.push_back(static_cast<long long>(event.values[0]));
    }
    if (event.type == BlackboxEventType::kRoundEnd ||
        event.type == BlackboxEventType::kRoundObjective) {
      saw_round_event = true;
    }
  }
  EXPECT_TRUE(saw_round_event)
      << "per-round semantic events should be recorded inside cells";
  ASSERT_EQ(static_cast<int>(cell_ends.size()), kCrashAfter);
  EXPECT_EQ(static_cast<int>(cell_ends.size()),
            CheckpointCellCount(checkpoint));

  // A clean completion of the same shard stamps the clean-shutdown flag.
  const std::string checkpoint2 = dir + "/shard2.ckpt";
  const std::string blackbox2 = dir + "/shard2.blackbox";
  ASSERT_EQ(RunChildWithBlackbox(config_path, checkpoint2, blackbox2,
                                 /*crash_after_cells=*/-1),
            0);
  auto clean_dump = ReadBlackbox(blackbox2);
  ASSERT_TRUE(clean_dump.ok()) << clean_dump.status();
  EXPECT_TRUE(clean_dump->clean_shutdown);
  std::vector<long long> clean_cell_ends;
  for (const BlackboxEvent& event : clean_dump->events) {
    if (event.type == BlackboxEventType::kSweepCellEnd) {
      clean_cell_ends.push_back(static_cast<long long>(event.values[0]));
    }
  }
  EXPECT_EQ(static_cast<int>(clean_cell_ends.size()),
            CheckpointCellCount(checkpoint2));
}

}  // namespace
}  // namespace tdg::obs
