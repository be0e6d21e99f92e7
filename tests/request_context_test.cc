// Tests for the request-tracing plane (DESIGN.md §14): trace-id minting,
// thread-local context binding, per-phase accumulation, the flight-recorder
// round trip (a request's kRequestStart/Phase/End records are recoverable
// from a dump by trace id), and the TailSampler's retention rule.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/request_context.h"
#include "obs/tail_sampler.h"
#include "util/json.h"

namespace tdg::obs {
namespace {

TEST(RequestContextTest, MintTraceIdIsNonzero48BitAndUnique) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t id = MintTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_LT(id, 1ull << 48);  // exact in a double payload slot
    // Round-trips through the blackbox's double slots without loss.
    EXPECT_EQ(static_cast<uint64_t>(static_cast<double>(id)), id);
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(RequestContextTest, PhaseNames) {
  EXPECT_EQ(RequestPhaseName(RequestPhase::kParse), "parse");
  EXPECT_EQ(RequestPhaseName(RequestPhase::kLockWait), "lock_wait");
  EXPECT_EQ(RequestPhaseName(RequestPhase::kJournal), "journal_fsync");
  EXPECT_EQ(RequestPhaseName(RequestPhase::kCompute), "compute");
  EXPECT_EQ(RequestPhaseName(RequestPhase::kSerialize), "serialize");
}

TEST(RequestContextTest, NoContextBoundOutsideScope) {
  EXPECT_EQ(CurrentRequestContext(), nullptr);
  {
    RequestContext context;
    context.trace_id = MintTraceId();
    ScopedRequestContext scoped(context);
    EXPECT_EQ(CurrentRequestContext(), &context);
  }
  EXPECT_EQ(CurrentRequestContext(), nullptr);
}

TEST(RequestContextTest, ScopedBindingStacksAndRestores) {
  RequestContext outer;
  outer.trace_id = MintTraceId();
  ScopedRequestContext scoped_outer(outer);
  {
    RequestContext inner;
    inner.trace_id = MintTraceId();
    ScopedRequestContext scoped_inner(inner);
    EXPECT_EQ(CurrentRequestContext(), &inner);
  }
  EXPECT_EQ(CurrentRequestContext(), &outer);
}

TEST(RequestContextTest, PhasesAccumulateIntoBoundContext) {
  RequestContext context;
  context.trace_id = MintTraceId();
  ScopedRequestContext scoped(context);
  {
    ScopedRequestPhase phase(RequestPhase::kCompute);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    ScopedRequestPhase phase(RequestPhase::kCompute);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    ScopedRequestPhase phase(RequestPhase::kJournal);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto compute_index = static_cast<int>(RequestPhase::kCompute);
  const auto journal_index = static_cast<int>(RequestPhase::kJournal);
  EXPECT_GE(context.phase_micros[compute_index], 4000);  // both scopes added
  EXPECT_GE(context.phase_micros[journal_index], 1000);
  EXPECT_EQ(context.phase_micros[static_cast<int>(RequestPhase::kParse)], 0);
}

TEST(RequestContextTest, PhaseIsNoOpWhenUnbound) {
  ASSERT_EQ(CurrentRequestContext(), nullptr);
  // Must not crash or record anywhere.
  ScopedRequestPhase phase(RequestPhase::kLockWait);
}

TEST(RequestContextTest, FinishStampsStatusAndTotal) {
  RequestContext context;
  context.trace_id = MintTraceId();
  context.endpoint = "advance";
  {
    ScopedRequestContext scoped(context);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    FinishRequest(context, 200);
  }
  EXPECT_EQ(context.status, 200);
  EXPECT_GE(context.total_micros, 1000);
  EXPECT_GT(context.start_unix_ms, 0);
}

TEST(RequestContextTest, BlackboxRoundTripByTraceId) {
  const std::string path = testing::TempDir() + "/request_trace.bin";
  FlightRecorder::Options options;
  options.path = path;
  ASSERT_TRUE(FlightRecorder::Global().Start(options).ok());

  RequestContext context;
  context.trace_id = MintTraceId();
  context.endpoint = "advance";
  {
    ScopedRequestContext scoped(context);
    { ScopedRequestPhase phase(RequestPhase::kLockWait); }
    { ScopedRequestPhase phase(RequestPhase::kCompute); }
    FinishRequest(context, 200);
  }
  FlightRecorder::Global().Stop();

  auto dump = ReadBlackbox(path);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  const double want_id = static_cast<double>(context.trace_id);
  int starts = 0, phases = 0, ends = 0;
  for (const BlackboxEvent& event : dump->events) {
    if (event.values[0] != want_id) continue;
    switch (event.type) {
      case BlackboxEventType::kRequestStart:
        ++starts;
        // The endpoint is known only at finish, so the start record has
        // no endpoint field to decode.
        EXPECT_FALSE(BlackboxEventToJson(event).GetField("endpoint").ok());
        break;
      case BlackboxEventType::kRequestPhase:
        ++phases;
        break;
      case BlackboxEventType::kRequestEnd:
        ++ends;
        EXPECT_EQ(static_cast<int>(event.values[1]), 200);  // status
        EXPECT_EQ(static_cast<uint32_t>(event.values[3]),
                  EndpointHash("advance"));
        EXPECT_TRUE(BlackboxEventToJson(event).GetField("endpoint").ok());
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(phases, 2);
  EXPECT_EQ(ends, 1);
}

RequestContext MakeTrace(uint64_t trace_id, const std::string& endpoint,
                         int status, int64_t total_micros) {
  RequestContext context;
  context.trace_id = trace_id;
  context.endpoint = endpoint;
  context.status = status;
  context.start_unix_ms = 1700000000000;
  context.total_micros = total_micros;
  context.phase_micros[static_cast<int>(RequestPhase::kCompute)] =
      total_micros / 2;
  return context;
}

int CountLines(const std::string& jsonl) {
  int lines = 0;
  for (char c : jsonl) lines += c == '\n';
  return lines;
}

TEST(TailSamplerTest, ThresholdSelectsSlowRequests) {
  TailSampler sampler(/*slow_threshold_micros=*/1000);
  sampler.Offer(MakeTrace(1, "advance", 200, 500));   // fast — dropped
  sampler.Offer(MakeTrace(2, "advance", 503, 5000));  // slow — kept
  const std::string jsonl = sampler.SlowTracesJsonl();
  ASSERT_EQ(CountLines(jsonl), 1);
  auto line = util::JsonValue::Parse(jsonl.substr(0, jsonl.size() - 1));
  ASSERT_TRUE(line.ok()) << line.status();
  EXPECT_EQ(line->GetField("trace_id")->AsNumber(), 2.0);
  EXPECT_EQ(line->GetField("endpoint")->AsString(), "advance");
  EXPECT_EQ(line->GetField("status")->AsNumber(), 503.0);
  EXPECT_EQ(line->GetField("total_micros")->AsNumber(), 5000.0);
  EXPECT_EQ(line->GetField("compute_micros")->AsNumber(), 2500.0);
  EXPECT_EQ(line->GetField("lock_wait_micros")->AsNumber(), 0.0);
  EXPECT_EQ(line->GetField("journal_fsync_micros")->AsNumber(), 0.0);
}

TEST(TailSamplerTest, ZeroThresholdKeepsEverything) {
  TailSampler sampler(/*slow_threshold_micros=*/0);
  for (uint64_t i = 1; i <= 5; ++i) {
    sampler.Offer(MakeTrace(i, "join", 200, 10));
  }
  std::string jsonl = sampler.SlowTracesJsonl();
  EXPECT_EQ(CountLines(jsonl), 5);
  // Newest first.
  EXPECT_LT(jsonl.find("\"trace_id\":5}"), jsonl.find("\"trace_id\":1}"));
}

TEST(TailSamplerTest, FastRequestsNeverEvictSlowOnes) {
  TailSampler sampler;  // the default threshold, as served
  sampler.Offer(MakeTrace(7, "advance", 200, 250 * 1000));
  const uint64_t fast = 64 * TailSampler::kCapacity;
  for (uint64_t i = 1; i <= fast; ++i) {
    sampler.Offer(MakeTrace(1000 + i, "join", 200, 300));
  }
  const std::string jsonl = sampler.SlowTracesJsonl();
  EXPECT_EQ(CountLines(jsonl), 1);
  EXPECT_NE(jsonl.find("\"trace_id\":7}"), std::string::npos);
}

TEST(TailSamplerTest, CapacityBoundsTheRing) {
  TailSampler sampler(/*slow_threshold_micros=*/0);
  const uint64_t offered = TailSampler::kCapacity + 8;
  for (uint64_t i = 1; i <= offered; ++i) {
    sampler.Offer(MakeTrace(i, "leave", 200, 99));
  }
  const std::string jsonl = sampler.SlowTracesJsonl();
  EXPECT_EQ(CountLines(jsonl), TailSampler::kCapacity);
  // Newest first; the 8 oldest are gone.
  auto newest = util::JsonValue::Parse(jsonl.substr(0, jsonl.find('\n')));
  ASSERT_TRUE(newest.ok()) << newest.status();
  EXPECT_EQ(newest->GetField("trace_id")->AsNumber(),
            static_cast<double>(offered));
  EXPECT_EQ(jsonl.find("\"trace_id\":8}"), std::string::npos);
  EXPECT_NE(jsonl.find("\"trace_id\":9}"), std::string::npos);
}

TEST(TailSamplerTest, OfferIsThreadSafe) {
  TailSampler sampler(/*slow_threshold_micros=*/0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&sampler, t] {
      for (uint64_t i = 0; i < 250; ++i) {
        sampler.Offer(
            MakeTrace(static_cast<uint64_t>(t) * 1000 + i, "join", 200, 7));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // 1,000 concurrent offers fill the ring exactly to its capacity.
  EXPECT_EQ(CountLines(sampler.SlowTracesJsonl()), TailSampler::kCapacity);
}

}  // namespace
}  // namespace tdg::obs
