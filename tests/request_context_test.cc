// Tests for the request-tracing plane (DESIGN.md §14): trace-id minting,
// thread-local context binding, per-phase accumulation, the flight-recorder
// round trip (a request's kRequestStart/Phase/End records are recoverable
// from a dump by trace id), and the TailSampler's retention rules.

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

TEST(TailSamplerTest, ThresholdSelectsSlowRequests) {
  TailSampler::Options options;
  options.slow_threshold_micros = 1000;
  options.sample_every = 0;  // isolate the threshold leg
  TailSampler sampler(options);
  sampler.Offer(MakeTrace(1, "advance", 200, 500));   // fast — dropped
  sampler.Offer(MakeTrace(2, "advance", 200, 5000));  // slow — kept
  const std::string jsonl = sampler.SlowTracesJsonl();
  // Object keys serialize sorted, so trace_id is the closing field.
  EXPECT_EQ(jsonl.find("\"trace_id\":1}"), std::string::npos);
  EXPECT_NE(jsonl.find("\"trace_id\":2}"), std::string::npos);
  EXPECT_NE(jsonl.find("\"compute_micros\":2500"), std::string::npos);
  EXPECT_NE(jsonl.find("\"lock_wait_micros\":0"), std::string::npos);
  EXPECT_NE(jsonl.find("\"journal_fsync_micros\":0"), std::string::npos);
  EXPECT_EQ(sampler.offered(), 2);
}

TEST(TailSamplerTest, ZeroThresholdKeepsEverything) {
  TailSampler::Options options;
  options.slow_threshold_micros = 0;
  TailSampler sampler(options);
  for (uint64_t i = 1; i <= 5; ++i) {
    sampler.Offer(MakeTrace(i, "join", 200, 10));
  }
  std::string jsonl = sampler.SlowTracesJsonl();
  int lines = 0;
  for (char c : jsonl) lines += c == '\n';
  EXPECT_EQ(lines, 5);
  // Newest first.
  EXPECT_LT(jsonl.find("\"trace_id\":5}"), jsonl.find("\"trace_id\":1}"));
}

TEST(TailSamplerTest, SampleLegKeepsEveryNth) {
  TailSampler::Options options;
  options.slow_threshold_micros = 1000000;  // nothing is slow
  options.sample_every = 4;
  TailSampler sampler(options);
  for (uint64_t i = 1; i <= 12; ++i) {
    sampler.Offer(MakeTrace(i, "join", 200, 10));
  }
  std::string jsonl = sampler.SlowTracesJsonl();
  int lines = 0;
  for (char c : jsonl) lines += c == '\n';
  EXPECT_EQ(lines, 3);  // 1 in 4 of 12
  // Sampled (not slow) traces are marked slow:false.
  EXPECT_NE(jsonl.find("\"slow\":false"), std::string::npos);
  EXPECT_EQ(jsonl.find("\"slow\":true"), std::string::npos);
}

TEST(TailSamplerTest, CapacitiesBoundBothRings) {
  TailSampler::Options options;
  options.slow_threshold_micros = 0;
  options.slow_capacity = 8;
  options.recent_capacity = 4;
  TailSampler sampler(options);
  for (uint64_t i = 1; i <= 100; ++i) {
    sampler.Offer(MakeTrace(i, "leave", 200, 99));
  }
  std::string jsonl = sampler.SlowTracesJsonl();
  int lines = 0;
  for (char c : jsonl) lines += c == '\n';
  EXPECT_EQ(lines, 8);
  EXPECT_NE(jsonl.find("\"trace_id\":100}"), std::string::npos);  // newest kept
  EXPECT_EQ(jsonl.find("\"trace_id\":92}"), std::string::npos);   // oldest gone

  const util::JsonValue recent = sampler.RecentTracesJson();
  ASSERT_TRUE(recent.is_object());
  const auto traces = recent.GetField("traces");
  ASSERT_TRUE(traces.ok());
  ASSERT_EQ(traces->AsArray().size(), 4u);
  // Newest first.
  EXPECT_EQ(traces->AsArray()[0].GetField("trace_id")->AsNumber(), 100.0);
  EXPECT_EQ(traces->AsArray()[3].GetField("trace_id")->AsNumber(), 97.0);
}

TEST(TailSamplerTest, RecentTraceFieldsMatchContext) {
  TailSampler sampler;
  sampler.Offer(MakeTrace(42, "advance", 503, 1234));
  const util::JsonValue recent = sampler.RecentTracesJson();
  const auto traces = recent.GetField("traces");
  ASSERT_TRUE(traces.ok());
  ASSERT_EQ(traces->AsArray().size(), 1u);
  const util::JsonValue& trace = traces->AsArray()[0];
  EXPECT_EQ(trace.GetField("trace_id")->AsNumber(), 42.0);
  EXPECT_EQ(trace.GetField("endpoint")->AsString(), "advance");
  EXPECT_EQ(trace.GetField("status")->AsNumber(), 503.0);
  EXPECT_EQ(trace.GetField("total_micros")->AsNumber(), 1234.0);
}

TEST(TailSamplerTest, OfferIsThreadSafe) {
  TailSampler::Options options;
  options.slow_threshold_micros = 0;
  TailSampler sampler(options);
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
  EXPECT_EQ(sampler.offered(), 1000);
  // Both rings still within capacity after concurrent pushes.
  std::string jsonl = sampler.SlowTracesJsonl();
  int lines = 0;
  for (char c : jsonl) lines += c == '\n';
  EXPECT_LE(lines, sampler.options().slow_capacity);
}

}  // namespace
}  // namespace tdg::obs
