#include "obs/request_context.h"

#include <unistd.h>

#include <atomic>

#include "obs/flight_recorder.h"
#include "util/string_util.h"

namespace tdg::obs {
namespace {

thread_local RequestContext* t_request_context = nullptr;

// splitmix64 finalizer: bijective, so distinct counter values can never
// collide within one process; quality mixing keeps ids from looking
// sequential in dumps.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::string_view RequestPhaseName(RequestPhase phase) {
  switch (phase) {
    case RequestPhase::kParse:
      return "parse";
    case RequestPhase::kLockWait:
      return "lock_wait";
    case RequestPhase::kJournal:
      return "journal_fsync";
    case RequestPhase::kCompute:
      return "compute";
    case RequestPhase::kSerialize:
      return "serialize";
  }
  return "unknown";
}

uint64_t MintTraceId() {
  static std::atomic<uint64_t> counter{0};
  static const uint64_t process_seed =
      Mix64(static_cast<uint64_t>(util::UnixMillis()) ^
            (static_cast<uint64_t>(::getpid()) << 48));
  for (;;) {
    const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed) + 1;
    const uint64_t id =
        Mix64(process_seed + n * 0x9E3779B97F4A7C15ull) & ((1ull << 48) - 1);
    if (id != 0) return id;  // 0 means "no trace"; vanishingly rare retry
  }
}

uint32_t EndpointHash(std::string_view endpoint) {
  return static_cast<uint32_t>(util::Fnv1a64(endpoint) & 0xffffffffULL);
}

RequestContext* CurrentRequestContext() { return t_request_context; }

ScopedRequestContext::ScopedRequestContext(RequestContext& context)
    : previous_(t_request_context) {
  context.start_unix_ms = util::UnixMillis();
  context.start_micros = util::MonotonicMicros();
  t_request_context = &context;
  FlightRecorder& recorder = FlightRecorder::Global();
  if (recorder.active()) {
    recorder.Record(BlackboxEventType::kRequestStart,
                    {static_cast<double>(context.trace_id)});
  }
}

ScopedRequestContext::~ScopedRequestContext() {
  t_request_context = previous_;
}

ScopedRequestPhase::ScopedRequestPhase(RequestPhase phase)
    : context_(t_request_context), phase_(phase) {
  if (context_ != nullptr) begin_micros_ = util::MonotonicMicros();
}

ScopedRequestPhase::~ScopedRequestPhase() {
  if (context_ == nullptr) return;
  const int64_t elapsed = util::MonotonicMicros() - begin_micros_;
  context_->phase_micros[static_cast<size_t>(phase_)] += elapsed;
  FlightRecorder& recorder = FlightRecorder::Global();
  if (recorder.active()) {
    recorder.Record(BlackboxEventType::kRequestPhase,
                    {static_cast<double>(context_->trace_id),
                     static_cast<double>(static_cast<int>(phase_)),
                     static_cast<double>(elapsed)});
  }
}

void FinishRequest(RequestContext& context, int status) {
  context.status = status;
  context.total_micros = util::MonotonicMicros() - context.start_micros;
  FlightRecorder& recorder = FlightRecorder::Global();
  if (recorder.active()) {
    recorder.Record(BlackboxEventType::kRequestEnd,
                    {static_cast<double>(context.trace_id),
                     static_cast<double>(status),
                     static_cast<double>(context.total_micros),
                     static_cast<double>(EndpointHash(context.endpoint))});
  }
}

}  // namespace tdg::obs
