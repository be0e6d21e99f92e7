#ifndef TDG_OBS_REQUEST_CONTEXT_H_
#define TDG_OBS_REQUEST_CONTEXT_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/stopwatch.h"

namespace tdg::obs {

/// Request-scoped tracing (DESIGN.md §14): CohortServer mints one trace id
/// per accepted request and binds a RequestContext to the worker thread for
/// the request's lifetime. Layers below (CohortManager, Cohort, the round
/// core) never see the context type — they open a ScopedRequestPhase, which
/// charges elapsed time to the bound context if one exists and costs one
/// thread-local load when none does. Each phase end and the request end are
/// also stamped into the flight recorder (kRequestStart/Phase/End), so
/// `tdg_blackbox --trace_id` can pull one request's causal path — including
/// the kCohortRound records the core emits on the same thread — out of a
/// black-box dump.
///
/// This is explicit API (no macro): /slowz is product surface like
/// /blackboxz.

/// The timed request phases, in request order. Values index
/// RequestContext::phase_micros and ride in kRequestPhase blackbox payloads.
enum class RequestPhase : int {
  kParse = 0,      // socket read + HTTP parse
  kLockWait = 1,   // waiting on the cohort entry lock
  kJournal = 2,    // journal append + fsync
  kCompute = 3,    // core round computation (Cohort::Advance etc.)
  kSerialize = 4,  // response serialize + socket write
};
inline constexpr int kNumRequestPhases = 5;

/// "parse", "lock_wait", "journal_fsync", "compute", "serialize".
std::string_view RequestPhaseName(RequestPhase phase);

/// Mints a process-unique nonzero trace id. Ids are 48-bit so they survive
/// the flight recorder's double payload slots exactly (a full 64-bit id
/// would round); the high bits mix in start time + pid so ids from separate
/// server runs landing in one dump file stay distinct.
uint64_t MintTraceId();

/// Stable 32-bit label hash for payload slots (endpoint names); exact in a
/// double, same idea as Cohort::id_hash.
uint32_t EndpointHash(std::string_view endpoint);

/// One request's trace accumulator. Owned by the server handler; bound to
/// the worker thread via ScopedRequestContext while the request runs.
struct RequestContext {
  uint64_t trace_id = 0;
  std::string endpoint;        // routing label, set once routed
  int status = 0;              // HTTP status, set by FinishRequest
  int64_t start_unix_ms = 0;   // wall clock, for /slowz display
  int64_t start_micros = 0;    // util::MonotonicMicros at bind
  int64_t total_micros = 0;    // set by FinishRequest
  std::array<int64_t, kNumRequestPhases> phase_micros{};
};

/// The context bound to this thread, or nullptr outside any request.
RequestContext* CurrentRequestContext();

/// Binds `context` to the current thread for the scope (stacking: the
/// previous binding is restored on destruction), stamps start times, and
/// records kRequestStart when the flight recorder is active.
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(RequestContext& context);
  ~ScopedRequestContext();
  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  RequestContext* previous_;
};

/// Charges the scope's wall time to `phase` of the thread's bound context
/// (and emits a kRequestPhase record). Near-free when no context is bound:
/// one thread-local load in the constructor, nothing in the destructor.
class ScopedRequestPhase {
 public:
  explicit ScopedRequestPhase(RequestPhase phase);
  ~ScopedRequestPhase();
  ScopedRequestPhase(const ScopedRequestPhase&) = delete;
  ScopedRequestPhase& operator=(const ScopedRequestPhase&) = delete;

 private:
  RequestContext* context_;
  RequestPhase phase_;
  int64_t begin_micros_ = 0;
};

/// Finalizes the bound-or-passed context: stamps `status` and the
/// end-to-end latency, and records kRequestEnd. Call exactly once, after
/// the response is written.
void FinishRequest(RequestContext& context, int status);

}  // namespace tdg::obs

#endif  // TDG_OBS_REQUEST_CONTEXT_H_
