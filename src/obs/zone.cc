#include "obs/zone.h"

#include <cstdlib>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "util/stopwatch.h"

namespace tdg::obs {
namespace {

// One perf domain's registry counters.
struct DomainCounters {
  explicit DomainCounters(std::string_view domain) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    const std::string prefix = "perf/" + std::string(domain) + "/";
    calls = &registry.GetCounter(prefix + "calls");
    for (int i = 0; i < kNumPerfEvents; ++i) {
      events[i] = &registry.GetCounter(
          prefix + std::string(PerfEventName(static_cast<PerfEvent>(i))));
    }
  }

  void Attribute(const PerfSample& delta) {
    for (int i = 0; i < kNumPerfEvents; ++i) {
      if (delta.values[i] > 0) events[i]->Add(delta.values[i]);
    }
  }

  Counter* calls;
  Counter* events[kNumPerfEvents];
};

std::atomic<DomainCounters*> g_domains[kNumZones] = {};

// Registers a domain's counters on its zone's first profiled entry. Racing
// first entries may each build a copy; registry lookups are idempotent, so
// the losers' copies are simply dropped.
DomainCounters& Domain(Zone zone) {
  std::atomic<DomainCounters*>& slot = g_domains[static_cast<int>(zone)];
  DomainCounters* domain = slot.load(std::memory_order_acquire);
  if (domain != nullptr) return *domain;
  auto* fresh = new DomainCounters(ZoneSpecOf(zone).domain);
  if (slot.compare_exchange_strong(domain, fresh,
                                   std::memory_order_acq_rel)) {
    return *fresh;
  }
  delete fresh;
  return *domain;
}

// Per-thread attribution state: the innermost open profiled zone plus the
// reading taken at the last attribution boundary. Every boundary (entry or
// exit) charges the delta since the mark to the innermost zone, which is
// exactly the self-time decomposition: a thread's total is partitioned,
// never double counted.
struct ProfileState {
  const ScopedZone* top = nullptr;
  PerfSample mark;
};
thread_local ProfileState tls_profile;
// Nesting depth of this thread's open recorded spans.
thread_local int tls_span_depth = 0;

std::uint8_t PlanesFromEnvironment() {
  const char* value = std::getenv("TDG_PROFILE");
  return value != nullptr && value[0] == '1' ? zone_internal::kProfilePlane
                                              : 0;
}

}  // namespace

namespace zone_internal {
std::atomic<std::uint8_t> g_planes{PlanesFromEnvironment()};

void SetPlane(std::uint8_t plane, bool on) {
  if (on) {
    g_planes.fetch_or(plane, std::memory_order_relaxed);
  } else {
    g_planes.fetch_and(static_cast<std::uint8_t>(~plane),
                       std::memory_order_relaxed);
  }
}
}  // namespace zone_internal

bool ProfilingEnabled() {
  return (zone_internal::g_planes.load(std::memory_order_relaxed) &
          zone_internal::kProfilePlane) != 0;
}

void SetProfilingEnabled(bool enabled) {
  zone_internal::SetPlane(zone_internal::kProfilePlane, enabled);
}

void ScopedZone::Open(std::uint8_t planes) {
  const ZoneSpec& spec = ZoneSpecOf(zone_);
  if ((planes & zone_internal::kRecorderPlane) != 0 &&
      spec.span != BlackboxSpan::kNone) {
    opened_ |= zone_internal::kRecorderPlane;
    depth_ = tls_span_depth++;
    span_start_micros_ = util::MonotonicMicros();
  }
  if ((planes & zone_internal::kProfilePlane) != 0 && !spec.domain.empty()) {
    opened_ |= zone_internal::kProfilePlane;
    ProfileState& state = tls_profile;
    const PerfSample sample = ThreadPerfCounters::ForCurrentThread().Read();
    if (state.top != nullptr) {
      Domain(state.top->zone_).Attribute(sample.DeltaSince(state.mark));
    }
    parent_ = state.top;
    state.top = this;
    state.mark = sample;
    Domain(zone_).calls->Add(1);
  }
}

void ScopedZone::Close() {
  if ((opened_ & zone_internal::kProfilePlane) != 0) {
    ProfileState& state = tls_profile;
    const PerfSample sample = ThreadPerfCounters::ForCurrentThread().Read();
    Domain(zone_).Attribute(sample.DeltaSince(state.mark));
    state.top = parent_;
    state.mark = sample;
  }
  if ((opened_ & zone_internal::kRecorderPlane) != 0) {
    --tls_span_depth;
    FlightRecorder::Global().RecordSpan(ZoneSpecOf(zone_).span,
                                        span_start_micros_, depth_);
  }
}

}  // namespace tdg::obs
