#ifndef TDG_OBS_TAIL_SAMPLER_H_
#define TDG_OBS_TAIL_SAMPLER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "obs/request_context.h"

namespace tdg::obs {

/// Keeps the slow requests (DESIGN.md §14): the serving plane's only
/// in-memory request store. Every finished request is offered; those whose
/// end-to-end latency is at or above the threshold go into one bounded
/// ring, served as JSONL at /slowz with the per-phase breakdown. A fast
/// request never enters the ring, so it never evicts a slow one.
///
/// Memory is bounded by kCapacity times sizeof(RequestContext) (~120 B +
/// endpoint label), a few tens of KiB regardless of traffic or uptime.
/// Thread-safe; Offer takes one mutex for a couple of deque ops, and only
/// for a slow request.
class TailSampler {
 public:
  /// The ring keeps the newest kCapacity slow requests.
  static constexpr int kCapacity = 256;
  static constexpr int64_t kDefaultSlowMicros = 100 * 1000;

  /// `slow_threshold_micros` <= 0 keeps every request (--slow_micros=0).
  explicit TailSampler(int64_t slow_threshold_micros = kDefaultSlowMicros);

  /// Files one finished request (call after FinishRequest populated
  /// status/total).
  void Offer(const RequestContext& context);

  /// One JSON object per line, newest first: trace_id, endpoint, status,
  /// start_unix_ms, total_micros, and one `<phase>_micros` field per timed
  /// phase.
  std::string SlowTracesJsonl() const;

 private:
  const int64_t slow_threshold_micros_;
  mutable std::mutex mutex_;
  std::deque<RequestContext> slow_;  // newest at back
};

}  // namespace tdg::obs

#endif  // TDG_OBS_TAIL_SAMPLER_H_
