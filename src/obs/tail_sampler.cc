#include "obs/tail_sampler.h"

#include <vector>

#include "util/json.h"

namespace tdg::obs {
namespace {

util::JsonValue TraceToJson(const RequestContext& trace) {
  util::JsonValue object = util::JsonValue::MakeObject();
  object.Set("trace_id", static_cast<long long>(trace.trace_id));
  object.Set("endpoint", trace.endpoint);
  object.Set("status", static_cast<long long>(trace.status));
  object.Set("start_unix_ms", static_cast<long long>(trace.start_unix_ms));
  object.Set("total_micros", static_cast<long long>(trace.total_micros));
  for (int i = 0; i < kNumRequestPhases; ++i) {
    const RequestPhase phase = static_cast<RequestPhase>(i);
    object.Set(std::string(RequestPhaseName(phase)) + "_micros",
               static_cast<long long>(
                   trace.phase_micros[static_cast<size_t>(i)]));
  }
  return object;
}

}  // namespace

TailSampler::TailSampler(int64_t slow_threshold_micros)
    : slow_threshold_micros_(slow_threshold_micros) {}

void TailSampler::Offer(const RequestContext& context) {
  if (context.total_micros < slow_threshold_micros_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  slow_.push_back(context);
  if (slow_.size() > static_cast<size_t>(kCapacity)) slow_.pop_front();
}

std::string TailSampler::SlowTracesJsonl() const {
  std::vector<RequestContext> traces;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    traces.assign(slow_.begin(), slow_.end());
  }
  std::string out;
  for (auto it = traces.rbegin(); it != traces.rend(); ++it) {
    out += TraceToJson(*it).Serialize();
    out += '\n';
  }
  return out;
}

}  // namespace tdg::obs
