#include "obs/obs.h"

#include <sys/resource.h>

#include "util/file_util.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "util/work_steal_queue.h"

namespace tdg::obs {

int64_t ProcessPeakRssBytes() {
  rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<int64_t>(usage.ru_maxrss);  // already bytes on macOS
#else
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // kilobytes on Linux
#endif
}

void RefreshProcessGauges() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("process/uptime_seconds")
      .Set(static_cast<double>(util::MonotonicMicros()) / 1e6);
  registry.GetGauge("process/peak_rss_bytes")
      .Set(static_cast<double>(ProcessPeakRssBytes()));
}

void InstallThreadPoolInstrumentation() {
  util::ThreadPoolObserver observer;
  observer.on_queue_depth = [](int depth) {
    static Gauge& gauge =
        MetricsRegistry::Global().GetGauge("thread_pool/queue_depth");
    gauge.Set(static_cast<double>(depth));
  };
  observer.on_task_micros = [](int64_t micros) {
    static Histogram& histogram =
        MetricsRegistry::Global().GetHistogram("thread_pool/task_micros");
    histogram.Record(static_cast<double>(micros));
  };
  util::SetThreadPoolObserver(std::move(observer));
}

void InstallWorkStealQueueInstrumentation() {
  util::WorkStealQueueObserver observer;
  observer.on_drained = [](long long pops, long long steals,
                           long long exhausts) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    static Counter& pop_counter =
        registry.GetCounter("work_steal_queue/pops");
    static Counter& steal_counter =
        registry.GetCounter("work_steal_queue/steals");
    static Counter& exhaust_counter =
        registry.GetCounter("work_steal_queue/exhausts");
    static Counter& drained_counter =
        registry.GetCounter("work_steal_queue/queues_drained");
    pop_counter.Add(pops);
    steal_counter.Add(steals);
    exhaust_counter.Add(exhausts);
    drained_counter.Add(1);
  };
  util::SetWorkStealQueueObserver(std::move(observer));
}

void InstallBuildInfoMetrics() {
  const RunManifest manifest = RunManifest::Capture();
  MetricsRegistry::Global().SetBuildInfo({
      {"git_sha", manifest.git_sha},
      {"compiler", manifest.compiler},
      {"build_type", manifest.build_type},
      {"sanitizer", manifest.sanitizer},
      {"os", manifest.os},
  });
}

util::Status WriteMetricsJsonFile(const std::string& path) {
  RefreshProcessGauges();
  return util::WriteStringToFile(
      path,
      MetricsRegistry::Global().Snapshot().ToJson().SerializePretty() + "\n");
}

}  // namespace tdg::obs
