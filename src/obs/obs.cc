#include "obs/obs.h"

#include <sys/resource.h>

#include "util/file_util.h"
#include "util/stopwatch.h"

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
