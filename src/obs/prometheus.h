#ifndef TDG_OBS_PROMETHEUS_H_
#define TDG_OBS_PROMETHEUS_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace tdg::obs {

/// Prometheus text exposition (format version 0.0.4) rendered from a
/// MetricsSnapshot — what the stats server serves at /metrics.
///
/// Mapping from the registry's slash-separated names:
///   counter   "sweep/cells_completed"  → tdg_sweep_cells_completed_total
///   gauge     "sweep/cells_owned"      → tdg_sweep_cells_owned (and a
///             companion ..._max gauge for the tracked peak)
///   histogram "sweep/process_micros/…" → tdg_..._bucket{le="…"} cumulative
///             lines over the populated buckets, closed by le="+Inf", plus
///             ..._sum and ..._count
///   build_info labels                  → tdg_build_info{key="value",…} 1
///   windowed  "serve/latency_seconds/advance" → one labeled gauge family
///             per "<family>/<endpoint>" base: tdg_serve_latency_seconds
///             {endpoint="advance",quantile="p99",window="1m"} plus
///             companion ..._qps and ..._error_rate gauges keyed by
///             {endpoint,window}
///
/// Characters outside [a-zA-Z0-9_:] are folded to '_' (two raw names that
/// collide after folding share one metric family; registry names only use
/// [a-z0-9/_ =.-] in practice, where collisions cannot happen).

/// The Content-Type the exposition format mandates.
inline constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

/// Folds a registry metric name into a valid Prometheus metric name with
/// the "tdg_" prefix (no suffix — callers append _total/_bucket/...).
std::string PrometheusMetricName(std::string_view name);

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
std::string PrometheusEscapeLabel(std::string_view value);

/// Renders the whole snapshot, `# TYPE`-annotated, families in
/// deterministic (sorted-by-raw-name) order.
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

}  // namespace tdg::obs

#endif  // TDG_OBS_PROMETHEUS_H_
