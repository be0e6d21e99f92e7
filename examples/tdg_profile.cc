// tdg_profile — per-kernel attribution viewer over tdg.bench_report.v2
// artifacts recorded under --profile (see DESIGN.md §10).
//
//   tdg_profile --report=BENCH.json [--case=<substr>] [--digits=2]
//       [--check]
//
// Reads the "perf/<domain>/<event>" counters that the profiling plane
// attributes to every instrumented kernel (self time: a domain never
// includes its nested callees) plus the per-repetition "perf/total/<event>"
// series that ScopedBenchRep records around each repetition, and renders a
// table: per-domain cycle share (task-clock share under the rusage
// fallback), IPC, cache-miss rate, branch misses per kilo-instruction and
// task-clock time. The "(unattributed)" row is the remainder of the totals
// not covered by any instrumented kernel (setup, allocation, harness).
//
//   --case=<substr>  Restrict the aggregation to cases whose key contains
//                    the substring (default: all cases).
//   --check          Exit 1 unless the attributed share of the basis event
//                    is <= ~100% (self-time accounting sanity gate; used by
//                    ci/check.sh profile). Requires recorded totals.
//
// Exit codes: 0 = ok, 1 = --check failed, 2 = usage or input error.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

struct DomainStats {
  double calls = 0;
  std::map<std::string, double> events;  // event name -> summed delta
};

// Splits "perf/<domain>/<event>" (domain may itself contain slashes) into
// its domain and trailing event segment. Returns false for anything else.
bool SplitPerfCounter(const std::string& name, std::string* domain,
                      std::string* event) {
  constexpr size_t kPrefixLen = 5;  // "perf/"
  if (name.rfind("perf/", 0) != 0) return false;
  size_t split = name.rfind('/');
  if (split <= kPrefixLen || split + 1 >= name.size()) return false;
  *domain = name.substr(kPrefixLen, split - kPrefixLen);
  *event = name.substr(split + 1);
  return true;
}

std::string FormatOr(double value, int digits, bool available) {
  return available ? tdg::util::FormatDouble(value, digits) : "-";
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tdg_profile --report=<report.json> [--case=<substr>]\n"
               "      [--digits=2] [--check]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using enum tdg::util::FlagKind;
  tdg::util::FlagParser flags;
  auto parsed = flags.Parse(
      argc, argv,
      {{"report", kString}, {"case", kString}, {"digits", kInt},
       {"check", kBool}});
  if (!parsed.ok()) {
    std::fprintf(stderr, "tdg_profile: %s\n", parsed.ToString().c_str());
    return Usage();
  }
  const std::string report_path = flags.GetString("report", "");
  if (report_path.empty()) return Usage();
  const std::string case_filter = flags.GetString("case", "");
  const int digits = static_cast<int>(flags.GetInt("digits", 2));
  const bool check = flags.GetBool("check", false);

  auto report = tdg::obs::BenchReport::ReadFile(report_path);
  if (!report.ok()) {
    std::fprintf(stderr, "tdg_profile: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  auto valid = report->Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "tdg_profile: %s: %s\n", report_path.c_str(),
                 valid.ToString().c_str());
    return 2;
  }

  // Aggregate the per-domain counters and the per-rep totals over every
  // matching case. std::map keeps the rendering deterministic.
  std::map<std::string, DomainStats> domains;
  std::map<std::string, double> totals;
  size_t matched = 0;
  for (const tdg::obs::BenchCase& bench_case : report->cases) {
    if (!case_filter.empty() &&
        bench_case.key.find(case_filter) == std::string::npos) {
      continue;
    }
    ++matched;
    for (const auto& [name, value] : bench_case.counters) {
      std::string domain, event;
      if (!SplitPerfCounter(name, &domain, &event)) continue;
      if (domain == "total") continue;
      DomainStats& stats = domains[domain];
      if (event == "calls") {
        stats.calls += value;
      } else {
        stats.events[event] += value;
      }
    }
    for (const auto& [series, samples] : bench_case.counter_series) {
      std::string domain, event;
      if (!SplitPerfCounter(series, &domain, &event)) continue;
      if (domain != "total") continue;
      for (double v : samples) totals[event] += v;
    }
  }
  if (matched == 0) {
    std::fprintf(stderr, "tdg_profile: no case matches --case=%s (of %zu)\n",
                 case_filter.c_str(), report->cases.size());
    return 2;
  }
  if (report->perf_backend.empty() || (domains.empty() && totals.empty())) {
    std::fprintf(stderr,
                 "tdg_profile: %s carries no profiling data; re-run the "
                 "bench with --profile (or TDG_PROFILE=1)\n",
                 report_path.c_str());
    return 2;
  }

  // Attribution basis: real cycles under the perf_event backend, thread CPU
  // time under the rusage fallback (where hardware events are unavailable).
  const bool hardware = report->perf_backend == "perf_event";
  const std::string basis = hardware ? "cycles" : "task_clock_ns";
  const double total_basis =
      totals.count(basis) != 0 ? totals.at(basis) : 0.0;

  std::printf("report: %s (bench \"%s\", %zu/%zu cases, backend %s)\n",
              report_path.c_str(), report->bench_name.c_str(), matched,
              report->cases.size(), report->perf_backend.c_str());
  std::printf("attribution basis: %s (self time per domain)\n\n",
              hardware ? "cycles" : "task-clock");

  tdg::util::TablePrinter table({"domain", "calls",
                                 hardware ? "cycles%" : "clock%", "IPC",
                                 "cache-miss%", "br-miss/kI",
                                 "task-clock ms"});
  double attributed_basis = 0.0;
  double attributed_clock_ns = 0.0;
  for (const auto& [name, stats] : domains) {
    auto event_or = [&stats = stats](const char* event) {
      auto it = stats.events.find(event);
      return it != stats.events.end() ? it->second : 0.0;
    };
    const double cycles = event_or("cycles");
    const double instructions = event_or("instructions");
    const double cache_refs = event_or("cache_references");
    const double cache_misses = event_or("cache_misses");
    const double branch_misses = event_or("branch_misses");
    const double clock_ns = event_or("task_clock_ns");
    const double domain_basis = hardware ? cycles : clock_ns;
    attributed_basis += domain_basis;
    attributed_clock_ns += clock_ns;
    table.AddRow(
        {name, std::to_string(static_cast<long long>(stats.calls)),
         FormatOr(total_basis > 0 ? 100.0 * domain_basis / total_basis : 0.0,
                  digits, total_basis > 0),
         FormatOr(cycles > 0 ? instructions / cycles : 0.0, digits,
                  hardware && cycles > 0),
         FormatOr(cache_refs > 0 ? 100.0 * cache_misses / cache_refs : 0.0,
                  digits, hardware && cache_refs > 0),
         FormatOr(
             instructions > 0 ? 1000.0 * branch_misses / instructions : 0.0,
             digits, hardware && instructions > 0),
         FormatOr(clock_ns / 1e6, digits, clock_ns > 0)});
  }
  if (total_basis > 0) {
    const double unattributed = total_basis - attributed_basis;
    const double total_clock_ns =
        totals.count("task_clock_ns") != 0 ? totals.at("task_clock_ns") : 0.0;
    const double unattributed_clock_ns = total_clock_ns - attributed_clock_ns;
    table.AddRow({"(unattributed)", "-",
                  tdg::util::FormatDouble(100.0 * unattributed / total_basis,
                                          digits),
                  "-", "-", "-",
                  FormatOr(unattributed_clock_ns / 1e6, digits,
                           total_clock_ns > 0)});
  }
  std::printf("%s", table.ToString().c_str());

  if (check) {
    if (total_basis <= 0) {
      std::fprintf(stderr,
                   "tdg_profile --check: no 'perf/total/%s' series in the "
                   "report (profiling was off)\n",
                   basis.c_str());
      return 1;
    }
    const double share = 100.0 * attributed_basis / total_basis;
    // Self-time accounting means kernels can never claim more than the
    // whole; allow a hair of slack for counter-read ordering.
    if (share > 100.1) {
      std::fprintf(stderr,
                   "tdg_profile --check FAILED: attributed %s share %.2f%% "
                   "exceeds 100%%\n",
                   basis.c_str(), share);
      return 1;
    }
    std::printf("\ncheck ok: kernels account for %.2f%% of %s\n", share,
                basis.c_str());
  }
  return 0;
}
