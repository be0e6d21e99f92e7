// Shared helpers for the per-figure bench binaries. Each binary reproduces
// one table/figure of the paper (see DESIGN.md §2) and prints its series as
// an aligned table; Harness reads the command line (--csv, --report_out for
// the tdg.bench_report.v2 artifact `tdg_perfdiff` gates on, --profile).
#ifndef TDG_BENCH_BENCH_COMMON_H_
#define TDG_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "core/dygroups.h"
#include "core/process.h"
#include "io/series_io.h"
#include "obs/obs.h"
#include "random/distributions.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace tdg::bench {

/// Paper §V-B2 default parameters: k=5, n=10000, r=0.5, α=5, star mode,
/// log-normal initial skills, randomized runs averaged 10 times (we default
/// to 5 for bench wall-time; the shape is insensitive to this).
struct SweepConfig {
  int n = 10000;
  int k = 5;
  int alpha = 5;
  double r = 0.5;
  InteractionMode mode = InteractionMode::kStar;
  random::SkillDistribution distribution =
      random::SkillDistribution::kLogNormal;
  int runs = 5;
  uint64_t seed = 42;
};

/// Mean aggregated learning gain of `policy_name` over `config.runs`
/// freshly drawn populations. Aborts on configuration errors (benches are
/// fixed-parameter binaries; a failure is a bug, not an input problem).
inline double MeanTotalGain(const std::string& policy_name,
                            const SweepConfig& config) {
  double total = 0.0;
  for (int run = 0; run < config.runs; ++run) {
    random::Rng rng(config.seed + static_cast<uint64_t>(run) * 7919);
    SkillVector skills =
        random::GenerateSkills(rng, config.distribution, config.n);
    for (double& s : skills) s += 1e-9;  // guard exact zeros (uniform)

    auto policy = baselines::MakePolicy(
        policy_name, config.seed + static_cast<uint64_t>(run));
    TDG_CHECK(policy.ok()) << policy.status();
    LinearGain gain(config.r);
    ProcessConfig process;
    process.num_groups = config.k;
    process.num_rounds = config.alpha;
    process.mode = config.mode;
    process.record_history = false;
    auto result = RunProcess(skills, process, gain, **policy);
    TDG_CHECK(result.ok()) << result.status();
    total += result->total_gain;
  }
  return total / static_cast<double>(config.runs);
}

/// Prints the standard bench banner.
inline void PrintHeader(const std::string& title,
                        const std::string& paper_ref) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s\n\n", paper_ref.c_str());
}

/// Builds an ExperimentSeries sweeping one policy set over `x_values`,
/// where `evaluate(policy_name, x)` returns the y value. Every evaluation
/// is also recorded into the process-wide obs::BenchReporter as one
/// repetition of case "<policy>/<x_label>=<x>" (wall micros, y as the
/// objective, and the deltas of every obs counter it bumped), so that
/// Harness::Finish can write the --report_out artifact.
template <typename Evaluate>
io::ExperimentSeries SweepSeries(const std::string& x_label,
                                 const std::vector<double>& x_values,
                                 const std::vector<std::string>& policies,
                                 Evaluate&& evaluate) {
  io::ExperimentSeries series;
  series.x_label = x_label;
  series.x_values = x_values;
  series.series_names = policies;
  series.values.resize(policies.size());
  for (size_t p = 0; p < policies.size(); ++p) {
    series.values[p].reserve(x_values.size());
    for (double x : x_values) {
      double y;
      {
        obs::ScopedBenchRep rep(
            obs::GlobalBenchReporter(),
            policies[p] + "/" + x_label + "=" + util::FormatDouble(x, 6));
        y = evaluate(policies[p], x);
        rep.set_objective(y);
      }
      series.values[p].push_back(y);
    }
  }
  return series;
}

/// The bench command line, parsed once: --csv=<path> (the printed series
/// as CSV), --report_out=<path> (a JSON report of every recorded case),
/// --profile (per-rep perf counters in it, as TDG_PROFILE=1), and the
/// binary's `own` flags. Any other flag, or a malformed value, exits 2
/// before any work.
class Harness {
 public:
  Harness(int argc, char** argv, util::FlagSpec own = {}) {
    using enum util::FlagKind;
    own.insert({{"csv", kString}, {"report_out", kString}, {"profile", kBool}});
    const util::Status parsed = flags_.Parse(argc, argv, own);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[0], parsed.ToString().c_str());
      std::exit(2);
    }
    csv_path_ = flags_.GetString("csv", "");
    if (flags_.GetBool("profile", false)) obs::SetProfilingEnabled(true);
    obs::BenchReporter& reporter = obs::GlobalBenchReporter();
    reporter.set_bench_name(std::filesystem::path(argv[0]).filename());
    reporter.set_output_path(flags_.GetString("report_out", ""));
    reporter.set_args({argv + 1, argv + argc});
  }

  const util::FlagParser& flags() const { return flags_; }

  /// Prints `series` and, under --csv, writes it: to the exact path, or,
  /// for one `panel` of several, to the path with "_<panel>" inserted
  /// before the extension.
  void EmitSeries(const io::ExperimentSeries& series,
                  const std::string& panel = "", int digits = 4) {
    std::printf("%s\n", series.ToTable(digits).c_str());
    if (csv_path_.empty()) return;
    std::filesystem::path path = csv_path_;
    if (!panel.empty()) {
      path.replace_filename(path.stem().string() + "_" + panel +
                            path.extension().string());
    }
    wrote_csv_ = true;
    Report(series.WriteCsv(path.string()), path.string(), "csv");
  }

  /// Writes the --report_out artifact. Returns main's exit code: 1 when an
  /// output could not be written or --csv was given to a bench that prints
  /// no series, else 0.
  int Finish() {
    if (!csv_path_.empty() && !wrote_csv_) {
      std::fprintf(stderr, "--csv: this bench prints no series\n");
      failed_ = true;
    }
    const obs::BenchReporter& reporter = obs::GlobalBenchReporter();
    if (reporter.enabled()) {
      Report(reporter.Build().WriteFile(reporter.output_path()),
             reporter.output_path(), "report");
    }
    return failed_ ? 1 : 0;
  }

 private:
  void Report(const util::Status& status, const std::string& path,
              const char* what) {
    if (status.ok()) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::printf("%s write failed: %s\n", what, status.ToString().c_str());
      failed_ = true;
    }
  }

  util::FlagParser flags_;
  std::string csv_path_;
  bool wrote_csv_ = false;
  bool failed_ = false;
};

}  // namespace tdg::bench

#endif  // TDG_BENCH_BENCH_COMMON_H_
