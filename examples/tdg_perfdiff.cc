// Statistically-gated perf regression detector over tdg.bench_report.v2
// artifacts (the --report_out output of every bench binary).
//
//   tdg_perfdiff --baseline=BENCH_old.json --candidate=BENCH_new.json
//       [--metric=wall] [--threshold=1.10] [--alpha=0.05]
//       [--confidence=0.95] [--resamples=2000] [--gate_case_set]
//       [--json_out=<path>]
//   tdg_perfdiff --self-check=BENCH.json   # schema/structure validation
//
// Pairs cases by key; a case regresses only when the mean metric ratio
// exceeds the threshold AND Welch's one-sided t-test plus a bootstrap CI on
// the ratio both back the slowdown (single-rep reports fall back to the
// ratio alone). --metric selects what is gated: "wall" (default, wall
// micros) or a perf counter event recorded under --profile — e.g.
// --metric=instructions gates on retired instructions, a near-noise-free
// signal that catches work regressions wall-time variance hides. Exit
// codes: 0 = gate passed, 1 = regression (or, with --gate_case_set, a case
// appeared/vanished), 2 = usage or input error.

#include <cstdio>
#include <string>

#include "obs/obs.h"
#include "util/file_util.h"
#include "util/flags.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  tdg_perfdiff --baseline=<report.json> --candidate=<report.json>\n"
      "      [--metric=wall|instructions|cycles|...] [--threshold=1.10]\n"
      "      [--alpha=0.05] [--confidence=0.95] [--resamples=2000]\n"
      "      [--gate_case_set] [--json_out=<path>]\n"
      "  tdg_perfdiff --self-check=<report.json>\n");
  return 2;
}

int SelfCheck(const std::string& path) {
  auto report = tdg::obs::BenchReport::ReadFile(path);
  if (!report.ok()) {
    std::fprintf(stderr, "tdg_perfdiff: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  auto valid = report->Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "tdg_perfdiff: %s: %s\n", path.c_str(),
                 valid.ToString().c_str());
    return 2;
  }
  size_t reps = 0;
  for (const tdg::obs::BenchCase& bench_case : report->cases) {
    reps += bench_case.wall_micros.size();
  }
  std::printf("%s: ok (%s, bench \"%s\", %zu cases, %zu repetitions, git "
              "%s)\n",
              path.c_str(), report->schema.c_str(),
              report->bench_name.c_str(), report->cases.size(), reps,
              report->manifest.git_sha.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using enum tdg::util::FlagKind;
  tdg::util::FlagParser flags;
  auto parsed = flags.Parse(
      argc, argv,
      {{"self-check", kString}, {"baseline", kString}, {"candidate", kString},
       {"metric", kString}, {"threshold", kDouble}, {"alpha", kDouble},
       {"confidence", kDouble}, {"resamples", kInt}, {"gate_case_set", kBool},
       {"json_out", kString}});
  if (!parsed.ok()) {
    std::fprintf(stderr, "tdg_perfdiff: %s\n", parsed.ToString().c_str());
    return Usage();
  }

  const std::string self_check = flags.GetString("self-check", "");
  if (!self_check.empty()) return SelfCheck(self_check);

  const std::string baseline_path = flags.GetString("baseline", "");
  const std::string candidate_path = flags.GetString("candidate", "");
  if (baseline_path.empty() || candidate_path.empty()) return Usage();

  auto baseline = tdg::obs::BenchReport::ReadFile(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "tdg_perfdiff: baseline: %s\n",
                 baseline.status().ToString().c_str());
    return 2;
  }
  auto candidate = tdg::obs::BenchReport::ReadFile(candidate_path);
  if (!candidate.ok()) {
    std::fprintf(stderr, "tdg_perfdiff: candidate: %s\n",
                 candidate.status().ToString().c_str());
    return 2;
  }

  tdg::obs::PerfGateOptions options;
  options.metric = flags.GetString("metric", "wall");
  options.threshold_ratio = flags.GetDouble("threshold", 1.10);
  options.alpha = flags.GetDouble("alpha", 0.05);
  options.confidence = flags.GetDouble("confidence", 0.95);
  options.bootstrap_resamples =
      static_cast<int>(flags.GetInt("resamples", 2000));
  options.gate_case_set = flags.GetBool("gate_case_set", false);

  auto diff = tdg::obs::DiffBenchReports(baseline.value(), candidate.value(),
                                         options);
  if (!diff.ok()) {
    std::fprintf(stderr, "tdg_perfdiff: %s\n",
                 diff.status().ToString().c_str());
    return 2;
  }

  std::printf("baseline:  %s (%s, git %s)\n", baseline_path.c_str(),
              baseline->bench_name.c_str(),
              baseline->manifest.git_sha.c_str());
  std::printf("candidate: %s (%s, git %s)\n", candidate_path.c_str(),
              candidate->bench_name.c_str(),
              candidate->manifest.git_sha.c_str());
  std::printf("%s", diff->ToTable().c_str());
  std::printf(
      "%d regression(s), %d improvement(s), %d unchanged, %d new, %d "
      "missing -> %s\n",
      diff->CountVerdict(tdg::obs::PerfVerdict::kRegression),
      diff->CountVerdict(tdg::obs::PerfVerdict::kImprovement),
      diff->CountVerdict(tdg::obs::PerfVerdict::kUnchanged),
      diff->CountVerdict(tdg::obs::PerfVerdict::kNewCase),
      diff->CountVerdict(tdg::obs::PerfVerdict::kMissingCase),
      diff->Failed() ? "FAIL" : "PASS");

  const std::string json_out = flags.GetString("json_out", "");
  if (!json_out.empty()) {
    auto status = tdg::util::WriteStringToFile(
        json_out, diff->ToJson().SerializePretty() + "\n");
    if (!status.ok()) {
      std::fprintf(stderr, "tdg_perfdiff: %s\n", status.ToString().c_str());
      return 2;
    }
    std::printf("wrote %s\n", json_out.c_str());
  }
  return diff->Failed() ? 1 : 0;
}
