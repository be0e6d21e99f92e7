// tdg command-line driver — the "downstream user" front end over the whole
// library. Subcommands:
//
//   example_tdg_cli policies
//       List the registered grouping policies.
//
//   example_tdg_cli run [--policy=DyGroups-Star] [--n=10000] [--k=5]
//                       [--alpha=5] [--r=0.5] [--mode=star]
//                       [--distribution=log-normal] [--seed=42]
//       Run one α-round process and print per-round gains.
//
//   example_tdg_cli sweep --config=<file> [--csv=<out.csv>]
//                         [--json=<out.json>]
//                         [--checkpoint=<file>] [--resume]
//                         [--shard_index=<i> --shard_count=<s>]
//                         [--progress]
//       Run a declarative sweep (see config-template) and print the grid.
//       Every sweep runs the one cell loop, exp::RunSweepShard; without
//       --checkpoint nothing is written but the outputs. With
//       --checkpoint, execution is crash-safe: every completed cell
//       is appended (fsync'd) to the tdg.sweep_checkpoint.v1 JSONL file,
//       and --resume replays it, re-running only the missing tail.
//       --shard_index/--shard_count run one deterministic slice of the
//       grid; merge the N shard checkpoints back into the monolithic
//       CSV/JSON with `tdg_sweepmerge` (byte-identical to an
//       uninterrupted single-process run). --resume and --shard_count > 1
//       without --checkpoint are errors. `tdg_sweepmerge --watch` reads
//       the checkpoints of running shards to show their progress.
//       --progress prints a throttled `\r`-updated line to stderr
//       ("sweep NAME: D/O cells (P%) | R cells/s | eta E"); a cell counts
//       once its checkpoint record is durable.
//
//   example_tdg_cli config-template
//       Print a commented sweep config to adapt.
//
//   example_tdg_cli exact [--n=8] [--k=2] [--alpha=3] [--r=0.5]
//                         [--mode=star] [--seed=1] [--solver_threads=1]
//       Solve a small TDG instance exactly (branch & bound) and compare
//       with DyGroups. --solver_threads > 1 runs the parallel search
//       (bitwise-identical optimum, see DESIGN.md).
//
//   example_tdg_cli human-sim [--experiment=1|2] [--seed=42]
//       Run a simulated AMT deployment (see amt_crowdsourcing example).
//
// Observability flags (valid with every command):
//
//   --metrics_out=<file>   Write a JSON snapshot of the tdg::obs metrics
//                          registry (counters / gauges / histograms with
//                          p50/p95/p99) at the end of the run.
//   --print_metrics        Print the end-of-run metrics table to stdout
//                          (implied by --metrics_out).
//   --manifest_out=<file>  Write the run's provenance manifest
//                          (tdg.run_manifest.v1: git sha, compiler, host,
//                          seed, args) as JSON.
//   --no_metrics           Disable the tdg::obs metrics registry at
//                          runtime. Sweep outputs then report
//                          mean_micros=0, making CSV/JSON byte-comparable
//                          across runs (used by ci/check.sh crash-resume).
//   --profile              Enable kernel-level profiling (equivalent to
//                          TDG_PROFILE=1): hardware perf counters (or the
//                          rusage fallback — see DESIGN.md §10) are read
//                          around every instrumented kernel and attributed
//                          per domain as perf/<domain>/<event> counters in
//                          --metrics_out and /metrics. Pure observation:
//                          sweep outputs stay byte-identical.
//
// Live monitoring flags (valid with every command; see DESIGN.md §9):
//
//   --stats_port=<port>    Serve /metrics (Prometheus text exposition),
//                          /statusz, /healthz and /blackboxz over HTTP on
//                          127.0.0.1:<port> for the duration of the run.
//                          A sweep's progress is on /metrics:
//                          sweep/cells_completed of sweep/cells_owned.
//                          Port 0 binds an ephemeral port. Off by default;
//                          pure observation — outputs are byte-identical
//                          with and without the server.
//   --stats_port_file=<f>  Write the bound port (atomic replace) so
//                          scripts can discover an ephemeral --stats_port=0.
//
// Flight recorder (valid with every command; see DESIGN.md §12):
//
//   --blackbox=<file>      Record the always-on flight recorder into <file>
//                          (tdg.blackbox.v1): per-thread ring buffers of
//                          semantic events — round objectives, group churn,
//                          per-group gain summaries, policy decisions,
//                          sweep cell boundaries, solver incumbents — and
//                          timed spans (process/run, sweep/cell, ...). The
//                          dump is a shared file mapping, so it survives
//                          kill -9; decode with `tdg_blackbox` (summary,
//                          --jsonl, or --trace=<out> for a Chrome trace), or
//                          tail it live at /blackboxz when --stats_port is
//                          up. Bare --blackbox (sweep with --checkpoint)
//                          defaults to <checkpoint>.blackbox.
//
// An unknown flag (a typo, or a removed one such as --trace_out), or a
// value of the wrong kind (--n=abc, --progress=ture), is an error before
// any work starts.

#include <cstdio>

#include "baselines/registry.h"
#include "core/branch_bound.h"
#include "core/dygroups.h"
#include "core/process.h"
#include "exp/sweep.h"
#include "exp/sweep_shard.h"
#include "obs/obs.h"
#include "random/distributions.h"
#include "sim/amt_experiment.h"
#include "util/file_util.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

int Fail(const tdg::util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdPolicies() {
  std::printf("registered grouping policies:\n");
  for (const std::string& name : tdg::baselines::AllPolicyNames()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

int CmdRun(const tdg::util::FlagParser& flags) {
  std::string policy_name = flags.GetString("policy", "DyGroups-Star");
  int n = static_cast<int>(flags.GetInt("n", 10000));
  int k = static_cast<int>(flags.GetInt("k", 5));
  int alpha = static_cast<int>(flags.GetInt("alpha", 5));
  double r = flags.GetDouble("r", 0.5);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  auto mode = tdg::ParseInteractionMode(flags.GetString("mode", "star"));
  if (!mode.ok()) return Fail(mode.status());
  auto distribution = tdg::random::ParseSkillDistribution(
      flags.GetString("distribution", "log-normal"));
  if (!distribution.ok()) return Fail(distribution.status());
  auto policy = tdg::baselines::MakePolicy(policy_name, seed);
  if (!policy.ok()) return Fail(policy.status());
  auto gain = tdg::LinearGain::Create(r);
  if (!gain.ok()) return Fail(gain.status());

  tdg::random::Rng rng(seed);
  tdg::SkillVector skills =
      tdg::random::GenerateSkills(rng, distribution.value(), n);
  for (double& s : skills) s += 1e-9;

  tdg::ProcessConfig config;
  config.num_groups = k;
  config.num_rounds = alpha;
  config.mode = mode.value();
  config.record_history = false;
  tdg::util::Stopwatch stopwatch;
  auto result = tdg::RunProcess(skills, config, gain.value(), **policy);
  if (!result.ok()) return Fail(result.status());

  std::printf("%s on n=%d, k=%d, alpha=%d, r=%g, %s mode, %s skills\n",
              policy_name.c_str(), n, k, alpha, r,
              std::string(tdg::InteractionModeName(mode.value())).c_str(),
              std::string(
                  tdg::random::SkillDistributionName(distribution.value()))
                  .c_str());
  for (size_t t = 0; t < result->round_gains.size(); ++t) {
    std::printf("  round %2zu gain: %.4f\n", t + 1, result->round_gains[t]);
  }
  std::printf("total gain: %.4f   (%.2f ms)\n", result->total_gain,
              stopwatch.ElapsedMillis());
  return 0;
}

int WriteSweepOutputs(const tdg::exp::SweepResult& result,
                      const tdg::util::FlagParser& flags) {
  std::string csv_path = flags.GetString("csv", "");
  if (!csv_path.empty()) {
    auto status = result.ToCsv().WriteToFile(csv_path);
    if (!status.ok()) return Fail(status);
    std::printf("wrote %s\n", csv_path.c_str());
  }
  std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    auto status = tdg::util::WriteStringToFile(
        json_path, result.ToJson().SerializePretty() + "\n");
    if (!status.ok()) return Fail(status);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

int CmdSweep(const tdg::util::FlagParser& flags) {
  std::string config_path = flags.GetString("config", "");
  tdg::util::StatusOr<tdg::exp::SweepConfig> config =
      config_path.empty()
          ? tdg::util::StatusOr<tdg::exp::SweepConfig>(
                tdg::exp::SweepConfig{})
          : tdg::exp::SweepConfig::FromFile(config_path);
  if (!config.ok()) return Fail(config.status());
  if (config_path.empty()) {
    std::printf("(no --config given; running the default paper grid)\n");
  }

  tdg::exp::SweepShardOptions shard;
  shard.shard_index = static_cast<int>(flags.GetInt("shard_index", 0));
  shard.shard_count = static_cast<int>(flags.GetInt("shard_count", 1));
  shard.checkpoint_path = flags.GetString("checkpoint", "");
  shard.resume = flags.GetBool("resume", false);
  shard.progress = flags.GetBool("progress", false);

  // One cell loop on every path; a sharded or resumed run without a
  // checkpoint is InvalidArgument from the library.
  auto result = tdg::exp::RunSweepShard(config.value(), shard);
  if (!result.ok()) return Fail(result.status());
  const tdg::exp::SweepResult& sweep = result->result;
  if (shard.checkpoint_path.empty()) {
    std::printf("sweep '%s': %zu cells\n", sweep.name.c_str(),
                sweep.cells.size());
  } else {
    std::printf(
        "sweep '%s' shard %d/%d: %zu cells (%d restored from checkpoint, "
        "%d run)%s\n",
        sweep.name.c_str(), shard.shard_index, shard.shard_count,
        sweep.cells.size(), result->cells_restored, result->cells_run,
        result->torn_tail_dropped ? " [torn final record re-run]" : "");
  }
  if (shard.shard_count > 1) {
    std::printf(
        "merge the shard checkpoints into CSV/JSON with: tdg_sweepmerge "
        "<checkpoints...>\n");
    return 0;
  }
  std::printf("\n%s", sweep.ToTable().c_str());
  return WriteSweepOutputs(sweep, flags);
}

int CmdConfigTemplate() {
  tdg::exp::SweepConfig config;
  config.name = "my-sweep";
  std::printf("# tdg sweep configuration (pass via: sweep --config=FILE)\n");
  std::printf("# lists are comma-separated; every (n, k) must divide\n");
  std::printf("%s", config.ToText().c_str());
  return 0;
}

int CmdExact(const tdg::util::FlagParser& flags) {
  int n = static_cast<int>(flags.GetInt("n", 8));
  int k = static_cast<int>(flags.GetInt("k", 2));
  int alpha = static_cast<int>(flags.GetInt("alpha", 3));
  double r = flags.GetDouble("r", 0.5);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  int solver_threads =
      static_cast<int>(flags.GetInt("solver_threads", 1));
  auto mode = tdg::ParseInteractionMode(flags.GetString("mode", "star"));
  if (!mode.ok()) return Fail(mode.status());

  tdg::random::Rng rng(seed);
  tdg::SkillVector skills = tdg::random::GenerateSkills(
      rng, tdg::random::SkillDistribution::kUniform, n);
  for (double& s : skills) s += 1e-9;
  auto gain = tdg::LinearGain::Create(r);
  if (!gain.ok()) return Fail(gain.status());

  tdg::BranchBoundOptions solver_options;
  solver_options.num_threads = solver_threads;
  auto exact = tdg::SolveTdgBranchBound(skills, k, alpha, mode.value(),
                                        gain.value(), solver_options);
  if (!exact.ok()) return Fail(exact.status());

  auto policy = tdg::MakeDyGroupsPolicy(mode.value());
  tdg::ProcessConfig config;
  config.num_groups = k;
  config.num_rounds = alpha;
  config.mode = mode.value();
  auto greedy = tdg::RunProcess(skills, config, gain.value(), *policy);
  if (!greedy.ok()) return Fail(greedy.status());

  std::printf(
      "exact optimum : %.6f (%lld nodes, %lld pruned, %d thread%s, "
      "%lld subtree tasks)\n",
      exact->best_total_gain, exact->nodes_explored, exact->nodes_pruned,
      exact->threads_used, exact->threads_used == 1 ? "" : "s",
      exact->subtree_tasks);
  std::printf("DyGroups      : %.6f (%s)\n", greedy->total_gain,
              greedy->total_gain >= exact->best_total_gain - 1e-9
                  ? "optimal"
                  : "suboptimal");
  std::printf("optimal round-1 grouping: %s\n",
              exact->best_sequence.empty()
                  ? "(none)"
                  : exact->best_sequence.front().ToString().c_str());
  return 0;
}

int CmdHumanSim(const tdg::util::FlagParser& flags) {
  int experiment = static_cast<int>(flags.GetInt("experiment", 1));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  tdg::sim::ExperimentConfig config =
      (experiment == 2) ? tdg::sim::Experiment2Config(seed)
                        : tdg::sim::Experiment1Config(seed);
  auto result = tdg::sim::RunExperiment(config);
  if (!result.ok()) return Fail(result.status());

  tdg::util::TablePrinter table(
      {"population", "pre-test mean", "total gain", "final retention"});
  for (const auto& population : result->populations) {
    double retention = population.rounds.empty()
                           ? 1.0
                           : population.rounds.back().retention_fraction;
    table.AddRow({population.policy_name,
                  tdg::util::FormatDouble(population.pre_qualification_mean,
                                          3),
                  tdg::util::FormatDouble(population.total_observed_gain, 3),
                  tdg::util::FormatDouble(retention, 3)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

void PrintUsage() {
  std::printf(
      "usage: example_tdg_cli <command> [flags]\n"
      "commands: policies | run | sweep | config-template | exact | "
      "human-sim\n"
      "observability (any command): --metrics_out=<file> --print_metrics "
      "--manifest_out=<file> --no_metrics --profile\n"
      "live monitoring (any command): --stats_port=<port|0> "
      "--stats_port_file=<file>\n"
      "flight recorder (any command): --blackbox=<file> (or bare "
      "--blackbox next to a sweep --checkpoint); decode with "
      "tdg_blackbox\n"
      "crash-safe sweeps: sweep --checkpoint=<file> [--resume] "
      "[--shard_index=I --shard_count=S] [--progress]; merge with "
      "tdg_sweepmerge\n"
      "see the header comment of examples/tdg_cli.cc for per-command "
      "flags\n");
}

int Dispatch(const std::string& command, const tdg::util::FlagParser& flags) {
  if (command == "policies") return CmdPolicies();
  if (command == "run") return CmdRun(flags);
  if (command == "sweep") return CmdSweep(flags);
  if (command == "config-template") return CmdConfigTemplate();
  if (command == "exact") return CmdExact(flags);
  if (command == "human-sim") return CmdHumanSim(flags);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  PrintUsage();
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using enum tdg::util::FlagKind;
  tdg::util::FlagParser flags;
  auto parse_status = flags.Parse(
      argc, argv,
      {// commands
       {"policy", kString}, {"n", kInt}, {"k", kInt}, {"alpha", kInt},
       {"r", kDouble}, {"mode", kString}, {"distribution", kString},
       {"seed", kInt}, {"config", kString}, {"csv", kString},
       {"json", kString}, {"checkpoint", kString}, {"resume", kBool},
       {"shard_index", kInt}, {"shard_count", kInt}, {"progress", kBool},
       {"solver_threads", kInt}, {"experiment", kInt},
       // observability, live monitoring, flight recorder
       {"metrics_out", kString}, {"print_metrics", kBool},
       {"manifest_out", kString}, {"no_metrics", kBool}, {"profile", kBool},
       {"stats_port", kInt}, {"stats_port_file", kString},
       {"blackbox", kString}});
  if (!parse_status.ok()) return Fail(parse_status);
  if (flags.positional().empty()) {
    PrintUsage();
    return 1;
  }
  const std::string metrics_out = flags.GetString("metrics_out", "");
  const std::string manifest_out = flags.GetString("manifest_out", "");
  const bool print_metrics =
      flags.GetBool("print_metrics", false) || !metrics_out.empty();
  if (flags.GetBool("no_metrics", false)) {
    tdg::obs::SetMetricsEnabled(false);
  }
  if (flags.GetBool("profile", false)) {
    tdg::obs::SetProfilingEnabled(true);
  }
  // Flight recorder (black box, DESIGN.md §12). Bare --blackbox puts the
  // dump next to the sweep checkpoint; --blackbox=<file> works with every
  // command. Recording survives kill -9: the dump is a shared file
  // mapping, decoded post-mortem with tdg_blackbox.
  std::string blackbox = flags.GetString("blackbox", "");
  if (!blackbox.empty()) {
    if (blackbox == "true") {  // bare --blackbox
      const std::string checkpoint = flags.GetString("checkpoint", "");
      if (checkpoint.empty()) {
        return Fail(tdg::util::Status::InvalidArgument(
            "--blackbox without a path requires --checkpoint (the dump "
            "lives next to it as <checkpoint>.blackbox); otherwise pass "
            "--blackbox=<file>"));
      }
      blackbox = checkpoint + ".blackbox";
    }
    tdg::obs::FlightRecorder::Options recorder_options;
    recorder_options.path = blackbox;
    auto status =
        tdg::obs::FlightRecorder::Global().Start(recorder_options);
    if (!status.ok()) return Fail(status);
  }

  // Live monitoring plane. All of it observes only — outputs are
  // byte-identical with and without these flags.
  tdg::obs::InstallBuildInfoMetrics();
  const int stats_port = static_cast<int>(flags.GetInt("stats_port", -1));
  std::unique_ptr<tdg::util::net::HttpServer> stats_server;
  if (stats_port >= 0) {
    tdg::obs::StatsServerOptions server_options;
    server_options.port = stats_port;
    server_options.port_file = flags.GetString("stats_port_file", "");
    server_options.manifest = tdg::obs::RunManifest::Capture(
        static_cast<uint64_t>(flags.GetInt("seed", 42)), argc, argv);
    server_options.blackbox_path = blackbox;  // "" → global recorder path
    auto server = tdg::obs::StartStatsServer(std::move(server_options));
    if (!server.ok()) return Fail(server.status());
    stats_server = std::move(server).value();
    std::fprintf(stderr,
                 "stats server listening on http://127.0.0.1:%d "
                 "(/healthz /metrics /statusz /blackboxz)\n",
                 stats_server->port());
  }

  int exit_code = Dispatch(flags.positional().front(), flags);

  if (stats_server != nullptr) stats_server->Stop();

  if (!blackbox.empty()) {
    tdg::obs::FlightRecorder::Global().Stop();
    std::printf("wrote flight recorder black box to %s (decode with "
                "tdg_blackbox)\n",
                blackbox.c_str());
  }

  if (!manifest_out.empty()) {
    const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    tdg::obs::RunManifest manifest =
        tdg::obs::RunManifest::Capture(seed, argc, argv);
    auto status = tdg::util::WriteStringToFile(
        manifest_out, manifest.ToJson().SerializePretty() + "\n");
    if (!status.ok()) return Fail(status);
    std::printf("wrote manifest to %s\n", manifest_out.c_str());
  }
  if (print_metrics) {
    std::printf("\n== tdg::obs metrics ==\n%s",
                tdg::obs::MetricsRegistry::Global().Snapshot().ToTable().c_str());
  }
  if (!metrics_out.empty()) {
    auto status = tdg::obs::WriteMetricsJsonFile(metrics_out);
    if (!status.ok()) return Fail(status);
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  return exit_code;
}
