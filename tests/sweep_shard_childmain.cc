// Child binary for the crash-injection integration test
// (sweep_crash_test.cc): runs one shard of a sweep against a checkpoint
// file, exactly like `example_tdg_cli sweep --checkpoint=...` but with the
// metrics registry disabled so every output byte is deterministic. The
// parent test sets TDG_TEST_CRASH_AFTER_CELLS to kill this process mid-run
// (the hook lives in exp::RunSweepShard, compiled under TDG_TEST_HOOKS).
//
//   tdg_sweep_shard_child --config=<file> --checkpoint=<file>
//                         [--shard_index=<i>] [--shard_count=<s>]
//                         [--resume] [--threads=<t>]
//                         [--blackbox=<file>] [--progress]
//
// --blackbox starts the global flight recorder on <file> before the shard
// runs, so crash tests can assert the black box is decodable after the
// simulated kill (flight_recorder_test.cc, ci/check.sh blackbox config).
// --progress prints the sweep's stderr progress line, so crash tests can
// compare its last count with the checkpoint's durable records.
//
// Exit codes: 0 shard completed; 1 error; 42 simulated crash (the hook
// calls _Exit before main can return).

#include <cstdio>
#include <string>

#include "exp/sweep_shard.h"
#include "obs/obs.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using enum tdg::util::FlagKind;
  tdg::util::FlagParser flags;
  auto parse_status = flags.Parse(
      argc, argv,
      {{"config", kString}, {"checkpoint", kString}, {"shard_index", kInt},
       {"shard_count", kInt}, {"resume", kBool}, {"threads", kInt},
       {"blackbox", kString}, {"progress", kBool}});
  if (!parse_status.ok()) {
    std::fprintf(stderr, "error: %s\n", parse_status.ToString().c_str());
    return 1;
  }
  tdg::obs::SetMetricsEnabled(false);  // mean_micros must be 0, not timing

  const std::string blackbox = flags.GetString("blackbox", "");
  if (!blackbox.empty()) {
    tdg::obs::FlightRecorder::Options recorder_options;
    recorder_options.path = blackbox;
    auto status =
        tdg::obs::FlightRecorder::Global().Start(recorder_options);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  auto config =
      tdg::exp::SweepConfig::FromFile(flags.GetString("config", ""));
  if (!config.ok()) {
    std::fprintf(stderr, "error: %s\n", config.status().ToString().c_str());
    return 1;
  }
  const long long threads = flags.GetInt("threads", 0);
  if (threads > 0) config->threads = static_cast<int>(threads);

  tdg::exp::SweepShardOptions options;
  options.shard_index = static_cast<int>(flags.GetInt("shard_index", 0));
  options.shard_count = static_cast<int>(flags.GetInt("shard_count", 1));
  options.checkpoint_path = flags.GetString("checkpoint", "");
  options.resume = flags.GetBool("resume", false);
  options.progress = flags.GetBool("progress", false);

  auto result = tdg::exp::RunSweepShard(config.value(), options);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  // A clean exit stamps the clean-shutdown flag — crash tests assert its
  // absence to tell a black box of a kill from one of a completed run.
  if (!blackbox.empty()) tdg::obs::FlightRecorder::Global().Stop();
  std::printf("shard %d/%d: %zu cells (%d restored, %d run)\n",
              options.shard_index, options.shard_count,
              result->result.cells.size(), result->cells_restored,
              result->cells_run);
  return 0;
}
