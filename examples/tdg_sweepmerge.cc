// tdg_sweepmerge — folds N shard checkpoints (tdg.sweep_checkpoint.v1,
// written by `example_tdg_cli sweep --checkpoint=... --shard_index=...` or
// exp::RunSweepShard) into the CSV/JSON the monolithic sweep would have
// produced, byte for byte.
//
//   tdg_sweepmerge [--csv=<out.csv>] [--json=<out.json>] [--table]
//                  <shard0.ckpt> [<shard1.ckpt> ...]
//
// Watch mode — live fleet progress read from the shards' checkpoints
// (exp::WatchSweepCheckpoints; see DESIGN.md §9):
//
//   tdg_sweepmerge --watch [--watch_interval_ms=2000]
//                  [--watch_iterations=0] [--stale_after_ms=10000]
//                  <shard0.ckpt> [<shard1.ckpt> ...]
//
// Renders a per-shard progress / straggler table (state: running | done |
// stale | torn | missing) plus a fleet totals/ETA footer, refreshing every
// --watch_interval_ms until every shard is done (or --watch_iterations > 0
// rounds have printed — handy for scripts). Cells done are the durable
// records, and a shard whose checkpoint has not changed for
// --stale_after_ms reads stale, whether it is dead or inside one long
// cell. The rate and ETA come from the records added between two frames,
// so the first frame prints "-" and "eta ?". Read-only: never blocks or
// perturbs the shards.
//
// Exit codes: 0 merged cleanly (or watch finished); 1 the checkpoints are
// inconsistent (digest/coverage/duplicates), an output could not be
// written, or a flag is unknown; 2 usage.
//
// A torn final record in a shard file (crash mid-append) is tolerated at
// read time but surfaces as a missing cell — resume that shard to
// completion first. Checkpoints from different binaries or configs refuse
// to merge (digest check, DESIGN.md §8).

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/sweep_shard.h"
#include "util/file_util.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace {

int Fail(const tdg::util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Watch(const std::vector<std::string>& paths,
          const tdg::util::FlagParser& flags) {
  const long long interval_ms = flags.GetInt("watch_interval_ms", 2000);
  const long long max_iterations = flags.GetInt("watch_iterations", 0);
  const long long stale_after_ms = flags.GetInt("stale_after_ms", 10000);
  tdg::exp::SweepWatchFrame previous;
  for (long long iteration = 1;; ++iteration) {
    tdg::exp::SweepWatchFrame frame = tdg::exp::WatchSweepCheckpoints(
        paths, tdg::util::UnixMillis(), stale_after_ms,
        iteration > 1 ? &previous : nullptr);
    std::printf("%s", frame.table.c_str());
    std::fflush(stdout);
    if (frame.all_done) {
      std::printf("all %zu shard(s) done — merge with: tdg_sweepmerge "
                  "--csv=... <checkpoints...>\n",
                  paths.size());
      return 0;
    }
    if (max_iterations > 0 && iteration >= max_iterations) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    std::printf("\n");
    previous = std::move(frame);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using enum tdg::util::FlagKind;
  tdg::util::FlagParser flags;
  auto parse_status = flags.Parse(
      argc, argv,
      {{"csv", kString}, {"json", kString}, {"table", kBool}, {"watch", kBool},
       {"watch_interval_ms", kInt}, {"watch_iterations", kInt},
       {"stale_after_ms", kInt}});
  if (!parse_status.ok()) return Fail(parse_status);
  const std::vector<std::string>& paths = flags.positional();
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: tdg_sweepmerge [--csv=<out.csv>] "
                 "[--json=<out.json>] [--table] <shard0.ckpt> "
                 "[<shard1.ckpt> ...]\n"
                 "       tdg_sweepmerge --watch "
                 "[--watch_interval_ms=MS] [--watch_iterations=N] "
                 "[--stale_after_ms=MS] <shard0.ckpt> ...\n");
    return 2;
  }
  if (flags.GetBool("watch", false)) return Watch(paths, flags);

  auto merged = tdg::exp::MergeSweepCheckpoints(paths);
  if (!merged.ok()) return Fail(merged.status());
  std::printf("merged %zu checkpoint(s): sweep '%s', %zu cells\n",
              paths.size(), merged->name.c_str(), merged->cells.size());

  if (flags.GetBool("table", false)) {
    std::printf("\n%s", merged->ToTable().c_str());
  }
  const std::string csv_path = flags.GetString("csv", "");
  if (!csv_path.empty()) {
    auto status = merged->ToCsv().WriteToFile(csv_path);
    if (!status.ok()) return Fail(status);
    std::printf("wrote %s\n", csv_path.c_str());
  }
  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    auto status = tdg::util::WriteStringToFile(
        json_path, merged->ToJson().SerializePretty() + "\n");
    if (!status.ok()) return Fail(status);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
