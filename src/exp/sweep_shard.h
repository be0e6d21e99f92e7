#ifndef TDG_EXP_SWEEP_SHARD_H_
#define TDG_EXP_SWEEP_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "exp/sweep_config.h"
#include "util/statusor.h"

namespace tdg::exp {

/// The sweep's one cell loop, crash-safe and sharded (DESIGN.md §8).
///
/// A sweep's cell grid is partitioned deterministically into
/// `shard_count` slices; each shard appends one fsync'd JSONL record per
/// completed cell to a checkpoint file, so an interrupted shard resumes by
/// replaying its checkpoint and re-running only the tail. `tdg_sweepmerge`
/// (or MergeSweepCheckpoints) folds the N shard checkpoints back into the
/// byte-identical CSV/JSON of one unpersisted run (RunSweep) — the
/// determinism contract extends across process boundaries.

/// Schema identifier of the checkpoint file format; bump on incompatible
/// change.
inline constexpr const char* kSweepCheckpointSchema =
    "tdg.sweep_checkpoint.v1";

/// Exit code of a sweep killed by the TDG_TEST_CRASH_AFTER_CELLS fault
/// hook (test builds only; see RunSweepShard).
inline constexpr int kCrashHookExitCode = 42;

/// The global cell indices owned by shard `shard_index` of `shard_count`:
/// the contiguous block [floor(i*C/S), floor((i+1)*C/S)). Shards are
/// disjoint, cover [0, num_cells), differ in size by at most one cell, and
/// are a pure function of the three arguments — re-planning with the same
/// inputs always yields the same slices.
std::vector<long long> ShardCellIndices(long long num_cells, int shard_index,
                                        int shard_count);

/// Digest binding a checkpoint to (binary build provenance × sweep
/// configuration). The config's `threads` knob is excluded — results are
/// thread-count independent by contract, so resuming with a different
/// worker count is legal. Everything else (grid, policies, runs, seed,
/// name, plus git sha / compiler / flags of the running binary via
/// obs::RunManifest::BuildDigest) is covered: a resume against a different
/// binary or an edited config fails loudly.
std::string SweepDigest(const SweepConfig& config);

/// The parsed header record (first line) of a checkpoint file.
struct SweepCheckpointHeader {
  std::string schema;
  std::string name;         // SweepConfig::name
  std::string digest;       // SweepDigest at write time
  int shard_index = 0;
  int shard_count = 1;
  long long cells_total = 0;  // full grid size (points × policies)
};

/// One persisted cell record.
struct SweepCheckpointCell {
  long long cell_index = 0;  // global grid-order index
  SweepCell cell;
  uint64_t point_seed = 0;
  uint64_t policy_seed = 0;
  std::vector<double> run_gains;  // per-run total gains behind cell.mean_gain
};

/// A checkpoint file read back into memory under the torn-tail rule of
/// util::ReadDurableJsonl: `valid_bytes` is the durable prefix, and
/// `torn_tail_dropped` says an unterminated final line was dropped.
struct SweepCheckpoint {
  SweepCheckpointHeader header;
  std::vector<SweepCheckpointCell> cells;  // file order (completion order)
  bool torn_tail_dropped = false;
  uint64_t valid_bytes = 0;
};

/// Parses a checkpoint file. An unreadable file, a malformed durable line,
/// an unknown schema, a first record that is not the header, or duplicate
/// cell indices are errors; a torn final line is dropped. A file with no
/// durable record (the header itself was torn away) is OK with an empty
/// `header.schema`: resume treats it as a fresh start, and merge refuses
/// it. Read-only: never repairs the file.
util::StatusOr<SweepCheckpoint> ReadSweepCheckpoint(const std::string& path);

struct SweepShardOptions {
  int shard_index = 0;
  int shard_count = 1;
  /// JSONL checkpoint path. Empty means an unpersisted run: no file, no
  /// digest, no records. It requires shard_count == 1 and no resume.
  std::string checkpoint_path;
  /// Replay an existing checkpoint and run only the remaining cells. Without
  /// this, an existing checkpoint file is a FailedPrecondition error (never
  /// silently clobber completed work).
  bool resume = false;
  /// Print SweepProgressLine to stderr as a `\r`-updated line: on the
  /// first cell of this execution, then at most every 500 ms and on the
  /// last cell, with a newline when the loop ends. A cell counts once its
  /// record is durable (unpersisted: once it is taken under the append
  /// mutex), so the count never exceeds the checkpoint's records.
  bool progress = false;
};

struct SweepShardResult {
  /// The shard's completed cells in global grid order (for shard_count == 1
  /// this is exactly what RunSweep returns).
  SweepResult result;
  /// Global cell indices, parallel to result.cells.
  std::vector<long long> cell_indices;
  int cells_restored = 0;  // replayed from the checkpoint
  int cells_run = 0;       // executed this invocation
  bool torn_tail_dropped = false;
};

/// Runs (or resumes) one shard of the sweep, appending one fsync'd record
/// per completed cell to `options.checkpoint_path`. On resume, a torn final
/// line is truncated away and its cell re-run; a checkpoint whose digest
/// does not match SweepDigest(config) aborts the process (LOG(FATAL)) —
/// silently mixing cells from two different binaries or configs would
/// corrupt the experiment. Without a checkpoint path nothing is written;
/// shard_count > 1 or resume is then InvalidArgument.
///
/// Fault injection (test builds, TDG_TEST_HOOKS): when the environment
/// variable TDG_TEST_CRASH_AFTER_CELLS=<n> is set, the process exits hard
/// (_Exit(kCrashHookExitCode), no cleanup — a simulated crash) after the
/// n-th cell record of this invocation reaches disk.
util::StatusOr<SweepShardResult> RunSweepShard(
    const SweepConfig& config, const SweepShardOptions& options);

/// Folds shard checkpoints into the monolithic SweepResult: headers must
/// agree on schema, name, digest, shard_count and cells_total; the union of
/// cell records must cover every cell exactly once (a torn tail in any file
/// surfaces as a missing cell). Cells are ordered by global index, so the
/// CSV/JSON serializations are byte-identical to one unpersisted RunSweep.
util::StatusOr<SweepResult> MergeSweepCheckpoints(
    const std::vector<std::string>& paths);

/// One shard's row in a watch frame (`tdg_sweepmerge --watch`).
struct SweepWatchRow {
  std::string path;
  /// "done" (durable cells >= owned cells, at any age), "running",
  /// "stale" (checkpoint unmodified for longer than stale_after_ms),
  /// "torn" (unreadable, or no durable header) or "missing".
  std::string state;
  SweepCheckpointHeader header;  // empty schema when torn or missing
  long long cells_done = 0;      // durable cell records
  long long cells_owned = 0;     // ShardCellIndices of the header's plan
  long long age_ms = 0;          // now - the checkpoint's mtime
};

struct SweepWatchFrame {
  long long unix_ms = 0;
  std::vector<SweepWatchRow> rows;  // parallel to the watched paths
  bool all_done = false;
  /// The per-shard table plus the fleet footer ("fleet: D/T cells done,
  /// eta E").
  std::string table;
};

/// Shard progress read from the checkpoints alone: the shard processes are
/// never contacted, and a shard publishes nothing beyond its checkpoint.
/// Each file is read with ReadSweepCheckpoint; its mtime, the time of its
/// last durable record, gives the age. A shard stuck inside one cell for
/// longer than `stale_after_ms` therefore reads "stale", like a dead one.
/// The footer's T is the whole grid, the headers' `cells_total`, so a
/// missing or torn shard's cells still count as not done; headers that
/// disagree on it (as MergeSweepCheckpoints would refuse) print
/// "fleet: checkpoints disagree on cells_total". The cells/s column and
/// the ETA use the change in durable records since `previous`, the frame
/// before this one over the same paths; without it they print "-" and
/// "eta ?".
SweepWatchFrame WatchSweepCheckpoints(const std::vector<std::string>& paths,
                                      long long now_unix_ms,
                                      long long stale_after_ms,
                                      const SweepWatchFrame* previous);

/// The `--progress` line of one shard execution, e.g.
/// "sweep paper-grid: 118/256 cells (46.1%) | 3.42 cells/s | eta 40s".
/// `cells_done` includes the restored cells; the rate is `cells_run` (this
/// execution's cells) over `seconds` since the loop began, so restored
/// cells never enter it. The ETA follows WatchSweepCheckpoints' rule:
/// "?" before the first run cell, "done" once nothing remains.
std::string SweepProgressLine(const std::string& name, long long cells_done,
                              long long cells_owned, long long cells_run,
                              double seconds);

}  // namespace tdg::exp

#endif  // TDG_EXP_SWEEP_SHARD_H_
