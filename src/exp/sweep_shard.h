#ifndef TDG_EXP_SWEEP_SHARD_H_
#define TDG_EXP_SWEEP_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "exp/sweep_config.h"
#include "util/statusor.h"

namespace tdg::exp {

/// Crash-safe sharded sweep execution (DESIGN.md §8).
///
/// A sweep's cell grid is partitioned deterministically into
/// `shard_count` slices; each shard appends one fsync'd JSONL record per
/// completed cell to a checkpoint file, so an interrupted shard resumes by
/// replaying its checkpoint and re-running only the tail. `tdg_sweepmerge`
/// (or MergeSweepCheckpoints) folds the N shard checkpoints back into the
/// byte-identical CSV/JSON the monolithic RunSweep would have produced —
/// the PR 2 determinism contract extends across process boundaries.

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

/// Parses a checkpoint file. Duplicate cell indices, a malformed durable
/// line, unknown schema, or a missing header are errors; a torn final line
/// is dropped. Read-only: never repairs the file.
util::StatusOr<SweepCheckpoint> ReadSweepCheckpoint(const std::string& path);

struct SweepShardOptions {
  int shard_index = 0;
  int shard_count = 1;
  /// JSONL checkpoint path; required.
  std::string checkpoint_path;
  /// Replay an existing checkpoint and run only the remaining cells. Without
  /// this, an existing checkpoint file is a FailedPrecondition error (never
  /// silently clobber completed work).
  bool resume = false;
  /// When non-empty, a background obs::HeartbeatWriter atomically rewrites
  /// this file (tdg.heartbeat.v1 JSON) every `heartbeat_period_ms` for the
  /// duration of the shard, so `tdg_sweepmerge --watch` can report fleet
  /// progress and spot stragglers without touching the shard processes.
  /// Pure observation: cell results and checkpoint bytes are identical with
  /// or without it. Convention: `<checkpoint_path>.heartbeat`.
  std::string heartbeat_path;
  int heartbeat_period_ms = 1000;
};

struct SweepShardResult {
  /// The shard's completed cells in global grid order (for shard_count == 1
  /// this is exactly what RunSweep would return).
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
/// corrupt the experiment.
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
/// CSV/JSON serializations are byte-identical to an uninterrupted
/// single-process RunSweep.
util::StatusOr<SweepResult> MergeSweepCheckpoints(
    const std::vector<std::string>& paths);

}  // namespace tdg::exp

#endif  // TDG_EXP_SWEEP_SHARD_H_
