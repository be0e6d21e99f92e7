#include "exp/sweep_shard.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>

#include <unistd.h>

#include "baselines/registry.h"
#include "obs/obs.h"
#include "obs/run_manifest.h"
#include "util/file_util.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace tdg::exp {

std::vector<long long> ShardCellIndices(long long num_cells, int shard_index,
                                        int shard_count) {
  TDG_CHECK_GE(num_cells, 0);
  TDG_CHECK_GE(shard_count, 1);
  TDG_CHECK_GE(shard_index, 0);
  TDG_CHECK_LT(shard_index, shard_count);
  // Contiguous balanced blocks keep each shard's cells in grid order and
  // make the partition a pure function of (num_cells, index, count).
  const long long begin = num_cells * shard_index / shard_count;
  const long long end = num_cells * (shard_index + 1) / shard_count;
  std::vector<long long> indices;
  indices.reserve(static_cast<size_t>(end - begin));
  for (long long i = begin; i < end; ++i) indices.push_back(i);
  return indices;
}

std::string SweepDigest(const SweepConfig& config) {
  // `threads` is scheduling, not identity: the determinism contract makes
  // results independent of worker count, so a resume may change it.
  std::string identity;
  for (const std::string& line : util::Split(config.ToText(), '\n')) {
    if (util::StartsWith(line, "threads")) continue;
    identity += line;
    identity += '\n';
  }
  return obs::RunManifest::Capture().BuildDigest(identity);
}

namespace {

#if defined(TDG_TEST_HOOKS)
// Fault-injection hook (test builds only): simulate a crash — no stack
// unwinding, no stream flushing beyond what AppendLine already fsynced —
// after the n-th cell record of this invocation reaches disk.
void MaybeCrashAfterCells(int completed_this_run) {
  static const int limit = [] {
    const char* env = std::getenv("TDG_TEST_CRASH_AFTER_CELLS");
    return env != nullptr ? std::atoi(env) : -1;
  }();
  if (limit >= 0 && completed_this_run >= limit) {
    std::fprintf(stderr,
                 "TDG_TEST_CRASH_AFTER_CELLS: simulated crash after %d "
                 "cell(s)\n",
                 completed_this_run);
    std::_Exit(kCrashHookExitCode);
  }
}
#endif

util::StatusOr<util::JsonValue> RequireField(const util::JsonValue& object,
                                             const char* key) {
  auto field = object.GetField(key);
  if (!field.ok()) {
    return util::Status::InvalidArgument(
        util::StrFormat("checkpoint record missing \"%s\"", key));
  }
  return field;
}

util::StatusOr<double> RequireNumber(const util::JsonValue& object,
                                     const char* key) {
  TDG_ASSIGN_OR_RETURN(util::JsonValue field, RequireField(object, key));
  if (!field.is_number()) {
    return util::Status::InvalidArgument(
        util::StrFormat("checkpoint field \"%s\" must be a number", key));
  }
  return field.AsNumber();
}

util::StatusOr<std::string> RequireString(const util::JsonValue& object,
                                          const char* key) {
  TDG_ASSIGN_OR_RETURN(util::JsonValue field, RequireField(object, key));
  if (!field.is_string()) {
    return util::Status::InvalidArgument(
        util::StrFormat("checkpoint field \"%s\" must be a string", key));
  }
  return field.AsString();
}

// Seeds are 64-bit and may exceed a double's 53-bit mantissa, so they are
// persisted as decimal strings.
util::StatusOr<uint64_t> RequireSeed(const util::JsonValue& object,
                                     const char* key) {
  TDG_ASSIGN_OR_RETURN(std::string text, RequireString(object, key));
  errno = 0;
  char* end = nullptr;
  uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return util::Status::InvalidArgument(
        util::StrFormat("checkpoint field \"%s\" is not a uint64", key));
  }
  return value;
}

std::string HeaderLine(const SweepCheckpointHeader& header) {
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("record", "header");
  json.Set("schema", header.schema);
  json.Set("name", header.name);
  json.Set("digest", header.digest);
  json.Set("shard_index", header.shard_index);
  json.Set("shard_count", header.shard_count);
  json.Set("cells_total", header.cells_total);
  return json.Serialize();
}

std::string CellLine(const SweepCheckpointCell& record,
                     const std::string& digest) {
  const SweepCell& cell = record.cell;
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("record", "cell");
  json.Set("cell_index", record.cell_index);
  json.Set("digest", digest);
  json.Set("distribution",
           std::string(
               random::SkillDistributionName(cell.point.distribution)));
  json.Set("mode", std::string(InteractionModeName(cell.point.mode)));
  json.Set("n", cell.point.n);
  json.Set("k", cell.point.k);
  json.Set("alpha", cell.point.alpha);
  json.Set("r", cell.point.r);
  json.Set("policy", cell.policy);
  json.Set("runs", cell.runs);
  json.Set("point_seed", std::to_string(record.point_seed));
  json.Set("policy_seed", std::to_string(record.policy_seed));
  util::JsonValue gains = util::JsonValue::MakeArray();
  for (double gain : record.run_gains) gains.Append(gain);
  json.Set("run_gains", std::move(gains));
  json.Set("mean_gain", cell.mean_gain);
  json.Set("stderr_gain", cell.stderr_gain);
  json.Set("mean_micros", cell.mean_micros);
  return json.Serialize();
}

util::StatusOr<SweepCheckpointHeader> ParseHeader(
    const util::JsonValue& json) {
  SweepCheckpointHeader header;
  TDG_ASSIGN_OR_RETURN(header.schema, RequireString(json, "schema"));
  if (header.schema != kSweepCheckpointSchema) {
    return util::Status::InvalidArgument(
        "unsupported checkpoint schema: " + header.schema);
  }
  TDG_ASSIGN_OR_RETURN(header.name, RequireString(json, "name"));
  TDG_ASSIGN_OR_RETURN(header.digest, RequireString(json, "digest"));
  TDG_ASSIGN_OR_RETURN(double shard_index,
                       RequireNumber(json, "shard_index"));
  TDG_ASSIGN_OR_RETURN(double shard_count,
                       RequireNumber(json, "shard_count"));
  TDG_ASSIGN_OR_RETURN(double cells_total,
                       RequireNumber(json, "cells_total"));
  header.shard_index = static_cast<int>(shard_index);
  header.shard_count = static_cast<int>(shard_count);
  header.cells_total = static_cast<long long>(cells_total);
  return header;
}

util::StatusOr<SweepCheckpointCell> ParseCell(const util::JsonValue& json,
                                              const std::string& digest) {
  SweepCheckpointCell record;
  TDG_ASSIGN_OR_RETURN(std::string record_digest,
                       RequireString(json, "digest"));
  if (record_digest != digest) {
    return util::Status::InvalidArgument(
        "cell record digest disagrees with the checkpoint header");
  }
  TDG_ASSIGN_OR_RETURN(double cell_index,
                       RequireNumber(json, "cell_index"));
  record.cell_index = static_cast<long long>(cell_index);
  TDG_ASSIGN_OR_RETURN(std::string distribution,
                       RequireString(json, "distribution"));
  TDG_ASSIGN_OR_RETURN(record.cell.point.distribution,
                       random::ParseSkillDistribution(distribution));
  TDG_ASSIGN_OR_RETURN(std::string mode, RequireString(json, "mode"));
  TDG_ASSIGN_OR_RETURN(record.cell.point.mode, ParseInteractionMode(mode));
  TDG_ASSIGN_OR_RETURN(double n, RequireNumber(json, "n"));
  TDG_ASSIGN_OR_RETURN(double k, RequireNumber(json, "k"));
  TDG_ASSIGN_OR_RETURN(double alpha, RequireNumber(json, "alpha"));
  TDG_ASSIGN_OR_RETURN(record.cell.point.r, RequireNumber(json, "r"));
  record.cell.point.n = static_cast<int>(n);
  record.cell.point.k = static_cast<int>(k);
  record.cell.point.alpha = static_cast<int>(alpha);
  TDG_ASSIGN_OR_RETURN(record.cell.policy, RequireString(json, "policy"));
  TDG_ASSIGN_OR_RETURN(double runs, RequireNumber(json, "runs"));
  record.cell.runs = static_cast<int>(runs);
  TDG_ASSIGN_OR_RETURN(record.point_seed, RequireSeed(json, "point_seed"));
  TDG_ASSIGN_OR_RETURN(record.policy_seed,
                       RequireSeed(json, "policy_seed"));
  TDG_ASSIGN_OR_RETURN(util::JsonValue gains,
                       RequireField(json, "run_gains"));
  if (!gains.is_array()) {
    return util::Status::InvalidArgument(
        "checkpoint field \"run_gains\" must be an array");
  }
  for (const util::JsonValue& gain : gains.AsArray()) {
    if (!gain.is_number()) {
      return util::Status::InvalidArgument(
          "checkpoint field \"run_gains\" must contain numbers");
    }
    record.run_gains.push_back(gain.AsNumber());
  }
  TDG_ASSIGN_OR_RETURN(record.cell.mean_gain,
                       RequireNumber(json, "mean_gain"));
  TDG_ASSIGN_OR_RETURN(record.cell.stderr_gain,
                       RequireNumber(json, "stderr_gain"));
  TDG_ASSIGN_OR_RETURN(record.cell.mean_micros,
                       RequireNumber(json, "mean_micros"));
  return record;
}

std::vector<std::string> SweepPolicies(const SweepConfig& config) {
  return config.policies.empty() ? baselines::AllPolicyNames()
                                 : config.policies;
}

}  // namespace

util::StatusOr<SweepCheckpoint> ReadSweepCheckpoint(
    const std::string& path) {
  SweepCheckpoint checkpoint;
  std::set<long long> seen_cells;
  bool have_header = false;
  TDG_ASSIGN_OR_RETURN(
      util::DurablePrefix prefix,
      util::ReadDurableJsonl(path, [&](const util::JsonValue& json) {
        util::StatusOr<std::string> record_type =
            RequireString(json, "record");
        if (!record_type.ok()) return record_type.status();
        if (!have_header) {
          if (*record_type != "header") {
            return util::Status::InvalidArgument(
                "first record must be the header");
          }
          TDG_ASSIGN_OR_RETURN(checkpoint.header, ParseHeader(json));
          have_header = true;
        } else if (*record_type == "cell") {
          TDG_ASSIGN_OR_RETURN(SweepCheckpointCell record,
                               ParseCell(json, checkpoint.header.digest));
          if (!seen_cells.insert(record.cell_index).second) {
            return util::Status::InvalidArgument(util::StrFormat(
                "duplicate record for cell %lld", record.cell_index));
          }
          checkpoint.cells.push_back(std::move(record));
        } else {
          return util::Status::InvalidArgument(util::StrFormat(
              "unknown record type '%s'", record_type->c_str()));
        }
        return util::Status::OK();
      }));
  checkpoint.torn_tail_dropped = prefix.torn_tail;
  checkpoint.valid_bytes = prefix.bytes;
  return checkpoint;
}

util::StatusOr<SweepShardResult> RunSweepShard(
    const SweepConfig& config, const SweepShardOptions& options) {
  TDG_RETURN_IF_ERROR(config.Validate());
  if (options.checkpoint_path.empty()) {
    return util::Status::InvalidArgument(
        "sharded sweep execution requires a checkpoint path");
  }
  if (options.shard_count < 1 || options.shard_index < 0 ||
      options.shard_index >= options.shard_count) {
    return util::Status::InvalidArgument(util::StrFormat(
        "invalid shard %d of %d", options.shard_index,
        options.shard_count));
  }
  obs::InstallThreadPoolInstrumentation();
  // Fleet identity on every /metrics sample: scrapes of concurrent shard
  // workers stay distinguishable in one Prometheus. Single-process sweeps
  // (shard_count == 1) keep the unlabeled exposition byte-identical.
  if (options.shard_count > 1) {
    obs::MetricsRegistry::Global().SetCommonLabels(
        {{"shard_index", std::to_string(options.shard_index)},
         {"shard_count", std::to_string(options.shard_count)}});
  }
  TDG_BLACKBOX_SPAN(obs::BlackboxSpan::kSweepShard);

  const std::vector<std::string> policies = SweepPolicies(config);
  const std::vector<SweepPoint> points = GridPoints(config);
  const long long cells_total =
      static_cast<long long>(points.size()) *
      static_cast<long long>(policies.size());
  const std::vector<long long> shard_cells = ShardCellIndices(
      cells_total, options.shard_index, options.shard_count);
  const std::string digest = SweepDigest(config);

  SweepShardResult shard_result;
  std::map<long long, SweepCheckpointCell> completed;

  bool have_header = false;
  if (util::FileExists(options.checkpoint_path)) {
    if (!options.resume) {
      return util::Status::FailedPrecondition(
          "checkpoint '" + options.checkpoint_path +
          "' already exists; pass resume to continue it or remove it to "
          "start over");
    }
    TDG_ASSIGN_OR_RETURN(SweepCheckpoint checkpoint,
                         ReadSweepCheckpoint(options.checkpoint_path));
    if (checkpoint.torn_tail_dropped) {
      // Drop the torn bytes *before* appending: otherwise the next record
      // would concatenate onto the partial line and corrupt the file.
      TDG_RETURN_IF_ERROR(util::TruncateFile(options.checkpoint_path,
                                             checkpoint.valid_bytes));
      shard_result.torn_tail_dropped = true;
      TDG_OBS_COUNTER_ADD("sweep/checkpoint/torn_tail_dropped", 1);
      TDG_LOG(Warning) << "checkpoint '" << options.checkpoint_path
                       << "': dropped torn final record; its cell will be "
                          "re-run";
    }
    if (!checkpoint.header.schema.empty()) {
      // The fatal path: resuming against a different binary or config
      // would silently mix incomparable cells into one experiment. Fail
      // loudly instead of producing plausible-looking corrupt science.
      TDG_CHECK(checkpoint.header.digest == digest)
          << "checkpoint digest mismatch for '" << options.checkpoint_path
          << "': checkpoint was written by digest "
          << checkpoint.header.digest << " but this binary/config digests "
          << digest
          << " — refusing to resume across a binary or config change";
      if (checkpoint.header.shard_index != options.shard_index ||
          checkpoint.header.shard_count != options.shard_count) {
        return util::Status::InvalidArgument(util::StrFormat(
            "checkpoint belongs to shard %d of %d, not %d of %d",
            checkpoint.header.shard_index, checkpoint.header.shard_count,
            options.shard_index, options.shard_count));
      }
      if (checkpoint.header.cells_total != cells_total) {
        return util::Status::InvalidArgument(util::StrFormat(
            "checkpoint covers %lld cells but the grid has %lld",
            checkpoint.header.cells_total, cells_total));
      }
      have_header = true;
      const std::set<long long> owned(shard_cells.begin(),
                                      shard_cells.end());
      for (SweepCheckpointCell& record : checkpoint.cells) {
        if (owned.find(record.cell_index) == owned.end()) {
          return util::Status::InvalidArgument(util::StrFormat(
              "checkpoint cell %lld is outside shard %d of %d",
              record.cell_index, options.shard_index,
              options.shard_count));
        }
        completed.emplace(record.cell_index, std::move(record));
      }
    }
    // A header torn away entirely (no durable record) is a fresh start
    // (util::ReadDurableJsonl): the header is written below.
  }

  TDG_ASSIGN_OR_RETURN(util::DurableAppendFile checkpoint_file,
                       util::DurableAppendFile::Open(
                           options.checkpoint_path));
  if (!have_header) {
    SweepCheckpointHeader header;
    header.schema = kSweepCheckpointSchema;
    header.name = config.name;
    header.digest = digest;
    header.shard_index = options.shard_index;
    header.shard_count = options.shard_count;
    header.cells_total = cells_total;
    TDG_RETURN_IF_ERROR(checkpoint_file.AppendLine(HeaderLine(header)));
  }

  shard_result.cells_restored = static_cast<int>(completed.size());
  std::vector<long long> remaining;
  for (long long cell_index : shard_cells) {
    if (completed.find(cell_index) == completed.end()) {
      remaining.push_back(cell_index);
    }
  }
  TDG_OBS_COUNTER_ADD("sweep/checkpoint/cells_restored",
                      shard_result.cells_restored);

  std::atomic<bool> failed{false};
  util::Status first_error;
  std::mutex error_mutex;
  // One mutex serializes record appends and completion bookkeeping; cells
  // themselves run in parallel.
  std::mutex append_mutex;
  int appended_this_run = 0;

  // Monitoring plane — observation only. The tracker hooks cost one relaxed
  // atomic load when disabled; the heartbeat thread samples two atomics and
  // never touches cell results or checkpoint bytes.
  obs::ProgressTracker& progress = obs::ProgressTracker::Global();
  progress.BeginRun(config.name,
                    static_cast<long long>(shard_cells.size()),
                    shard_result.cells_restored);

  const long long hb_restored = shard_result.cells_restored;
  std::atomic<long long> hb_cells_done{hb_restored};
  std::atomic<long long> hb_last_cell_unix_ms{0};
  const long long hb_start_unix_ms = obs::UnixMillis();
  obs::HeartbeatWriter heartbeat;
  if (!options.heartbeat_path.empty()) {
    const long long owned_cells =
        static_cast<long long>(shard_cells.size());
    heartbeat.Start(
        options.heartbeat_path, options.heartbeat_period_ms,
        [&config, &options, cells_total, owned_cells, hb_restored,
         hb_start_unix_ms, &hb_cells_done, &hb_last_cell_unix_ms] {
          obs::Heartbeat beat;
          beat.name = config.name;
          beat.shard_index = options.shard_index;
          beat.shard_count = options.shard_count;
          beat.cells_total = cells_total;
          beat.shard_cells = owned_cells;
          beat.cells_done =
              hb_cells_done.load(std::memory_order_relaxed);
          beat.pid = static_cast<long long>(getpid());
          beat.updated_unix_ms = obs::UnixMillis();
          beat.last_cell_unix_ms =
              hb_last_cell_unix_ms.load(std::memory_order_relaxed);
          const double elapsed_seconds =
              static_cast<double>(beat.updated_unix_ms -
                                  hb_start_unix_ms) /
              1e3;
          const long long run_cells = beat.cells_done - hb_restored;
          beat.cells_per_second =
              elapsed_seconds > 0
                  ? static_cast<double>(run_cells) / elapsed_seconds
                  : 0;
          return beat;
        });
  }

  util::ThreadPool pool(config.threads);
  util::ParallelFor(
      pool, static_cast<int>(remaining.size()), [&](int i) {
        if (failed.load()) return;
        const long long cell_index = remaining[static_cast<size_t>(i)];
        const size_t point_index =
            static_cast<size_t>(cell_index) / policies.size();
        const size_t policy_index =
            static_cast<size_t>(cell_index) % policies.size();
        const int64_t cell_start =
            progress.enabled() ? util::MonotonicMicros() : 0;
        SweepCheckpointCell record;
        record.cell_index = cell_index;
        TDG_BLACKBOX(obs::BlackboxEventType::kSweepCellStart,
                     static_cast<double>(cell_index),
                     static_cast<double>(points[point_index].n),
                     static_cast<double>(points[point_index].k),
                     static_cast<double>(points[point_index].alpha));
        const CellSeeds seeds =
            SeedsForCell(config.seed, cell_index, policies.size());
        record.point_seed = seeds.point_seed;
        record.policy_seed = seeds.policy_seed;
        auto cell = RunSweepCell(points[point_index],
                                 policies[policy_index], config.runs,
                                 seeds.point_seed, seeds.policy_seed,
                                 &record.run_gains);
        if (!cell.ok()) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!failed.exchange(true)) first_error = cell.status();
          return;
        }
        record.cell = std::move(cell).value();
        if (progress.enabled()) {
          progress.RecordCell(
              PointLabel(points[point_index]) + "/" +
                  policies[policy_index],
              static_cast<double>(util::MonotonicMicros() - cell_start));
        }
        const std::string line = CellLine(record, digest);
        std::lock_guard<std::mutex> lock(append_mutex);
        util::Status append_status = checkpoint_file.AppendLine(line);
        if (!append_status.ok()) {
          std::lock_guard<std::mutex> error_lock(error_mutex);
          if (!failed.exchange(true)) first_error = append_status;
          return;
        }
        TDG_OBS_COUNTER_ADD("sweep/checkpoint/cells_written", 1);
        // Emitted after the checkpoint append under the same mutex, so at
        // any crash cut the black box's cell_end events equal the
        // checkpoint's cell set (asserted by the ci blackbox e2e).
        TDG_BLACKBOX(obs::BlackboxEventType::kSweepCellEnd,
                     static_cast<double>(cell_index),
                     record.cell.mean_gain,
                     static_cast<double>(record.cell.runs));
        completed.emplace(cell_index, std::move(record));
        ++appended_this_run;
        if (heartbeat.running()) {
          hb_cells_done.fetch_add(1, std::memory_order_relaxed);
          hb_last_cell_unix_ms.store(obs::UnixMillis(),
                                     std::memory_order_relaxed);
        }
#if defined(TDG_TEST_HOOKS)
        MaybeCrashAfterCells(appended_this_run);
#endif
      });
  heartbeat.Stop();
  progress.EndRun();
  if (failed.load()) return first_error;

  shard_result.cells_run = appended_this_run;
  shard_result.result.name = config.name;
  shard_result.result.cells.reserve(shard_cells.size());
  shard_result.cell_indices.reserve(shard_cells.size());
  for (long long cell_index : shard_cells) {
    auto it = completed.find(cell_index);
    TDG_CHECK(it != completed.end())
        << "cell " << cell_index << " missing after shard run";
    shard_result.result.cells.push_back(it->second.cell);
    shard_result.cell_indices.push_back(cell_index);
  }
  return shard_result;
}

util::StatusOr<SweepResult> MergeSweepCheckpoints(
    const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return util::Status::InvalidArgument(
        "merge needs at least one checkpoint file");
  }
  SweepCheckpointHeader reference;
  std::map<long long, SweepCell> cells;
  for (size_t i = 0; i < paths.size(); ++i) {
    TDG_ASSIGN_OR_RETURN(SweepCheckpoint checkpoint,
                         ReadSweepCheckpoint(paths[i]));
    if (checkpoint.header.schema.empty()) {
      return util::Status::InvalidArgument(
          "checkpoint '" + paths[i] + "' has no header record");
    }
    if (checkpoint.torn_tail_dropped) {
      TDG_LOG(Warning) << "checkpoint '" << paths[i]
                       << "' ends in a torn record; the affected cell "
                          "counts as missing";
    }
    if (i == 0) {
      reference = checkpoint.header;
    } else {
      if (checkpoint.header.digest != reference.digest) {
        return util::Status::InvalidArgument(
            "checkpoint '" + paths[i] +
            "' was produced by a different binary or config (digest " +
            checkpoint.header.digest + " vs " + reference.digest + ")");
      }
      if (checkpoint.header.name != reference.name ||
          checkpoint.header.cells_total != reference.cells_total ||
          checkpoint.header.shard_count != reference.shard_count) {
        return util::Status::InvalidArgument(
            "checkpoint '" + paths[i] +
            "' disagrees with the first checkpoint's sweep "
            "(name/cells_total/shard_count)");
      }
    }
    for (const SweepCheckpointCell& record : checkpoint.cells) {
      if (record.cell_index < 0 ||
          record.cell_index >= checkpoint.header.cells_total) {
        return util::Status::InvalidArgument(util::StrFormat(
            "checkpoint '%s': cell index %lld out of range [0, %lld)",
            paths[i].c_str(), record.cell_index,
            checkpoint.header.cells_total));
      }
      if (!cells.emplace(record.cell_index, record.cell).second) {
        return util::Status::InvalidArgument(util::StrFormat(
            "cell %lld appears in more than one checkpoint (shards must "
            "be disjoint)",
            record.cell_index));
      }
    }
  }
  if (static_cast<long long>(cells.size()) != reference.cells_total) {
    std::string missing;
    for (long long i = 0; i < reference.cells_total && missing.size() < 80;
         ++i) {
      if (cells.find(i) == cells.end()) {
        if (!missing.empty()) missing += ", ";
        missing += std::to_string(i);
      }
    }
    return util::Status::FailedPrecondition(util::StrFormat(
        "merged checkpoints cover %lld of %lld cells (missing: %s) — "
        "finish or resume the interrupted shards first",
        static_cast<long long>(cells.size()), reference.cells_total,
        missing.c_str()));
  }
  SweepResult result;
  result.name = reference.name;
  result.cells.reserve(cells.size());
  for (auto& [index, cell] : cells) {
    (void)index;
    result.cells.push_back(std::move(cell));
  }
  return result;
}

}  // namespace tdg::exp
