#ifndef TDG_EXP_SWEEP_H_
#define TDG_EXP_SWEEP_H_

#include <string>
#include <vector>

#include "exp/sweep_config.h"
#include "util/csv.h"
#include "util/json.h"

namespace tdg::exp {

/// One grid point of a sweep.
struct SweepPoint {
  int n = 0;
  int k = 0;
  int alpha = 0;
  double r = 0;
  InteractionMode mode = InteractionMode::kStar;
  random::SkillDistribution distribution =
      random::SkillDistribution::kLogNormal;
};

/// Aggregated outcome of one (point, policy) cell.
struct SweepCell {
  SweepPoint point;
  std::string policy;
  int runs = 0;
  double mean_gain = 0;
  double stderr_gain = 0;   // standard error over the runs
  /// Mean wall time of the α-round process, derived from the cell's
  /// `sweep/process_micros/...` histogram in the tdg::obs metrics registry
  /// (0 when metrics are disabled via obs::SetMetricsEnabled(false)).
  double mean_micros = 0;
};

struct SweepResult {
  std::string name;
  std::vector<SweepCell> cells;

  /// Pretty table: one row per point, one gain column per policy.
  std::string ToTable(int digits = 2) const;

  /// Flat CSV: point columns + policy + gain statistics.
  util::CsvDocument ToCsv() const;

  /// Structured JSON: {"name": ..., "cells": [{...}, ...]}.
  util::JsonValue ToJson() const;
};

/// Expands the configuration grid (deterministic order: distributions
/// outermost, then modes, n, k, alpha, r innermost).
std::vector<SweepPoint> GridPoints(const SweepConfig& config);

/// Stable human-readable key for a grid point, e.g.
/// "log-normal/star n=12 k=3 a=2 r=0.25". Doubles as the cell key prefix in
/// checkpoints and per-cell metric names.
std::string PointLabel(const SweepPoint& point);

/// RNG streams for one cell. `point_seed` drives the population draws (every
/// policy sees the same populations); `policy_seed` only feeds randomized
/// policies.
struct CellSeeds {
  uint64_t point_seed = 0;
  uint64_t policy_seed = 0;
};

/// Seeds for the cell at `cell_index` in grid order (point-major, policy
/// minor). The sweep's one cell loop (RunSweepShard, sweep_shard.h)
/// derives per-cell RNG streams from here and only here — grid position
/// in, seeds out, scheduling order never involved.
CellSeeds SeedsForCell(uint64_t config_seed, long long cell_index,
                       size_t num_policies);

/// Runs one (point, policy) cell: `runs` fresh seeded populations through
/// the α-round process. When `run_gains` is non-null the per-run total
/// gains are appended to it (the sweep checkpoint persists them alongside
/// the aggregates).
util::StatusOr<SweepCell> RunSweepCell(const SweepPoint& point,
                                       const std::string& policy_name,
                                       int runs, uint64_t point_seed,
                                       uint64_t policy_seed,
                                       std::vector<double>* run_gains =
                                           nullptr);

/// Runs the full sweep: every (point, policy) cell averaged over
/// `config.runs` seeded populations, parallelized over `config.threads`
/// worker threads. Deterministic for a fixed config regardless of thread
/// count — each cell derives its RNG streams from the config seed and the
/// cell's grid position, never from scheduling order. This is
/// RunSweepShard without a checkpoint (one shard, nothing persisted)
/// inside a `sweep/run` span.
util::StatusOr<SweepResult> RunSweep(const SweepConfig& config);

}  // namespace tdg::exp

#endif  // TDG_EXP_SWEEP_H_
