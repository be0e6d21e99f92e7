#!/usr/bin/env bash
# Sanitizer + configuration matrix for the tdg repo.
#
#   ci/check.sh            run the full matrix (asan, ubsan, tsan,
#                          bench-smoke, crash-resume, monitor, profile, soa,
#                          blackbox, serve, tracing, werror)
#   ci/check.sh asan       run one configuration
#
# Configurations:
#   asan     AddressSanitizer build, full ctest suite
#   ubsan    UndefinedBehaviorSanitizer build, full ctest suite
#   tsan     ThreadSanitizer build, concurrency-sensitive tests only
#            (ParallelFor, the parallel exact solvers, observability,
#            sweep — including the golden byte-stability test)
#   bench-smoke  plain build of every bench/ and examples/ binary (and
#            tdg_sweep_shard_child); each must reject --no_such_flag, the
#            examples' malformed flags (example_study_buddies --weeks=x,
#            example_quickstart --x, ...) must exit 1 rather than abort,
#            and bench_table_exact_solvers must reject --reps 3 and --reps=x;
#            bench_fig04_exp2 --csv must write both of its panels; then
#            runs two fast benches with --report_out, self-checks the
#            emitted tdg.bench_report.v2 artifacts, and diffs each report
#            against itself expecting a clean all-unchanged pass — the
#            end-to-end smoke test of the perf telemetry pipeline; last,
#            self-checks every committed tdg.bench_report.v2 file in
#            bench/reports/, so a schema change cannot orphan them
#   crash-resume  AddressSanitizer build with the fault-injection hooks
#            compiled in; runs the crash/torn-write/shard-planner/death
#            suites, then a CLI-level e2e: require a checkpointed
#            single-shard sweep to match an unpersisted one byte for byte,
#            require a sharded sweep without --checkpoint, an unknown flag
#            and an unwritable output to fail, kill a sweep shard mid-run
#            via TDG_TEST_CRASH_AFTER_CELLS, resume it, run the sibling
#            shard, tdg_sweepmerge the checkpoints,
#            and require the merged CSV/JSON to be byte-identical to an
#            uninterrupted run
#   monitor  live-monitoring e2e (DESIGN.md §9): run the monitoring test
#            suites under asan and tsan, then start a sweep with
#            --stats_port=0 --progress, curl /healthz /metrics /statusz
#            mid-run, poll tdg_sweepmerge --watch on its checkpoint until a
#            durable cell shows, require the --progress log to end at N/N,
#            and require the sweep outputs to be byte-identical to a
#            server-off run
#   profile  kernel-profiling e2e (DESIGN.md §10): run the perf-counter /
#            attribution / bench-report / perf-diff suites, record a
#            profiled bench with --profile, gate the artifact with
#            tdg_profile --check, repeat under the forced rusage fallback
#            (TDG_PERF_BACKEND=rusage must degrade cleanly, never fail),
#            require sweep outputs to be byte-identical with
#            profiling on vs off, and require an unprofiled sweep to
#            export no perf/ counter while a profiled one charges
#            core/skills/sort
#   soa      structure-of-arrays fast-path gate (DESIGN.md §11): runs the
#            differential-oracle, edge, summation-order, and golden suites
#            under ASan and UBSan (each also with the TDG_SIMD=off runtime
#            gate), rebuilds with -DTDG_SIMD=OFF to prove the forced-scalar
#            build is bit-identical to the goldens, then a bench smoke:
#            records a profiled bench_soa_kernels report and self-diffs it
#            with tdg_perfdiff on wall time and on an instruction counter,
#            falling back to task_clock_ns on hosts without a PMU
#   blackbox flight-recorder e2e (DESIGN.md §12): run the recorder /
#            span / record-ring / mmap / stats-server suites under tsan (the
#            rings are lock-free and the /blackboxz reader tails a file that
#            writers are still appending to); a clean leg: an unsharded
#            sweep with --blackbox whose `tdg_blackbox --trace` view must
#            parse as JSON with sweep/cell "X" spans and one sweep_cell_end
#            per cell; then a crash-dump e2e: kill a sweep shard mid-cell
#            via TDG_TEST_CRASH_AFTER_CELLS and again with a raw `kill -9`,
#            and require `tdg_blackbox` to decode a dump whose last
#            sweep_cell_end agrees with the checkpoint's last appended cell
#   serve    cohort-serving e2e (DESIGN.md §13): run the serving-plane
#            suites (cohort state machine, churn property battery, HTTP
#            request fuzz, journal replay, concurrency soak) under asan and
#            tsan, then a CLI e2e: start tdg_serve with a state dir, enroll
#            and churn a cohort over HTTP, `kill -9` the server mid-course,
#            restart it, require zero lost rounds, finish the schedule, and
#            require every served round to be byte-identical to an offline
#            replay — the batch RunProcess driver for the churn-free
#            schedule, a local serve::Cohort for the churny one — and the
#            unprofiled server's /metrics to carry no tdg_perf_ line; then, on
#            copies of the state dir, a corrupt durable journal line must
#            make tdg_serve exit 2 with the file untouched (and a torn tail
#            on a journal that sorts after it left untruncated), and a torn
#            enroll header must be removed with the other cohorts restored
#   tracing  request-tracing e2e (DESIGN.md §14): run the windowed-
#            histogram / request-context / tail-sampler / serve-telemetry
#            suites under asan (with the latency-injection hook compiled
#            in) and tsan, then a CLI e2e: start tdg_serve with a low
#            /slowz threshold, an injected slow advance
#            (TDG_TEST_SLOW_ADVANCE_MICROS), and --blackbox; drive
#            traffic; curl /tracez and /slowz mid-traffic and require the
#            slowed advance's per-phase breakdown (lock wait, journal
#            fsync, compute); check `tdg_servectl stats` renders the
#            rolling windows and /metrics exports the windowed p99; then
#            shut down and resolve a /tracez id to the same request's
#            records in the black-box dump via `tdg_blackbox --trace_id`
#   werror   plain RelWithDebInfo build of every target with
#            -DCMAKE_CXX_FLAGS=-Werror on the command line: the repo's
#            -Wall -Wextra warnings fail the build; then a Release (-O3)
#            build only, whose deeper inlining raises warnings (GCC 12's
#            -Wrestrict on string concatenation) that RelWithDebInfo does
#            not
#
# Build trees live under build-ci/<config> so they never disturb ./build.

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

configure_flags() {
  case "$1" in
    asan) echo "-DTDG_SANITIZE=address" ;;
    ubsan) echo "-DTDG_SANITIZE=undefined" ;;
    tsan) echo "-DTDG_SANITIZE=thread" ;;
    *)
      echo "unknown configuration '$1'" >&2
      exit 2
      ;;
  esac
}

# Every ctest call below passes --no-tests=error, so a -R filter that
# matches nothing (say, after a suite rename) fails its leg.
ctest_args() {
  case "$1" in
    # TSan is ~10x slower; run the suites that actually exercise
    # cross-thread interleavings. `Sweep` also pulls in the sharded
    # checkpoint writer (SweepShard/SweepCrash/SweepTornWrite), whose
    # mutex-guarded fsync'd appends race worker threads by design;
    # FileUtil covers the durable-append primitive underneath it.
    # The monitoring suites (Net accept loop, StatsServer scrape threads,
    # the sweep's progress line, SweepWatch over shard checkpoints) are in
    # the tsan net too, as are the SoA suites: sweeps drive the arena through
    # thread_local scratch and flip nothing but relaxed atomics on the SIMD
    # gate, which is exactly the kind of claim tsan should referee. The
    # Serve suites put a multi-worker HTTP server, per-cohort locks, and
    # journal appends under concurrent clients — the serving plane's whole
    # thread-safety story.
    tsan)
      echo "-R ParallelFor|Obs|Sweep|Logging|ParallelSolver|ParserFuzz|BranchBound|BruteForce|SimulatedAnnealing|FileUtil|Net|StatsServer|Prometheus|Progress|SweepWatch|Soa|Arena|SummationOrder|FlightRecorder|Blackbox|RecordRing|MmapFile|Serve|HttpRequest|RequestContext|Windowed|TailSampler|Zone"
      ;;
    crash-resume)
      echo "-R SweepShard|SweepCrash|SweepTornWrite|FileUtil|CheckDeathTest|LoggingDeathTest"
      ;;
    *) echo "" ;;
  esac
}

run_bench_smoke() {
  local build_dir="build-ci/bench-smoke"
  echo "==> [bench-smoke] configure"
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  local binaries=(tests/tdg_sweep_shard_child) source target
  for source in bench/bench_*.cc examples/*.cc; do
    target="$(basename "${source}" .cc)"
    # examples/CMakeLists.txt: the tdg_* tools keep their name, the other
    # examples (tdg_cli among them) get an example_ prefix.
    if [[ "${source}" == examples/* &&
          ( "${target}" != tdg_* || "${target}" == tdg_cli ) ]]; then
      target="example_${target}"
    fi
    binaries+=("$(dirname "${source}")/${target}")
  done
  echo "==> [bench-smoke] build"
  cmake --build "${build_dir}" -j "${JOBS}" \
    --target "${binaries[@]##*/}" >/dev/null
  echo "==> [bench-smoke] every binary rejects an undeclared flag"
  local binary
  for binary in "${binaries[@]}"; do
    if "${build_dir}/${binary}" --no_such_flag >/dev/null 2>&1; then
      echo "${binary} accepted --no_such_flag" >&2
      exit 1
    fi
  done
  echo "==> [bench-smoke] an example's bad flag is exit 1, not an abort"
  local args code
  for args in "example_study_buddies --weeks=x" "example_quickstart --x" \
      "example_amt_crowdsourcing --experiment=x" \
      "example_classroom_semester --r=x" "example_fairness_audit --n=x"; do
    code=0
    # shellcheck disable=SC2086
    "${build_dir}/examples/"${args} >/dev/null 2>&1 || code=$?
    if [[ "${code}" -ne 1 ]]; then
      echo "${args} exited ${code}, want 1" >&2
      exit 1
    fi
  done
  echo "==> [bench-smoke] a malformed value is an error, not the default"
  local reps
  for reps in "--reps 3" "--reps=x"; do
    # shellcheck disable=SC2086
    if "${build_dir}/bench/bench_table_exact_solvers" ${reps} \
        >/dev/null 2>&1; then
      echo "bench_table_exact_solvers accepted ${reps}" >&2
      exit 1
    fi
  done
  echo "==> [bench-smoke] --csv keeps every panel"
  local csv_dir="${build_dir}/csv"
  rm -rf "${csv_dir}"
  mkdir -p "${csv_dir}"
  "${build_dir}/bench/bench_fig04_exp2" --csv="${csv_dir}/fig04.csv" \
    >/dev/null
  # Fig 4(a) has rounds 0-2, Fig 4(b) rounds 1-2: a header plus 3 and 2 rows.
  if [[ "$(wc -l < "${csv_dir}/fig04_a.csv")" -ne 4 ||
        "$(wc -l < "${csv_dir}/fig04_b.csv")" -ne 3 ]]; then
    echo "bench_fig04_exp2 --csv did not write both panels" >&2
    exit 1
  fi
  echo "==> [bench-smoke] run benches with --report_out"
  local reports_dir="${build_dir}/reports"
  mkdir -p "${reports_dir}"
  "${build_dir}/bench/bench_table_toy_example" \
    --report_out="${reports_dir}/BENCH_toy_example.json" >/dev/null
  "${build_dir}/bench/bench_table_rate_one" \
    --report_out="${reports_dir}/BENCH_rate_one.json" >/dev/null
  echo "==> [bench-smoke] self-check report schemas"
  "${build_dir}/examples/tdg_perfdiff" \
    --self-check="${reports_dir}/BENCH_toy_example.json"
  "${build_dir}/examples/tdg_perfdiff" \
    --self-check="${reports_dir}/BENCH_rate_one.json"
  echo "==> [bench-smoke] self-diff must pass clean"
  for report in BENCH_toy_example BENCH_rate_one; do
    "${build_dir}/examples/tdg_perfdiff" \
      --baseline="${reports_dir}/${report}.json" \
      --candidate="${reports_dir}/${report}.json" \
      --json_out="${reports_dir}/${report}_selfdiff.json"
    if ! grep -q '"verdict": "pass"' \
        "${reports_dir}/${report}_selfdiff.json"; then
      echo "self-diff of ${report} did not report a pass verdict" >&2
      exit 1
    fi
  done
  echo "==> [bench-smoke] self-check every committed bench report"
  local committed=0
  for report in bench/reports/*.json; do
    grep -q '"schema": "tdg.bench_report.v2"' "${report}" || continue
    "${build_dir}/examples/tdg_perfdiff" --self-check="${report}"
    committed=$((committed + 1))
  done
  if [[ "${committed}" -eq 0 ]]; then
    echo "no committed tdg.bench_report.v2 file in bench/reports/" >&2
    exit 1
  fi
  echo "==> [bench-smoke] OK"
}

run_crash_resume() {
  local build_dir="build-ci/crash-resume"
  echo "==> [crash-resume] configure"
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTDG_SANITIZE=address -DTDG_TEST_HOOKS=ON >/dev/null
  echo "==> [crash-resume] build"
  cmake --build "${build_dir}" -j "${JOBS}" \
    --target tdg_tests tdg_sweep_shard_child example_tdg_cli tdg_sweepmerge \
    >/dev/null
  echo "==> [crash-resume] fault-injection suites"
  # shellcheck disable=SC2046
  (cd "${build_dir}" && ctest --output-on-failure -j "${JOBS}" \
    --no-tests=error $(ctest_args crash-resume))

  echo "==> [crash-resume] CLI crash / resume / merge e2e"
  local work="${build_dir}/e2e"
  rm -rf "${work}"
  mkdir -p "${work}"
  # --no_metrics keeps mean_micros deterministically zero so the merged
  # output can be byte-compared against the uninterrupted run.
  cat > "${work}/sweep.cfg" <<'EOF'
name = ci-crash-resume
policies = DyGroups-Star, Random-Assignment
n = 12, 24
k = 3
alpha = 2
r = 0.25, 0.5
mode = star, clique
distribution = log-normal
runs = 2
seed = 7
threads = 2
EOF
  local cli="${build_dir}/examples/example_tdg_cli"
  local merge="${build_dir}/examples/tdg_sweepmerge"

  "${cli}" sweep --config="${work}/sweep.cfg" --no_metrics \
    --csv="${work}/mono.csv" --json="${work}/mono.json" >/dev/null

  # A checkpointed single-shard sweep runs the same cell loop as the
  # unpersisted one above, so its outputs must be the same bytes.
  "${cli}" sweep --config="${work}/sweep.cfg" --no_metrics \
    --checkpoint="${work}/mono.ckpt" \
    --csv="${work}/mono_ckpt.csv" --json="${work}/mono_ckpt.json" >/dev/null
  cmp "${work}/mono.csv" "${work}/mono_ckpt.csv"
  cmp "${work}/mono.json" "${work}/mono_ckpt.json"
  # A shard without a checkpoint could never be merged: refused.
  if "${cli}" sweep --config="${work}/sweep.cfg" --no_metrics \
    --shard_count=2 >/dev/null 2>&1; then
    echo "sweep --shard_count=2 without --checkpoint should fail" >&2
    exit 1
  fi
  # A mistyped or removed flag is an error, not an ignored flag (here: an
  # unpersisted run that writes no y.ckpt).
  for flag in --chekpoint="${work}/y.ckpt" --heartbeat; do
    if "${cli}" sweep --config="${work}/sweep.cfg" --no_metrics "${flag}" \
      >/dev/null 2>&1; then
      echo "sweep ${flag} should fail" >&2
      exit 1
    fi
  done
  # An output that cannot be written is an error, not "wrote <path>".
  for out in --json=/dev/full --csv=/dev/full; do
    if "${cli}" sweep --config="${work}/sweep.cfg" --no_metrics "${out}" \
      >/dev/null 2>&1; then
      echo "sweep ${out} should fail" >&2
      exit 1
    fi
    if "${merge}" "${out}" "${work}/mono.ckpt" >/dev/null 2>&1; then
      echo "tdg_sweepmerge ${out} should fail" >&2
      exit 1
    fi
  done

  # Shard 0 of 2 is killed by the fault hook after two cells (exit 42 =
  # kCrashHookExitCode), then resumed to completion.
  local status=0
  TDG_TEST_CRASH_AFTER_CELLS=2 "${cli}" sweep \
    --config="${work}/sweep.cfg" --no_metrics \
    --checkpoint="${work}/shard0.ckpt" --shard_index=0 --shard_count=2 \
    >/dev/null || status=$?
  if [[ "${status}" -ne 42 ]]; then
    echo "fault hook should have exited 42, got ${status}" >&2
    exit 1
  fi
  "${cli}" sweep --config="${work}/sweep.cfg" --no_metrics \
    --checkpoint="${work}/shard0.ckpt" --shard_index=0 --shard_count=2 \
    --resume >/dev/null
  "${cli}" sweep --config="${work}/sweep.cfg" --no_metrics \
    --checkpoint="${work}/shard1.ckpt" --shard_index=1 --shard_count=2 \
    >/dev/null
  "${merge}" --csv="${work}/merged.csv" --json="${work}/merged.json" \
    "${work}/shard0.ckpt" "${work}/shard1.ckpt" >/dev/null

  cmp "${work}/mono.csv" "${work}/merged.csv"
  cmp "${work}/mono.json" "${work}/merged.json"
  echo "==> [crash-resume] OK"
}

run_monitor() {
  local build_dir="build-ci/monitor"
  echo "==> [monitor] configure (asan)"
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTDG_SANITIZE=address >/dev/null
  echo "==> [monitor] build"
  cmake --build "${build_dir}" -j "${JOBS}" \
    --target tdg_tests tdg_sweep_shard_child example_tdg_cli tdg_sweepmerge \
    >/dev/null
  echo "==> [monitor] monitoring suites (asan)"
  (cd "${build_dir}" && ctest --output-on-failure -j "${JOBS}" \
    --no-tests=error -R "Net|StatsServer|Prometheus|Progress|SweepWatch")
  echo "==> [monitor] monitoring suites (tsan)"
  local tsan_dir="build-ci/monitor-tsan"
  cmake -B "${tsan_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTDG_SANITIZE=thread >/dev/null
  cmake --build "${tsan_dir}" -j "${JOBS}" \
    --target tdg_tests tdg_sweep_shard_child >/dev/null
  (cd "${tsan_dir}" && ctest --output-on-failure -j "${JOBS}" \
    --no-tests=error -R "Net|StatsServer|Prometheus|Progress|SweepWatch")

  echo "==> [monitor] live-scrape e2e"
  command -v curl >/dev/null || { echo "curl not found" >&2; exit 1; }
  local work="${build_dir}/e2e"
  rm -rf "${work}"
  mkdir -p "${work}"
  # Heavy enough (seconds, not milliseconds, even unsanitized) that the
  # sweep is still mid-run when the scrapes land; the server binds and
  # writes the port file before the first cell starts.
  cat > "${work}/sweep.cfg" <<'EOF'
name = ci-monitor
policies = DyGroups-Star, Random-Assignment
n = 96, 192
k = 3
alpha = 2
r = 0.25, 0.5
mode = star, clique
distribution = log-normal
runs = 20000
seed = 7
threads = 2
EOF
  local cli="${build_dir}/examples/example_tdg_cli"
  local merge="${build_dir}/examples/tdg_sweepmerge"

  # Reference: monitoring fully off. --no_metrics keeps mean_micros
  # deterministically zero so the outputs can be byte-compared.
  "${cli}" sweep --config="${work}/sweep.cfg" --no_metrics \
    --checkpoint="${work}/off.ckpt" \
    --csv="${work}/off.csv" --json="${work}/off.json" >/dev/null

  # Live run: stats server on an ephemeral port + stderr progress,
  # scraped from outside while cells execute.
  "${cli}" sweep --config="${work}/sweep.cfg" --no_metrics \
    --checkpoint="${work}/on.ckpt" \
    --csv="${work}/on.csv" --json="${work}/on.json" \
    --stats_port=0 --stats_port_file="${work}/stats.port" \
    --progress >/dev/null 2>"${work}/progress.log" &
  local sweep_pid=$!

  local port=""
  for _ in $(seq 1 100); do
    [[ -s "${work}/stats.port" ]] && { port="$(cat "${work}/stats.port")"; break; }
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "stats server never wrote its port file" >&2
    kill "${sweep_pid}" 2>/dev/null || true
    exit 1
  fi

  local base="http://127.0.0.1:${port}"
  [[ "$(curl -sf "${base}/healthz")" == "ok" ]] || {
    echo "/healthz did not answer ok" >&2; exit 1; }
  curl -sf "${base}/metrics" > "${work}/metrics.prom"
  grep -q '^tdg_build_info{' "${work}/metrics.prom"
  grep -q '^# TYPE tdg_' "${work}/metrics.prom"
  grep -q '^tdg_process_uptime_seconds ' "${work}/metrics.prom"
  curl -sf "${base}/statusz" | grep -q 'tdg.run_manifest.v1'
  # Mid-run progress is the checkpoint's durable cell count: poll the watch
  # until at least one cell record shows. A sanitized cell can take
  # seconds, so staleness gets a generous bound.
  local saw_progress=0
  for _ in $(seq 1 100); do
    "${merge}" --watch --watch_iterations=1 --stale_after_ms=600000 \
      "${work}/on.ckpt" > "${work}/watch_mid.txt" || break
    if grep -Eq '^fleet: [1-9][0-9]*/' "${work}/watch_mid.txt"; then
      saw_progress=1
      break
    fi
    sleep 0.1
  done
  if [[ "${saw_progress}" -ne 1 ]]; then
    echo "tdg_sweepmerge --watch never showed a durable cell mid-run" >&2
    kill "${sweep_pid}" 2>/dev/null || true
    exit 1
  fi
  grep -Eq 'running|done' "${work}/watch_mid.txt"

  wait "${sweep_pid}"
  # The \r-updated --progress line ends at N/N cells.
  local last_line
  last_line="$(tr '\r' '\n' < "${work}/progress.log" | grep 'cells (' | tail -1)"
  if ! [[ "${last_line}" =~ ([0-9]+)/([0-9]+)\ cells ]] ||
    [[ "${BASH_REMATCH[1]}" != "${BASH_REMATCH[2]}" ]]; then
    echo "--progress did not end at N/N cells: ${last_line}" >&2
    exit 1
  fi
  # After completion every owned cell is durable: done, and --watch exits 0.
  "${merge}" --watch --stale_after_ms=600000 "${work}/on.ckpt" \
    > "${work}/watch_done.txt"
  grep -q 'done' "${work}/watch_done.txt"

  echo "==> [monitor] outputs byte-identical with the server on"
  cmp "${work}/off.csv" "${work}/on.csv"
  cmp "${work}/off.json" "${work}/on.json"
  echo "==> [monitor] OK"
}

run_profile() {
  local build_dir="build-ci/profile"
  echo "==> [profile] configure"
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "==> [profile] build"
  cmake --build "${build_dir}" -j "${JOBS}" \
    --target tdg_tests bench_fig12_runtime_star tdg_profile tdg_perfdiff \
    example_tdg_cli >/dev/null
  echo "==> [profile] profiling suites"
  (cd "${build_dir}" && ctest --output-on-failure -j "${JOBS}" \
    --no-tests=error -R "PerfCounters|PerfProfile|Zone|BenchReport|ScopedBenchRep|PerfDiff|Prometheus")

  echo "==> [profile] profiled bench + attribution gate"
  local work="${build_dir}/e2e"
  rm -rf "${work}"
  mkdir -p "${work}"
  local bench="${build_dir}/bench/bench_fig12_runtime_star"
  local filter='vary_n/star/DyGroups-Star/n=1000/'
  "${bench}" --profile --report_out="${work}/profiled.json" \
    --benchmark_filter="${filter}" >/dev/null
  # The attributed self-time share can never exceed the per-rep totals; the
  # tool picks the right basis (cycles vs task-clock) for the host backend.
  "${build_dir}/examples/tdg_profile" --report="${work}/profiled.json" --check
  # A profiled v2 artifact still diffs cleanly against itself, both on wall
  # time and on a recorded counter metric.
  "${build_dir}/examples/tdg_perfdiff" \
    --baseline="${work}/profiled.json" --candidate="${work}/profiled.json"
  "${build_dir}/examples/tdg_perfdiff" --metric=task_clock_ns \
    --baseline="${work}/profiled.json" --candidate="${work}/profiled.json"

  echo "==> [profile] forced rusage fallback degrades cleanly"
  TDG_PERF_BACKEND=rusage "${bench}" --profile \
    --report_out="${work}/rusage.json" --benchmark_filter="${filter}" \
    >/dev/null
  TDG_PERF_BACKEND=rusage "${build_dir}/examples/tdg_profile" \
    --report="${work}/rusage.json" --check > "${work}/rusage.txt"
  grep -q 'backend rusage' "${work}/rusage.txt"
  grep -q 'task-clock' "${work}/rusage.txt"

  echo "==> [profile] sweep outputs byte-identical with profiling on"
  cat > "${work}/sweep.cfg" <<'EOF'
name = ci-profile
policies = DyGroups-Star, Random-Assignment
n = 12, 24
k = 3
alpha = 2
r = 0.25, 0.5
mode = star, clique
distribution = log-normal
runs = 2
seed = 7
threads = 2
EOF
  local cli="${build_dir}/examples/example_tdg_cli"
  # --no_metrics keeps mean_micros deterministically zero so the outputs
  # can be byte-compared; --profile must not perturb any result.
  "${cli}" sweep --config="${work}/sweep.cfg" --no_metrics \
    --csv="${work}/plain.csv" --json="${work}/plain.json" >/dev/null
  "${cli}" sweep --config="${work}/sweep.cfg" --no_metrics --profile \
    --csv="${work}/prof.csv" --json="${work}/prof.json" >/dev/null
  cmp "${work}/plain.csv" "${work}/prof.csv"
  cmp "${work}/plain.json" "${work}/prof.json"

  echo "==> [profile] only profiled processes export perf counters"
  # A zone registers its domain's counters on its first profiled entry
  # (obs/zone.h), so a fresh unprofiled sweep exports no perf/ key at all.
  "${cli}" sweep --config="${work}/sweep.cfg" \
    --metrics_out="${work}/plain_metrics.json" >/dev/null
  if grep -q '"perf/' "${work}/plain_metrics.json"; then
    echo "an unprofiled sweep exported perf/ counters" >&2; exit 1
  fi
  "${cli}" sweep --config="${work}/sweep.cfg" --profile \
    --metrics_out="${work}/prof_metrics.json" >/dev/null
  grep -Eq '"perf/core/skills/sort/calls": *[1-9]' \
    "${work}/prof_metrics.json"
  echo "==> [profile] OK"
}

run_soa() {
  # Every suite that pins the SoA fast path: the AoS-vs-SoA differential
  # oracle, alignment/aliasing/shape edge cases, the summation-order pins,
  # the byte-identical sweep goldens + execution-path invariance, and the
  # served cohort rounds golden (served rounds run the fused kernel too).
  local filter='Soa|Arena|SummationOrder|SortEdge|SimdRemainder|SimdDispatch|DyGroupsRoundEdge|GroupRoundMembersEdge|SweepGolden|ServeCohortGolden|Invariance'

  for san in address undefined; do
    local build_dir="build-ci/soa-${san}"
    echo "==> [soa/${san}] configure"
    cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DTDG_SANITIZE="${san}" >/dev/null
    echo "==> [soa/${san}] build"
    cmake --build "${build_dir}" -j "${JOBS}" --target tdg_tests >/dev/null
    echo "==> [soa/${san}] SoA suites"
    (cd "${build_dir}" && ctest --output-on-failure -j "${JOBS}" \
      --no-tests=error -R "${filter}")
    echo "==> [soa/${san}] SoA suites with the TDG_SIMD=off runtime gate"
    (cd "${build_dir}" && TDG_SIMD=off ctest --output-on-failure \
      --no-tests=error -j "${JOBS}" -R "${filter}")
  done

  local scalar_dir="build-ci/soa-scalar"
  echo "==> [soa/scalar] configure (-DTDG_SIMD=OFF)"
  cmake -B "${scalar_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTDG_SIMD=OFF >/dev/null
  echo "==> [soa/scalar] build"
  cmake --build "${scalar_dir}" -j "${JOBS}" --target tdg_tests >/dev/null
  echo "==> [soa/scalar] forced-scalar build must still match the goldens"
  (cd "${scalar_dir}" && ctest --output-on-failure -j "${JOBS}" \
    --no-tests=error -R "${filter}")

  echo "==> [soa/bench] build bench_soa_kernels + tdg_perfdiff"
  local bench_dir="build-ci/soa-bench"
  cmake -B "${bench_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "${bench_dir}" -j "${JOBS}" \
    --target bench_soa_kernels tdg_perfdiff >/dev/null
  local reports_dir="${bench_dir}/reports"
  mkdir -p "${reports_dir}"
  echo "==> [soa/bench] record a profiled SoA report"
  "${bench_dir}/bench/bench_soa_kernels" --path=soa --profile \
    --report_out="${reports_dir}/soa.json" >/dev/null
  "${bench_dir}/examples/tdg_perfdiff" \
    --self-check="${reports_dir}/soa.json"
  echo "==> [soa/bench] self-diff must pass on wall and a counter metric"
  "${bench_dir}/examples/tdg_perfdiff" \
    --baseline="${reports_dir}/soa.json" \
    --candidate="${reports_dir}/soa.json"
  # Instruction counts are the preferred noise-free metric; containers and
  # VMs frequently expose no PMU, where task-clock is the counter that is
  # always recorded.
  local counter_metric="task_clock_ns"
  if grep -q '"perf/total/instructions"' "${reports_dir}/soa.json"; then
    counter_metric="instructions"
  fi
  "${bench_dir}/examples/tdg_perfdiff" --metric="${counter_metric}" \
    --baseline="${reports_dir}/soa.json" \
    --candidate="${reports_dir}/soa.json"
  echo "==> [soa] OK"
}

run_blackbox() {
  # TSan referees the flight recorder's lock-free plane: relaxed-atomic
  # ring cursors, cross-thread slot claims, and the /blackboxz endpoint
  # tailing a dump file that writer threads are still appending to.
  local tsan_dir="build-ci/blackbox-tsan"
  echo "==> [blackbox] configure (tsan)"
  cmake -B "${tsan_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTDG_SANITIZE=thread -DTDG_TEST_HOOKS=ON >/dev/null
  echo "==> [blackbox] build (tsan)"
  cmake --build "${tsan_dir}" -j "${JOBS}" \
    --target tdg_tests tdg_sweep_shard_child >/dev/null
  echo "==> [blackbox] ring-buffer / recorder / server suites (tsan)"
  (cd "${tsan_dir}" && ctest --output-on-failure -j "${JOBS}" \
    --no-tests=error -R "FlightRecorder|Blackbox|RecordRing|MmapFile|StatsServer|ObsThreading|ObsDeterminism")

  echo "==> [blackbox] crash-dump e2e"
  local build_dir="build-ci/blackbox"
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTDG_TEST_HOOKS=ON >/dev/null
  cmake --build "${build_dir}" -j "${JOBS}" \
    --target example_tdg_cli tdg_blackbox >/dev/null
  local work="${build_dir}/e2e"
  rm -rf "${work}"
  mkdir -p "${work}"
  # threads = 1 makes cell completion sequential, so the dump's last
  # sweep_cell_end must name exactly the checkpoint's last appended cell —
  # the crash-cut contract (the event is recorded after the checkpoint
  # append, before the fault hook can fire).
  cat > "${work}/sweep.cfg" <<'EOF'
name = ci-blackbox
policies = DyGroups-Star, Random-Assignment
n = 12, 24
k = 3
alpha = 2
r = 0.25, 0.5
mode = star, clique
distribution = log-normal
runs = 2
seed = 7
threads = 1
EOF
  local cli="${build_dir}/examples/example_tdg_cli"
  local decode="${build_dir}/examples/tdg_blackbox"

  echo "==> [blackbox] clean sweep renders as a Chrome trace"
  # No checkpoint: the unsharded RunSweep runs, and its spans and cell
  # events reach the trace view from the one dump.
  "${cli}" sweep --config="${work}/sweep.cfg" --no_metrics \
    --csv="${work}/clean.csv" --blackbox="${work}/clean.blackbox" >/dev/null
  "${decode}" --trace="${work}/clean.trace.json" "${work}/clean.blackbox"
  python3 - "${work}/clean.trace.json" "${work}/clean.csv" <<'PY'
import csv, json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
cells = len(list(csv.DictReader(open(sys.argv[2]))))
spans = [e for e in events if e["ph"] == "X" and e["name"] == "sweep/cell"]
ends = [e for e in events if e["args"].get("event") == "sweep_cell_end"]
if not spans:
    sys.exit("trace has no sweep/cell X event")
if len(ends) != cells:
    sys.exit(f"trace has {len(ends)} sweep_cell_end events for {cells} cells")
PY

  local status=0
  TDG_TEST_CRASH_AFTER_CELLS=3 "${cli}" sweep \
    --config="${work}/sweep.cfg" --no_metrics \
    --checkpoint="${work}/shard.ckpt" --blackbox \
    >/dev/null || status=$?
  if [[ "${status}" -ne 42 ]]; then
    echo "fault hook should have exited 42, got ${status}" >&2
    exit 1
  fi
  "${decode}" "${work}/shard.ckpt.blackbox" > "${work}/summary.txt"
  grep -q 'CRASH' "${work}/summary.txt"
  "${decode}" --jsonl "${work}/shard.ckpt.blackbox" > "${work}/events.jsonl"
  local last_bb last_ckpt
  last_bb="$(grep '"event":"sweep_cell_end"' "${work}/events.jsonl" \
    | tail -n 1 | sed -E 's/.*"cell_index":([0-9]+).*/\1/')"
  last_ckpt="$(grep '"cell_index"' "${work}/shard.ckpt" \
    | tail -n 1 | sed -E 's/.*"cell_index":([0-9]+).*/\1/')"
  if [[ -z "${last_bb}" || "${last_bb}" != "${last_ckpt}" ]]; then
    echo "blackbox last sweep_cell_end (${last_bb:-none}) does not match" \
      "checkpoint last cell (${last_ckpt:-none})" >&2
    exit 1
  fi

  echo "==> [blackbox] kill -9 still leaves a decodable dump"
  # No fault hook this time: SIGKILL gives the process no chance to run any
  # handler, so this only passes because the MAP_SHARED stores are already
  # in the page cache. Cells are heavy per *run* (large n, few runs) so the
  # event rate is low: a cell's sweep_cell_end stays in the 1024-record
  # ring for hundreds of milliseconds before later events evict it, and
  # the kill below lands well inside that window.
  cat > "${work}/kill.cfg" <<'EOF'
name = ci-blackbox-kill
policies = DyGroups-Star, Random-Assignment
n = 16386
k = 3
alpha = 2
r = 0.25, 0.5
mode = star, clique
distribution = log-normal
runs = 200
seed = 7
threads = 1
EOF
  "${cli}" sweep --config="${work}/kill.cfg" --no_metrics \
    --checkpoint="${work}/kill.ckpt" --blackbox >/dev/null 2>&1 &
  local sweep_pid=$!
  # Kill without warning as soon as the first cell has been checkpointed
  # (and therefore its sweep_cell_end recorded).
  local saw_cell=0
  for _ in $(seq 1 400); do
    if grep -q '"cell_index"' "${work}/kill.ckpt" 2>/dev/null; then
      saw_cell=1
      break
    fi
    sleep 0.05
  done
  if [[ "${saw_cell}" -ne 1 ]]; then
    echo "sweep never checkpointed a cell before the kill window" >&2
    kill "${sweep_pid}" 2>/dev/null || true
    exit 1
  fi
  kill -9 "${sweep_pid}"
  wait "${sweep_pid}" 2>/dev/null || true
  "${decode}" "${work}/kill.ckpt.blackbox" > "${work}/kill_summary.txt"
  grep -q 'CRASH' "${work}/kill_summary.txt"
  # The SIGKILL can land between a checkpoint append and the next one, so
  # assert containment rather than exact-last: the newest sweep_cell_end
  # in the dump must be a cell the checkpoint also committed.
  local kill_bb
  kill_bb="$("${decode}" --jsonl "${work}/kill.ckpt.blackbox" \
    | grep '"event":"sweep_cell_end"' | tail -n 1 \
    | sed -E 's/.*"cell_index":([0-9]+).*/\1/')"
  if [[ -z "${kill_bb}" ]]; then
    echo "kill -9 dump contains no sweep_cell_end event" >&2
    exit 1
  fi
  if ! grep -q "\"cell_index\":${kill_bb}," "${work}/kill.ckpt"; then
    echo "dump's last sweep_cell_end (${kill_bb}) is not in the checkpoint" >&2
    exit 1
  fi
  echo "==> [blackbox] OK"
}

run_serve() {
  # The serving plane's whole battery runs under both sanitizers: asan for
  # the parser/journal memory story, tsan for the worker pool + per-cohort
  # locks + concurrent scrapes.
  local filter='Serve|HttpRequest|Net|StatsServer'
  local asan_dir="build-ci/serve"
  echo "==> [serve] configure (asan)"
  cmake -B "${asan_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTDG_SANITIZE=address >/dev/null
  echo "==> [serve] build (asan)"
  cmake --build "${asan_dir}" -j "${JOBS}" \
    --target tdg_tests tdg_serve tdg_servectl >/dev/null
  echo "==> [serve] serving suites (asan)"
  (cd "${asan_dir}" && ctest --output-on-failure -j "${JOBS}" \
    --no-tests=error -R "${filter}")
  echo "==> [serve] serving suites (tsan)"
  local tsan_dir="build-ci/serve-tsan"
  cmake -B "${tsan_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTDG_SANITIZE=thread >/dev/null
  cmake --build "${tsan_dir}" -j "${JOBS}" --target tdg_tests >/dev/null
  (cd "${tsan_dir}" && ctest --output-on-failure -j "${JOBS}" \
    --no-tests=error -R "${filter}")

  echo "==> [serve] cohort-serving e2e (enroll / churn / kill -9 / restart)"
  local work="${asan_dir}/e2e"
  rm -rf "${work}"
  mkdir -p "${work}"
  local serve="${asan_dir}/examples/tdg_serve"
  local ctl="${asan_dir}/examples/tdg_servectl"

  # Churn-free and evenly divisible: the served rounds must be
  # byte-identical to the batch core::RunProcess driver on the same
  # population (the serving plane's offline-auditability contract). The
  # key written "p\\5" in JSON is p, backslash, 5, so the cmp also checks
  # the streaming writer's escaping over a real socket.
  cat > "${work}/steady.json" <<'EOF'
{
  "id": "steady",
  "config": {"group_size": 3, "policy": "star", "mode": "star",
             "learning_rate": 0.25, "seed": 5},
  "participants": [
    {"key": "p0", "skill": 1.0}, {"key": "p1", "skill": 1.4},
    {"key": "p2", "skill": 1.8}, {"key": "p3", "skill": 2.2},
    {"key": "p4", "skill": 2.6}, {"key": "p\\5", "skill": 3.0},
    {"key": "p6", "skill": 3.4}, {"key": "p7", "skill": 3.8},
    {"key": "p8", "skill": 4.2}, {"key": "p9", "skill": 4.6},
    {"key": "p10", "skill": 5.0}, {"key": "p11", "skill": 5.4}
  ],
  "ops": [
    {"op": "advance"}, {"op": "advance"}, {"op": "advance"},
    {"op": "advance"}, {"op": "advance"}, {"op": "advance"}
  ]
}
EOF
  # The same contract for the round-robin layout in clique mode.
  cat > "${work}/steady_clique.json" <<'EOF'
{
  "id": "steady-clique",
  "config": {"group_size": 4, "policy": "clique", "mode": "clique",
             "learning_rate": 0.3, "seed": 7},
  "participants": [
    {"key": "q0", "skill": 1.2}, {"key": "q1", "skill": 4.1},
    {"key": "q2", "skill": 2.7}, {"key": "q3", "skill": 0.9},
    {"key": "q4", "skill": 3.3}, {"key": "q5", "skill": 5.6},
    {"key": "q6", "skill": 2.7}, {"key": "q7", "skill": 1.8},
    {"key": "q8", "skill": 4.9}, {"key": "q9", "skill": 3.0},
    {"key": "q10", "skill": 0.6}, {"key": "q11", "skill": 2.2}
  ],
  "ops": [
    {"op": "advance"}, {"op": "advance"}, {"op": "advance"},
    {"op": "advance"}, {"op": "advance"}
  ]
}
EOF
  # Random policy + mid-course join/leave: exercises the RNG stream and the
  # churn path; audited against a local serve::Cohort replay. The first
  # five ops (three rounds) run before the kill -9.
  cat > "${work}/churn.json" <<'EOF'
{
  "id": "churn",
  "config": {"group_size": 3, "policy": "random", "mode": "clique",
             "learning_rate": 0.3, "seed": 11},
  "participants": [
    {"key": "c0", "skill": 0.8}, {"key": "c1", "skill": 1.1},
    {"key": "c2", "skill": 1.9}, {"key": "c3", "skill": 2.4},
    {"key": "c4", "skill": 2.9}, {"key": "c5", "skill": 3.3},
    {"key": "c6", "skill": 3.7}, {"key": "c7", "skill": 4.1},
    {"key": "c8", "skill": 4.8}
  ],
  "ops": [
    {"op": "advance"},
    {"op": "join", "key": "late-1", "skill": 2.5},
    {"op": "advance"},
    {"op": "leave", "key": "c3"},
    {"op": "advance"},
    {"op": "join", "key": "late-2", "skill": 0.75},
    {"op": "advance"},
    {"op": "advance"}
  ]
}
EOF

  "${serve}" --state_dir="${work}/state" --port_file="${work}/port1" \
    > "${work}/serve1.log" 2>&1 &
  local serve_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    [[ -s "${work}/port1" ]] && { port="$(cat "${work}/port1")"; break; }
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "tdg_serve never wrote its port file" >&2
    kill "${serve_pid}" 2>/dev/null || true
    exit 1
  fi

  echo "==> [serve] steady schedule: served == batch RunProcess"
  "${ctl}" run --port="${port}" --schedule="${work}/steady.json"
  "${ctl}" dump --port="${port}" --id=steady > "${work}/served_steady.jsonl"
  "${ctl}" offline --schedule="${work}/steady.json" --via=process \
    > "${work}/offline_steady.jsonl"
  cmp "${work}/served_steady.jsonl" "${work}/offline_steady.jsonl"
  # Cross-check the two offline drivers against each other too.
  "${ctl}" offline --schedule="${work}/steady.json" --via=cohort \
    > "${work}/offline_steady_cohort.jsonl"
  cmp "${work}/offline_steady.jsonl" "${work}/offline_steady_cohort.jsonl"
  echo "==> [serve] steady clique schedule: served == batch RunProcess"
  "${ctl}" run --port="${port}" --schedule="${work}/steady_clique.json"
  "${ctl}" dump --port="${port}" --id=steady-clique \
    > "${work}/served_steady_clique.jsonl"
  "${ctl}" offline --schedule="${work}/steady_clique.json" --via=process \
    > "${work}/offline_steady_clique.jsonl"
  cmp "${work}/served_steady_clique.jsonl" \
    "${work}/offline_steady_clique.jsonl"

  echo "==> [serve] churn schedule, first leg, then kill -9"
  "${ctl}" run --port="${port}" --schedule="${work}/churn.json" --to=5
  "${ctl}" dump --port="${port}" --id=churn > "${work}/pre_kill.jsonl"
  [[ "$(wc -l < "${work}/pre_kill.jsonl")" -eq 3 ]] || {
    echo "expected 3 rounds before the kill" >&2; exit 1; }
  kill -9 "${serve_pid}"
  wait "${serve_pid}" 2>/dev/null || true

  echo "==> [serve] restart: zero lost rounds, then finish the schedule"
  "${serve}" --state_dir="${work}/state" --port_file="${work}/port2" \
    > "${work}/serve2.log" 2>&1 &
  serve_pid=$!
  port=""
  for _ in $(seq 1 100); do
    [[ -s "${work}/port2" ]] && { port="$(cat "${work}/port2")"; break; }
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "restarted tdg_serve never wrote its port file" >&2
    kill "${serve_pid}" 2>/dev/null || true
    exit 1
  fi
  grep -q '3 cohorts restored' "${work}/serve2.log"
  "${ctl}" dump --port="${port}" --id=churn > "${work}/post_restart.jsonl"
  cmp "${work}/pre_kill.jsonl" "${work}/post_restart.jsonl"
  "${ctl}" run --port="${port}" --schedule="${work}/churn.json" --from=5
  "${ctl}" dump --port="${port}" --id=churn > "${work}/served_churn.jsonl"
  "${ctl}" offline --schedule="${work}/churn.json" --via=cohort \
    > "${work}/offline_churn.jsonl"
  cmp "${work}/served_churn.jsonl" "${work}/offline_churn.jsonl"
  # The steady cohort's journal survived the kill too.
  "${ctl}" dump --port="${port}" --id=steady \
    > "${work}/served_steady_restarted.jsonl"
  cmp "${work}/served_steady.jsonl" "${work}/served_steady_restarted.jsonl"
  # Every advance above crossed the round zones, but nothing profiled: the
  # live scrape must carry no perf counter.
  curl -sf "http://127.0.0.1:${port}/metrics" > "${work}/metrics.prom"
  grep -q '^# TYPE tdg_' "${work}/metrics.prom"
  if grep -q 'tdg_perf_' "${work}/metrics.prom"; then
    echo "an unprofiled tdg_serve exported tdg_perf_ lines" >&2; exit 1
  fi

  kill "${serve_pid}"
  wait "${serve_pid}" || {
    echo "tdg_serve did not shut down cleanly" >&2; exit 1; }

  # The torn-tail rule (util/file_util.h) on the served state, each leg on
  # its own copy of the state dir.
  echo "==> [serve] a corrupt durable journal line: exit 2, file untouched"
  rm -rf "${work}/corrupt"
  cp -r "${work}/state" "${work}/corrupt"
  local corrupt_journal="${work}/corrupt/churn.cohort"
  # The final '}' becomes 'x' and the newline stays: an acknowledged op
  # gone bad, which no torn append can produce.
  sed -i '$ s/}$/x/' "${corrupt_journal}"
  if cmp -s "${corrupt_journal}" "${work}/state/churn.cohort"; then
    echo "failed to corrupt the churn journal" >&2; exit 1
  fi
  cp "${corrupt_journal}" "${work}/corrupt_churn.expected"
  # A torn tail on a journal that sorts after the corrupt one: Open stops
  # at the first bad journal in name order, so this one must not be
  # truncated, although its replay may run in parallel with churn's.
  local torn_steady="${work}/corrupt/steady.cohort"
  printf '{"op":"adv' >> "${torn_steady}"
  cp "${torn_steady}" "${work}/corrupt_steady.expected"
  local status=0
  timeout 30 "${serve}" --state_dir="${work}/corrupt" \
    --port_file="${work}/port3" > "${work}/serve3.log" 2>&1 || status=$?
  [[ "${status}" -eq 2 ]] || {
    echo "tdg_serve exited ${status} on a corrupt journal, want 2" >&2
    exit 1; }
  grep -q 'malformed record' "${work}/serve3.log"
  cmp "${corrupt_journal}" "${work}/corrupt_churn.expected"
  cmp "${torn_steady}" "${work}/corrupt_steady.expected"

  echo "==> [serve] a torn enroll header: removed, the others restored"
  rm -rf "${work}/torn"
  cp -r "${work}/state" "${work}/torn"
  # A crash during an enroll: part of a header line, no newline.
  head -c 40 "${work}/state/steady.cohort" > "${work}/torn/crashed.cohort"
  "${serve}" --state_dir="${work}/torn" --port_file="${work}/port4" \
    > "${work}/serve4.log" 2>&1 &
  serve_pid=$!
  port=""
  for _ in $(seq 1 100); do
    [[ -s "${work}/port4" ]] && { port="$(cat "${work}/port4")"; break; }
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "tdg_serve did not start on a torn enroll header" >&2
    kill "${serve_pid}" 2>/dev/null || true
    cat "${work}/serve4.log" >&2
    exit 1
  fi
  "${ctl}" dump --port="${port}" --id=churn > "${work}/torn_churn.jsonl"
  cmp "${work}/served_churn.jsonl" "${work}/torn_churn.jsonl"
  kill "${serve_pid}"
  wait "${serve_pid}" || {
    echo "tdg_serve did not shut down cleanly" >&2; exit 1; }
  grep -q '3 cohorts restored' "${work}/serve4.log"
  grep -q 'holds no durable header' "${work}/serve4.log"
  [[ ! -e "${work}/torn/crashed.cohort" ]] || {
    echo "the torn enroll's journal was not removed" >&2; exit 1; }
  echo "==> [serve] OK"
}

run_tracing() {
  command -v curl >/dev/null || { echo "curl not found" >&2; exit 1; }
  # The tracing plane's suites under both sanitizers: asan (with the
  # latency-injection hook, which the e2e below needs anyway) for the
  # sampler/window memory story, tsan for contexts hopping worker threads
  # and concurrent Offer/Snapshot against live traffic.
  local filter='RequestContext|TailSampler|Windowed|ServeTelemetry|ServeSoak'
  local asan_dir="build-ci/tracing"
  echo "==> [tracing] configure (asan + test hooks)"
  cmake -B "${asan_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTDG_SANITIZE=address -DTDG_TEST_HOOKS=ON >/dev/null
  echo "==> [tracing] build (asan)"
  cmake --build "${asan_dir}" -j "${JOBS}" \
    --target tdg_tests tdg_serve tdg_servectl tdg_blackbox >/dev/null
  echo "==> [tracing] tracing suites (asan)"
  (cd "${asan_dir}" && ctest --output-on-failure -j "${JOBS}" \
    --no-tests=error -R "${filter}")
  echo "==> [tracing] tracing suites (tsan)"
  local tsan_dir="build-ci/tracing-tsan"
  cmake -B "${tsan_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTDG_SANITIZE=thread -DTDG_TEST_HOOKS=ON >/dev/null
  cmake --build "${tsan_dir}" -j "${JOBS}" --target tdg_tests >/dev/null
  (cd "${tsan_dir}" && ctest --output-on-failure -j "${JOBS}" \
    --no-tests=error -R "${filter}")

  echo "==> [tracing] e2e: slow request through /slowz, /tracez, blackbox"
  local work="${asan_dir}/e2e"
  rm -rf "${work}"
  mkdir -p "${work}"
  local serve="${asan_dir}/examples/tdg_serve"
  local ctl="${asan_dir}/examples/tdg_servectl"
  local decode="${asan_dir}/examples/tdg_blackbox"

  cat > "${work}/traffic.json" <<'EOF'
{
  "id": "traced",
  "config": {"group_size": 3, "policy": "star", "mode": "star",
             "learning_rate": 0.25, "seed": 7},
  "participants": [
    {"key": "t0", "skill": 1.0}, {"key": "t1", "skill": 1.5},
    {"key": "t2", "skill": 2.0}, {"key": "t3", "skill": 2.5},
    {"key": "t4", "skill": 3.0}, {"key": "t5", "skill": 3.5},
    {"key": "t6", "skill": 4.0}, {"key": "t7", "skill": 4.5},
    {"key": "t8", "skill": 5.0}
  ],
  "ops": [
    {"op": "advance"}, {"op": "advance"}, {"op": "advance"},
    {"op": "advance"}, {"op": "advance"}
  ]
}
EOF

  # Every advance stalls 30 ms in the compute phase (the injected slow
  # request), far over the 5 ms /slowz threshold.
  TDG_TEST_SLOW_ADVANCE_MICROS=30000 \
    "${serve}" --state_dir="${work}/state" --port_file="${work}/port" \
    --slow_micros=5000 --blackbox="${work}/serve.blackbox" \
    > "${work}/serve.log" 2>&1 &
  local serve_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    [[ -s "${work}/port" ]] && { port="$(cat "${work}/port")"; break; }
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "tdg_serve never wrote its port file" >&2
    kill "${serve_pid}" 2>/dev/null || true
    exit 1
  fi
  local base="http://127.0.0.1:${port}"

  "${ctl}" run --port="${port}" --schedule="${work}/traffic.json"

  echo "==> [tracing] /slowz carries the per-phase breakdown"
  curl -sf "${base}/slowz" > "${work}/slowz.jsonl"
  grep -q '"endpoint":"advance"' "${work}/slowz.jsonl"
  grep -q '"slow":true' "${work}/slowz.jsonl"
  grep -q '"lock_wait_micros":' "${work}/slowz.jsonl"
  grep -q '"journal_fsync_micros":' "${work}/slowz.jsonl"
  grep -q '"serialize_micros":' "${work}/slowz.jsonl"
  # The injected 30 ms stall lands in the compute phase: at least one slow
  # advance charged >= 30000 us to compute.
  grep '"endpoint":"advance"' "${work}/slowz.jsonl" \
    | grep -Eq '"compute_micros":([3-9][0-9]{4}|[0-9]{6,})' || {
    echo "/slowz shows no advance with the injected compute stall" >&2
    exit 1
  }

  echo "==> [tracing] /metrics exports the rolling windowed p99"
  curl -sf "${base}/metrics" > "${work}/metrics.prom"
  grep -q 'tdg_serve_latency_seconds{' "${work}/metrics.prom"
  grep 'tdg_serve_latency_seconds{' "${work}/metrics.prom" \
    | grep 'endpoint="advance"' | grep 'window="1m"' \
    | grep -q 'quantile="p99"'
  grep -q 'tdg_serve_latency_seconds_qps{' "${work}/metrics.prom"

  echo "==> [tracing] tdg_servectl stats renders the windows"
  "${ctl}" stats --port="${port}" > "${work}/stats.txt"
  grep -q 'p99_ms' "${work}/stats.txt"
  grep 'advance' "${work}/stats.txt" | grep -q '1m'

  echo "==> [tracing] /tracez id resolves in the black-box dump"
  curl -sf "${base}/tracez" > "${work}/tracez.json"
  local trace_id
  trace_id="$(sed -E \
    's/.*"endpoint":"advance"[^}]*"trace_id":([0-9]+).*/\1/' \
    "${work}/tracez.json")"
  if ! [[ "${trace_id}" =~ ^[0-9]+$ ]]; then
    echo "could not extract an advance trace id from /tracez" >&2
    exit 1
  fi
  kill "${serve_pid}"
  wait "${serve_pid}" || {
    echo "tdg_serve did not shut down cleanly" >&2; exit 1; }
  "${decode}" --trace_id="${trace_id}" --jsonl "${work}/serve.blackbox" \
    > "${work}/trace.jsonl"
  grep -q '"event":"request_start"' "${work}/trace.jsonl"
  grep -q '"event":"request_end"' "${work}/trace.jsonl"
  grep -q "\"trace_id\":${trace_id}" "${work}/trace.jsonl"
  # The same id narrows the Chrome trace to one request's B/E slice.
  "${decode}" --trace_id="${trace_id}" --trace="${work}/trace.chrome.json" \
    "${work}/serve.blackbox"
  grep -q "req ${trace_id}" "${work}/trace.chrome.json"
  echo "==> [tracing] OK"
}

run_werror() {
  local build_dir="build-ci/werror"
  echo "==> [werror] configure (-Werror)"
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  echo "==> [werror] build every target"
  cmake --build "${build_dir}" -j "${JOBS}" >/dev/null
  local release_dir="build-ci/werror-release"
  echo "==> [werror] configure (-Werror, Release)"
  cmake -B "${release_dir}" -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  echo "==> [werror] build every target in Release"
  cmake --build "${release_dir}" -j "${JOBS}" >/dev/null
  echo "==> [werror] OK"
}

run_config() {
  local config="$1"
  if [[ "${config}" == "bench-smoke" ]]; then
    run_bench_smoke
    return
  fi
  if [[ "${config}" == "soa" ]]; then
    run_soa
    return
  fi
  if [[ "${config}" == "crash-resume" ]]; then
    run_crash_resume
    return
  fi
  if [[ "${config}" == "monitor" ]]; then
    run_monitor
    return
  fi
  if [[ "${config}" == "profile" ]]; then
    run_profile
    return
  fi
  if [[ "${config}" == "blackbox" ]]; then
    run_blackbox
    return
  fi
  if [[ "${config}" == "serve" ]]; then
    run_serve
    return
  fi
  if [[ "${config}" == "tracing" ]]; then
    run_tracing
    return
  fi
  if [[ "${config}" == "werror" ]]; then
    run_werror
    return
  fi
  local build_dir="build-ci/${config}"
  echo "==> [${config}] configure"
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    $(configure_flags "${config}") >/dev/null
  echo "==> [${config}] build"
  cmake --build "${build_dir}" -j "${JOBS}" >/dev/null
  echo "==> [${config}] test"
  # shellcheck disable=SC2046
  (cd "${build_dir}" && ctest --output-on-failure -j "${JOBS}" \
    --no-tests=error $(ctest_args "${config}"))
  echo "==> [${config}] OK"
}

if [[ $# -gt 0 ]]; then
  for config in "$@"; do run_config "${config}"; done
else
  for config in asan ubsan tsan bench-smoke crash-resume monitor profile \
      soa blackbox serve tracing werror; do
    run_config "${config}"
  done
fi

echo "all checks passed"
