// tdg_serve — the grouping-as-a-service daemon (DESIGN.md §13): a
// long-lived cohort server over serve::CohortManager + serve::CohortServer.
//
//   tdg_serve --state_dir=DIR [--port=P] [--port_file=F] [--workers=N]
//             [--blackbox=DUMP.bin] [--no_metrics]
//             [--slow_micros=T]
//
// --slow_micros sets the /slowz threshold (default 100000 = 100 ms; 0 keeps
// every request): /slowz lists the newest 256 requests at or above it, each
// with its trace id and per-phase breakdown. With --blackbox on, a /slowz
// trace id resolves in the dump through `tdg_blackbox --trace_id`, and
// /blackboxz lists every request_end record.
//
// Binds 127.0.0.1 only. --port=0 (the default) picks an ephemeral port;
// scripts discover it through --port_file. --state_dir enables the
// write-ahead journals: every acknowledged enroll/join/leave/advance is
// fsync'd before it is applied, so a `kill -9` (the CI e2e does exactly
// that) loses nothing — restarting with the same --state_dir replays the
// journals back to the acknowledged state, bit for bit, replaying them in
// parallel (the stderr "listening" line reports the cohorts restored and
// the replay's seconds and threads). Omitting --state_dir serves from
// memory only.
//
// SIGINT/SIGTERM shut down cleanly (drain in-flight requests, mark the
// blackbox dump clean). Exit codes: 0 = clean shutdown, 2 = startup error
// (an unknown flag or a malformed value included).

#include <csignal>
#include <cstdio>
#include <thread>

#include "obs/obs.h"
#include "serve/cohort_manager.h"
#include "serve/cohort_server.h"
#include "util/flags.h"

namespace {

std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

}  // namespace

int main(int argc, char** argv) {
  using enum tdg::util::FlagKind;
  tdg::util::FlagParser flags;
  const tdg::util::Status parsed = flags.Parse(
      argc, argv,
      {{"state_dir", kString}, {"port", kInt}, {"port_file", kString},
       {"workers", kInt}, {"blackbox", kString}, {"no_metrics", kBool},
       {"slow_micros", kInt}});
  if (!parsed.ok()) {
    std::fprintf(stderr, "tdg_serve: %s\n", parsed.ToString().c_str());
    std::fprintf(stderr,
                 "usage: tdg_serve --state_dir=DIR [--port=P] "
                 "[--port_file=F] [--workers=N] [--blackbox=DUMP.bin] "
                 "[--no_metrics] [--slow_micros=T]\n");
    return 2;
  }
  if (flags.GetBool("no_metrics", false)) {
    tdg::obs::SetMetricsEnabled(false);
  }
  const std::string blackbox = flags.GetString("blackbox", "");
  if (!blackbox.empty()) {
    tdg::obs::FlightRecorder::Options options;
    options.path = blackbox;
    auto started = tdg::obs::FlightRecorder::Global().Start(options);
    if (!started.ok()) {
      std::fprintf(stderr, "tdg_serve: blackbox: %s\n",
                   started.ToString().c_str());
      return 2;
    }
  }
  tdg::obs::InstallBuildInfoMetrics();

  tdg::serve::CohortManager::Options manager_options;
  manager_options.state_dir = flags.GetString("state_dir", "");
  auto manager = tdg::serve::CohortManager::Open(manager_options);
  if (!manager.ok()) {
    std::fprintf(stderr, "tdg_serve: %s\n",
                 manager.status().ToString().c_str());
    return 2;
  }

  tdg::serve::CohortServer::Options server_options;
  server_options.port = static_cast<int>(flags.GetInt("port", 0));
  server_options.port_file = flags.GetString("port_file", "");
  server_options.num_workers = static_cast<int>(flags.GetInt("workers", 4));
  server_options.slow_threshold_micros =
      flags.GetInt("slow_micros", server_options.slow_threshold_micros);
  auto server =
      tdg::serve::CohortServer::Start(manager->get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "tdg_serve: %s\n",
                 server.status().ToString().c_str());
    return 2;
  }
  const tdg::serve::CohortManager::RestoreStats& restore =
      (*manager)->restore_stats();
  std::fprintf(stderr,
               "tdg_serve: listening on 127.0.0.1:%d (%d cohorts restored "
               "in %.3f s on %d threads, %d workers, state_dir=%s)\n",
               (*server)->port(), (*manager)->restored_cohorts(),
               restore.seconds, restore.threads, server_options.num_workers,
               manager_options.state_dir.empty()
                   ? "<memory only>"
                   : manager_options.state_dir.c_str());

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "tdg_serve: shutting down\n");
  (*server)->Stop();
  tdg::obs::FlightRecorder::Global().Stop();
  return 0;
}
