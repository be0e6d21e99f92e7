// Tests for the embedded HTTP stats server: ephemeral binds + port files,
// each endpoint's contract, malformed-request handling, concurrent
// scraping (exercised under tsan by ci/check.sh monitor), and the headline
// guarantee that serving monitoring traffic never perturbs sweep outputs.

#include "obs/stats_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exp/sweep.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sweep_shard_test_util.h"
#include "util/file_util.h"
#include "util/json.h"
#include "util/net.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace tdg::obs {
namespace {

std::unique_ptr<util::net::HttpServer> StartServer(
    StatsServerOptions options = {}) {
  auto server = StartStatsServer(std::move(options));
  EXPECT_TRUE(server.ok()) << server.status();
  return server.ok() ? std::move(server).value() : nullptr;
}

std::string Get(int port, const std::string& path) {
  auto response = util::net::HttpGet(port, path);
  EXPECT_TRUE(response.ok()) << path << ": " << response.status();
  return response.ok() ? response.value() : std::string();
}

TEST(StatsServerTest, BindsEphemeralPortAndWritesPortFile) {
  const std::string port_file =
      test::MakeScratchDir() + "/stats.port";
  StatsServerOptions options;
  options.port = 0;
  options.port_file = port_file;
  auto server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);
  EXPECT_GT(server->port(), 0);

  auto content = util::ReadFileToString(port_file);
  ASSERT_TRUE(content.ok()) << content.status();
  auto parsed = util::ParseInt(util::Trim(content.value()));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(static_cast<int>(parsed.value()), server->port());
}

TEST(StatsServerTest, HealthzAnswersOk) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  const std::string response = Get(server->port(), "/healthz");
  EXPECT_TRUE(util::StartsWith(response, "HTTP/1.1 200"));
  auto body = util::net::HttpBody(response);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value(), "ok\n");
}

TEST(StatsServerTest, BlackboxzTailsTheDump) {
  const std::string path = test::MakeScratchDir() + "/server.blackbox";
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorder::Options recorder_options;
  recorder_options.path = path;
  ASSERT_TRUE(recorder.Start(recorder_options).ok());
  for (int i = 0; i < 8; ++i) {
    recorder.Record(BlackboxEventType::kRoundEnd,
                    {static_cast<double>(i), 1.0, static_cast<double>(i)});
  }

  StatsServerOptions options;
  options.blackbox_path = path;
  options.blackbox_tail = 3;
  auto server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);

  // Live tail: the recorder has NOT stopped — /blackboxz reads the file
  // bytes the mapping already pushed to the page cache.
  const std::string response = Get(server->port(), "/blackboxz");
  EXPECT_TRUE(util::StartsWith(response, "HTTP/1.1 200")) << response;
  EXPECT_NE(response.find("application/jsonl"), std::string::npos);
  auto body = util::net::HttpBody(response);
  ASSERT_TRUE(body.ok());
  // Only the newest 3 of 8 events, one JSON object per line, oldest first.
  std::size_t lines = 0;
  for (char c : body.value()) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3u);
  EXPECT_NE(body->find("\"event\":\"round_end\""), std::string::npos)
      << *body;
  EXPECT_EQ(body->find("\"round\":4,"), std::string::npos) << *body;
  EXPECT_NE(body->find("\"round\":7,"), std::string::npos) << *body;
  recorder.Stop();
}

TEST(StatsServerTest, BlackboxzReportsUnreadableDumpAs503) {
  StatsServerOptions options;
  options.blackbox_path = test::MakeScratchDir() + "/never-written.bin";
  auto server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);
  const std::string response = Get(server->port(), "/blackboxz");
  EXPECT_TRUE(util::StartsWith(response, "HTTP/1.1 503")) << response;
}

TEST(StatsServerTest, UnknownPathIs404) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(util::StartsWith(Get(server->port(), "/nope"),
                               "HTTP/1.1 404"));
  // Query strings are stripped before routing.
  EXPECT_TRUE(util::StartsWith(Get(server->port(), "/healthz?x=1"),
                               "HTTP/1.1 200"));
}

TEST(StatsServerTest, MalformedRequestIs400AndServerSurvives) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);

  for (const char* garbage :
       {"not an http request\r\n\r\n", "GET\r\n\r\n",
        "GET /healthz SMTP/1.0\r\n\r\n", "GET noslash HTTP/1.1\r\n\r\n"}) {
    auto client = util::net::ConnectLoopback(server->port());
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(client->WriteAll(garbage).ok());
    auto response = client->ReadToEof(64 * 1024, /*timeout_ms=*/5000);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(util::StartsWith(response.value(), "HTTP/1.1 400"))
        << "request: " << garbage << "\nresponse: " << response.value();
  }
  // A well-formed request still works after the garbage ones.
  EXPECT_TRUE(util::StartsWith(Get(server->port(), "/healthz"),
                               "HTTP/1.1 200"));
}

TEST(StatsServerTest, NonGetMethodIs405) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto client = util::net::ConnectLoopback(server->port());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(
      client->WriteAll("POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").ok());
  auto response = client->ReadToEof(64 * 1024, /*timeout_ms=*/5000);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(util::StartsWith(response.value(), "HTTP/1.1 405"));
}

TEST(StatsServerTest, MetricsServesPrometheusExposition) {
  MetricsRegistry::Global()
      .GetCounter("stats_server_test/scrapes")
      .Add(3);
  InstallBuildInfoMetrics();
  auto server = StartServer();
  ASSERT_NE(server, nullptr);

  const std::string response = Get(server->port(), "/metrics");
  EXPECT_TRUE(util::StartsWith(response, "HTTP/1.1 200"));
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  auto body = util::net::HttpBody(response);
  ASSERT_TRUE(body.ok());
  EXPECT_NE(
      body->find("tdg_stats_server_test_scrapes_total"),
      std::string::npos);
  EXPECT_NE(body->find("tdg_build_info{"), std::string::npos);
  // Every scrape refreshes the process uptime gauge.
  EXPECT_NE(body->find("tdg_process_uptime_seconds"), std::string::npos);
}

TEST(StatsServerTest, StatuszServesManifestAndUptime) {
  StatsServerOptions options;
  options.manifest = RunManifest::Capture(/*seed=*/99);
  auto server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);

  auto body = util::net::HttpBody(Get(server->port(), "/statusz"));
  ASSERT_TRUE(body.ok());
  auto json = util::JsonValue::Parse(body.value());
  ASSERT_TRUE(json.ok()) << json.status();
  auto manifest = json->GetField("manifest");
  ASSERT_TRUE(manifest.ok());
  auto roundtrip = RunManifest::FromJson(manifest.value());
  ASSERT_TRUE(roundtrip.ok()) << roundtrip.status();
  EXPECT_EQ(roundtrip->seed, 99u);
  EXPECT_GE(json->GetField("uptime_seconds")->AsNumber(), 0.0);
  EXPECT_EQ(static_cast<int>(json->GetField("port")->AsNumber()),
            server->port());
}

TEST(StatsServerTest, MetricsCarriesSweepCellsOwned) {
  // "D of O" for a running sweep: sweep/cells_completed of
  // sweep/cells_owned, the gauge the cell loop sets when it starts.
  auto result = exp::RunSweep(test::TinyConfig());
  ASSERT_TRUE(result.ok()) << result.status();
  auto server = StartServer();
  ASSERT_NE(server, nullptr);

  auto body = util::net::HttpBody(Get(server->port(), "/metrics"));
  ASSERT_TRUE(body.ok());
#if defined(TDG_OBS_DISABLED)
  EXPECT_EQ(body->find("tdg_sweep_cells_owned"), std::string::npos);
#else
  // The sample line, labelled or not: "tdg_sweep_cells_owned[{...}] 16".
  const std::size_t owned = body->find("\ntdg_sweep_cells_owned");
  ASSERT_NE(owned, std::string::npos) << *body;
  const std::string line =
      body->substr(owned + 1, body->find('\n', owned + 1) - owned - 1);
  EXPECT_TRUE(util::EndsWith(line, " 16")) << line;
  EXPECT_NE(body->find("\ntdg_sweep_cells_completed_total"),
            std::string::npos)
      << *body;
#endif
}

TEST(StatsServerTest, ConcurrentScrapesAllSucceed) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 8;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> scrapers;
  scrapers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    scrapers.emplace_back([port = server->port(), &ok_count] {
      const char* paths[] = {"/healthz", "/metrics", "/statusz"};
      for (int i = 0; i < kRequestsPerThread; ++i) {
        auto response = util::net::HttpGet(port, paths[i % 3]);
        if (response.ok() &&
            util::StartsWith(response.value(), "HTTP/1.1 200")) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& scraper : scrapers) scraper.join();
  EXPECT_EQ(ok_count.load(), kThreads * kRequestsPerThread);
  EXPECT_GE(server->requests_served(), kThreads * kRequestsPerThread);
}

TEST(StatsServerTest, SilentClientDoesNotDelayHealthz) {
  // Requests are served from a worker pool: a client that connects and
  // sends nothing holds one worker until the 2 s read deadline, never the
  // accept thread or the other workers.
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  auto silent = util::net::ConnectLoopback(server->port());
  ASSERT_TRUE(silent.ok()) << silent.status();

  const int64_t start = util::MonotonicMicros();
  const std::string response = Get(server->port(), "/healthz");
  const int64_t elapsed_micros = util::MonotonicMicros() - start;
  EXPECT_TRUE(util::StartsWith(response, "HTTP/1.1 200")) << response;
  EXPECT_LT(elapsed_micros, 500 * 1000);
}

TEST(StatsServerTest, StopIsIdempotentAndPortCloses) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  const int port = server->port();
  server->Stop();
  server->Stop();  // second call is a no-op
  auto client = util::net::ConnectLoopback(port, /*timeout_ms=*/500);
  EXPECT_FALSE(client.ok());
}

// Satellite of the obs-off CI config: with TDG_OBS_DISABLED the macros
// compile to nothing while the explicit APIs (FlightRecorder::Record,
// ScopedZone, every HTTP endpoint) keep working — scrapes degrade
// to smaller outputs, never crashes. The same test runs in normal builds,
// where it additionally pins the macro counts, so a skew between the two
// paths fails exactly one config.
TEST(StatsServerTest, ObsDisabledBuildDegradesCleanly) {
  const std::string dir = test::MakeScratchDir();

  // Flight recorder: event and zone macros + explicit record and zone.
  const std::string blackbox = dir + "/events.blackbox";
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorder::Options recorder_options;
  recorder_options.path = blackbox;
  ASSERT_TRUE(recorder.Start(recorder_options).ok());
  TDG_BLACKBOX(BlackboxEventType::kNote, 1.0);
  { TDG_ZONE(Zone::kProcessRun); }
  recorder.Record(BlackboxEventType::kNote, {2.0});
  { ScopedZone span(Zone::kProcessRound); }

  // Endpoints answer while both planes are live.
  StatsServerOptions options;
  options.blackbox_path = blackbox;
  auto server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(util::StartsWith(Get(server->port(), "/healthz"),
                               "HTTP/1.1 200"));
  EXPECT_TRUE(util::StartsWith(Get(server->port(), "/metrics"),
                               "HTTP/1.1 200"));
  EXPECT_TRUE(util::StartsWith(Get(server->port(), "/blackboxz"),
                               "HTTP/1.1 200"));
  server->Stop();
  recorder.Stop();

  auto dump = ReadBlackbox(blackbox);
  ASSERT_TRUE(dump.ok()) << dump.status();
  std::vector<std::string> labels;
  for (const BlackboxEvent& event : dump->events) {
    labels.push_back(BlackboxEventLabel(event));
  }
#if defined(TDG_OBS_DISABLED)
  // Only the explicit record and span.
  EXPECT_EQ(labels, (std::vector<std::string>{"note", "process/round"}));
  EXPECT_DOUBLE_EQ(dump->events[0].values[0], 2.0);
#else
  EXPECT_EQ(labels, (std::vector<std::string>{"note", "process/run", "note",
                                               "process/round"}));
  EXPECT_DOUBLE_EQ(dump->events[0].values[0], 1.0);
  EXPECT_DOUBLE_EQ(dump->events[2].values[0], 2.0);
#endif
}

TEST(StatsServerTest, SweepOutputsAreByteIdenticalWithServerOn) {
  // The monitoring plane's headline contract: a live server being scraped
  // mid-sweep (/metrics polled from another thread) must not change a
  // single output byte.
  test::MetricsOffGuard metrics_off;
  const exp::SweepConfig config = test::TinyConfig();

  auto baseline = exp::RunSweep(config);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  std::atomic<bool> stop_scraping{false};
  std::atomic<bool> scraped{false};
  std::thread scraper([port = server->port(), &stop_scraping, &scraped] {
    while (!stop_scraping.load(std::memory_order_relaxed)) {
      if (util::net::HttpGet(port, "/metrics").ok()) scraped.store(true);
    }
  });
  // The sweep starts only once a scrape has landed, so the server is
  // demonstrably serving while the cells run.
  const int64_t deadline = util::MonotonicMicros() + 10 * 1000 * 1000;
  while (!scraped.load() && util::MonotonicMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(scraped.load()) << "no scrape succeeded within 10 s";

  auto monitored = exp::RunSweep(config);

  stop_scraping.store(true, std::memory_order_relaxed);
  scraper.join();
  server->Stop();

  ASSERT_TRUE(monitored.ok()) << monitored.status();
  EXPECT_GT(server->requests_served(), 0);
  EXPECT_EQ(test::CsvBytes(baseline.value()),
            test::CsvBytes(monitored.value()));
  EXPECT_EQ(test::JsonBytes(baseline.value()),
            test::JsonBytes(monitored.value()));
}

}  // namespace
}  // namespace tdg::obs
