// Concurrency soak for the cohort serving plane, aimed at tsan: several
// client threads enroll, advance, and read their own cohorts over real HTTP
// while a scraper thread hammers /metrics and /statusz, and a contention
// leg points multiple threads at the SAME cohort. At quiesce the round
// counters must be exactly consistent — every acknowledged advance is one
// recorded round, no lost or duplicated updates — and every served round
// must be retrievable. A tracing leg runs the contended load with the tail
// sampler wide open and the flight recorder on, then checks /slowz saw the
// contended advances (lock-wait span and all) and that a /tracez id
// resolves to the same request's records in the black-box dump.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "serve/cohort.h"
#include "serve/cohort_manager.h"
#include "serve/cohort_server.h"
#include "util/json.h"
#include "util/net.h"

namespace tdg::serve {
namespace {

/// Sends one request and returns the raw response; empty on any transport
/// failure.
std::string Exchange(int port, const std::string& wire) {
  auto client = util::net::ConnectLoopback(port, /*timeout_ms=*/5000);
  if (!client.ok()) return "";
  if (!client->WriteAll(wire).ok()) return "";
  auto response = client->ReadToEof(1 << 20, /*timeout_ms=*/10000);
  return response.ok() ? *response : "";
}

/// The HTTP status code of a raw response; -1 on any transport or parse
/// failure (the caller EXPECTs on it — gtest assertions are not usable for
/// early return inside worker lambdas).
int StatusOf(const std::string& response) {
  auto code = util::net::HttpStatusCode(response);
  return code.ok() ? *code : -1;
}

std::string GetWire(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\n\r\n";
}

std::string PostWire(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

int Get(int port, const std::string& path) {
  return StatusOf(Exchange(port, GetWire(path)));
}

int Post(int port, const std::string& path, const std::string& body) {
  return StatusOf(Exchange(port, PostWire(path, body)));
}

/// A numeric field of a JSON response body; NaN when absent or unparsable.
double BodyNumber(const std::string& response, const char* field) {
  auto body = util::net::HttpBody(response);
  if (!body.ok()) return std::nan("");
  auto json = util::JsonValue::Parse(*body);
  if (!json.ok()) return std::nan("");
  auto value = json->GetField(field);
  return value.ok() && value->is_number() ? value->AsNumber() : std::nan("");
}

std::string EnrollBody(const std::string& id, int participants) {
  std::string body = "{\"id\":\"" + id +
                     "\",\"config\":{\"group_size\":3,\"policy\":\"star\"},"
                     "\"participants\":[";
  for (int i = 0; i < participants; ++i) {
    if (i > 0) body += ",";
    body += "{\"key\":\"" + id + "-p" + std::to_string(i) +
            "\",\"skill\":" + std::to_string(i + 1) + ".0}";
  }
  return body + "]}";
}

TEST(ServeSoakTest, ConcurrentCohortsAdvanceConsistentlyUnderScrapes) {
  auto manager = CohortManager::Open({});
  ASSERT_TRUE(manager.ok()) << manager.status();
  CohortServer::Options options;
  options.num_workers = 4;
  auto server = CohortServer::Start(manager->get(), std::move(options));
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = (*server)->port();

  constexpr int kClients = 4;
  constexpr int kRoundsPerClient = 12;
  std::atomic<bool> scraping{true};

  // The scraper: /metrics renders the whole registry and refreshes gauges
  // while the clients mutate cohorts — the classic reader/writer race bed.
  std::thread scraper([port, &scraping] {
    while (scraping.load(std::memory_order_relaxed)) {
      EXPECT_EQ(Get(port, "/metrics"), 200);
      EXPECT_EQ(Get(port, "/statusz"), 200);
      EXPECT_EQ(Get(port, "/healthz"), 200);
      EXPECT_EQ(Get(port, "/cohorts"), 200);
    }
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([port, t] {
      const std::string id = "soak-" + std::to_string(t);
      EXPECT_EQ(Post(port, "/cohorts", EnrollBody(id, 6)), 201);
      for (int round = 0; round < kRoundsPerClient; ++round) {
        EXPECT_EQ(Post(port, "/cohorts/" + id + "/advance", "{}"), 200);
        // Every acknowledged round is immediately readable.
        EXPECT_EQ(
            Get(port, "/cohorts/" + id + "/rounds/" + std::to_string(round)),
            200);
      }
      EXPECT_EQ(Get(port, "/cohorts/" + id), 200);
    });
  }
  for (std::thread& client : clients) client.join();
  scraping.store(false, std::memory_order_relaxed);
  scraper.join();

  // Quiesce: counters exactly consistent with the acknowledged operations.
  EXPECT_EQ((*manager)->num_cohorts(), kClients);
  EXPECT_EQ((*manager)->total_participants(), kClients * 6);
  for (int t = 0; t < kClients; ++t) {
    auto summary = (*manager)->GetSummary("soak-" + std::to_string(t));
    ASSERT_TRUE(summary.ok()) << summary.status();
    EXPECT_EQ(summary->rounds, kRoundsPerClient);
    EXPECT_EQ(summary->participants, 6);
  }
  (*server)->Stop();
}

TEST(ServeSoakTest, ContendedAdvancesOnOneCohortNeverLoseARound) {
  auto manager = CohortManager::Open({});
  ASSERT_TRUE(manager.ok()) << manager.status();
  CohortServer::Options options;
  options.num_workers = 4;
  auto server = CohortServer::Start(manager->get(), std::move(options));
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = (*server)->port();

  ASSERT_EQ(Post(port, "/cohorts", EnrollBody("shared", 9)), 201);

  constexpr int kThreads = 4;
  constexpr int kAdvancesPerThread = 300;
  constexpr int kAdvances = kThreads * kAdvancesPerThread;
  // Each driver keeps its own acks; merged after the join.
  std::vector<std::vector<std::string>> acks(kThreads);
  std::vector<std::thread> drivers;
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([port, &ack = acks[t]] {
      for (int i = 0; i < kAdvancesPerThread; ++i) {
        ack.push_back(
            Exchange(port, PostWire("/cohorts/shared/advance", "{}")));
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();

  // Per-cohort operations are serialized by the entry lock: every request
  // succeeds, the round count equals the acknowledgment count exactly, and
  // each ack names the round its gain came from — so the reported rounds
  // are exactly {0..N-1} and each gain is that round's served gain.
  std::map<int, double> reported;  // round -> acknowledged gain
  for (const std::vector<std::string>& ack : acks) {
    for (const std::string& response : ack) {
      ASSERT_EQ(StatusOf(response), 200) << response;
      const double round = BodyNumber(response, "round");
      ASSERT_FALSE(std::isnan(round)) << response;
      ASSERT_TRUE(reported.emplace(static_cast<int>(round),
                                   BodyNumber(response, "gain"))
                      .second)
          << "round " << round << " acknowledged twice";
    }
  }
  ASSERT_EQ(static_cast<int>(reported.size()), kAdvances);
  EXPECT_EQ(reported.begin()->first, 0);
  EXPECT_EQ(reported.rbegin()->first, kAdvances - 1);
  auto summary = (*manager)->GetSummary("shared");
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary->rounds, kAdvances);
  // Every round the cohort acknowledged is servable, with the acked gain.
  for (const auto& [round, gain] : reported) {
    const std::string served = Exchange(
        port, GetWire("/cohorts/shared/rounds/" + std::to_string(round)));
    ASSERT_EQ(StatusOf(served), 200) << served;
    EXPECT_EQ(BodyNumber(served, "gain"), gain) << "round " << round;
  }
  EXPECT_EQ(Get(port, "/cohorts/shared/rounds/" +
                          std::to_string(summary->rounds)),
            404);
  (*server)->Stop();
}

TEST(ServeSoakTest, ContendedAdvancesAreTracedEndToEnd) {
  const std::string dump_path = testing::TempDir() + "/serve_soak_trace.bin";
  obs::FlightRecorder::Options recorder_options;
  recorder_options.path = dump_path;
  ASSERT_TRUE(obs::FlightRecorder::Global().Start(recorder_options).ok());

  auto manager = CohortManager::Open({});
  ASSERT_TRUE(manager.ok()) << manager.status();
  CohortServer::Options options;
  options.num_workers = 4;
  options.tail.slow_threshold_micros = 0;  // keep every trace
  auto server = CohortServer::Start(manager->get(), std::move(options));
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = (*server)->port();

  ASSERT_EQ(Post(port, "/cohorts", EnrollBody("traced", 9)), 201);
  constexpr int kThreads = 3;
  constexpr int kAdvancesPerThread = 8;
  std::vector<std::thread> drivers;
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([port] {
      for (int i = 0; i < kAdvancesPerThread; ++i) {
        EXPECT_EQ(Post(port, "/cohorts/traced/advance", "{}"), 200);
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();

  // /slowz (threshold 0 keeps everything) must show the contended
  // advances with the per-phase breakdown, lock-wait included.
  auto slowz = util::net::HttpGet(port, "/slowz");
  ASSERT_TRUE(slowz.ok()) << slowz.status();
  auto slowz_body = util::net::HttpBody(*slowz);
  ASSERT_TRUE(slowz_body.ok());
  EXPECT_NE(slowz_body->find("\"endpoint\":\"advance\""), std::string::npos);
  EXPECT_NE(slowz_body->find("lock_wait_micros"), std::string::npos);
  EXPECT_NE(slowz_body->find("journal_fsync_micros"), std::string::npos);
  EXPECT_NE(slowz_body->find("compute_micros"), std::string::npos);

  // Pick an advance's trace id off /tracez ...
  auto tracez = util::net::HttpGet(port, "/tracez");
  ASSERT_TRUE(tracez.ok()) << tracez.status();
  auto tracez_json = util::JsonValue::Parse(*util::net::HttpBody(*tracez));
  ASSERT_TRUE(tracez_json.ok()) << tracez_json.status();
  auto traces = tracez_json->GetField("traces");
  ASSERT_TRUE(traces.ok());
  double advance_trace_id = 0;
  for (const util::JsonValue& trace : traces->AsArray()) {
    if (trace.GetField("endpoint")->AsString() == "advance") {
      advance_trace_id = trace.GetField("trace_id")->AsNumber();
      break;
    }
  }
  ASSERT_NE(advance_trace_id, 0.0);

  (*server)->Stop();
  obs::FlightRecorder::Global().Stop();

  // ... and resolve it in the black-box dump: the same request's
  // start/end records are there under the same id.
  auto dump = obs::ReadBlackbox(dump_path);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  bool saw_start = false, saw_end = false;
  for (const obs::BlackboxEvent& event : dump->events) {
    if (event.values[0] != advance_trace_id) continue;
    if (event.type == obs::BlackboxEventType::kRequestStart) saw_start = true;
    if (event.type == obs::BlackboxEventType::kRequestEnd) {
      saw_end = true;
      EXPECT_EQ(static_cast<int>(event.values[1]), 200);
    }
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_end);

  // Kernel time inside the served request is traced too: the window
  // `tdg_blackbox --trace_id` cuts out (the request's thread, between its
  // request_start and request_end) holds the round's span record and the
  // cohort_round event.
  obs::BlackboxDump window = dump.value();
  obs::FilterBlackboxTrace(&window,
                           static_cast<std::uint64_t>(advance_trace_id));
  bool saw_round_span = false, saw_cohort_round = false;
  for (const obs::BlackboxEvent& event : window.events) {
    const std::string label = obs::BlackboxEventLabel(event);
    if (label == "interaction/star_round" ||
        label == "interaction/clique_round") {
      saw_round_span = true;
    }
    if (event.type == obs::BlackboxEventType::kCohortRound) {
      saw_cohort_round = true;
    }
  }
  EXPECT_TRUE(saw_round_span);
  EXPECT_TRUE(saw_cohort_round);
}

}  // namespace
}  // namespace tdg::serve
