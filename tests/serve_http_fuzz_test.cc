// Deterministic fuzzing of the cohort server's HTTP front end with the
// shared mutation harness (fuzz_mutate_test_util.h, the parser_fuzz_test
// engine). A live CohortServer receives hundreds of mutated requests over
// real sockets; the properties are
//
//   * the server never crashes and never trips a sanitizer,
//   * every connection gets a well-formed HTTP/1.1 response with a status
//     code in 100..599 (garbage in, clean 4xx/5xx out — never a hang, never
//     a silently dropped connection),
//   * after the barrage the server still serves valid traffic.
//
// Seeds are fixed; the mutant corpus is identical on every run.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz_mutate_test_util.h"
#include "random/rng.h"
#include "serve/cohort.h"
#include "serve/cohort_manager.h"
#include "serve/cohort_server.h"
#include "util/net.h"

namespace tdg::serve {
namespace {

/// One fuzz exchange: connect, write the (possibly garbage) wire bytes,
/// read whatever the server sends until it closes. Returns the raw
/// response, empty on connect failure.
std::string Exchange(int port, const std::string& wire) {
  auto client = util::net::ConnectLoopback(port, /*timeout_ms=*/2000);
  if (!client.ok()) {
    ADD_FAILURE() << "connect failed: " << client.status();
    return "";
  }
  // The write may fail mid-stream if the server already rejected and
  // closed (e.g. an oversized mutant) — that is a valid server behavior,
  // the response is still on the wire.
  (void)client->WriteAll(wire);
  auto response = client->ReadToEof(/*max_bytes=*/1 << 20,
                                    /*timeout_ms=*/5000);
  return response.ok() ? *response : "";
}

std::vector<std::string> SeedCorpus() {
  const std::string enroll_body =
      "{\"id\":\"fz\",\"config\":{\"group_size\":2,\"policy\":\"star\"},"
      "\"participants\":[{\"key\":\"a\",\"skill\":1.0},"
      "{\"key\":\"b\",\"skill\":2.0},{\"key\":\"c\",\"skill\":3.0},"
      "{\"key\":\"d\",\"skill\":4.0}]}";
  auto with_body = [](const std::string& head, const std::string& body) {
    return head + "Content-Length: " + std::to_string(body.size()) +
           "\r\n\r\n" + body;
  };
  return {
      "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
      "GET /metrics HTTP/1.1\r\n\r\n",
      "GET /statusz HTTP/1.1\r\n\r\n",
      "GET /cohorts HTTP/1.1\r\n\r\n",
      "GET /cohorts/fz HTTP/1.1\r\n\r\n",
      "GET /cohorts/fz/rounds/0 HTTP/1.1\r\n\r\n",
      with_body("POST /cohorts HTTP/1.1\r\n", enroll_body),
      with_body("POST /cohorts/fz/advance HTTP/1.1\r\n", "{}"),
      with_body("POST /cohorts/fz/join HTTP/1.1\r\n",
                "{\"key\":\"e\",\"skill\":1.5}"),
      with_body("POST /cohorts/fz/leave HTTP/1.1\r\n", "{\"key\":\"e\"}"),
  };
}

TEST(ServeHttpFuzzTest, MutatedRequestsAlwaysGetWellFormedResponses) {
  auto manager = CohortManager::Open({});
  ASSERT_TRUE(manager.ok()) << manager.status();

  CohortServer::Options options;
  options.num_workers = 2;
  // Tight read bounds: mutants that lose their head terminator fail the
  // total deadline quickly instead of stalling the run, and oversized
  // mutants trip the byte limits.
  options.limits.max_head_bytes = 4096;
  options.limits.max_body_bytes = 4096;
  options.limits.read_timeout_ms = 75;
  auto server = CohortServer::Start(manager->get(), std::move(options));
  ASSERT_TRUE(server.ok()) << server.status();
  const int port = (*server)->port();

  const std::vector<std::string> corpus = SeedCorpus();
  // Prime real state so path-preserving mutants reach live handlers.
  {
    std::string response = Exchange(port, corpus[6]);  // enroll "fz"
    auto code = util::net::HttpStatusCode(response);
    ASSERT_TRUE(code.ok()) << response;
    ASSERT_EQ(*code, 201) << response;
  }

  random::Rng rng(0xF722EDull);
  std::string donor = corpus[0];
  int rejected = 0;
  const int kRounds = 250;
  for (int round = 0; round < kRounds; ++round) {
    const std::string& seed = corpus[rng.NextBounded(corpus.size())];
    std::string mutated = test::Mutate(rng, seed, donor);
    std::string response = Exchange(port, mutated);
    // The one hard contract: whatever went in, a well-formed HTTP/1.1
    // status line came out.
    ASSERT_FALSE(response.empty())
        << "server dropped the connection silently, round " << round;
    auto code = util::net::HttpStatusCode(response);
    ASSERT_TRUE(code.ok()) << "round " << round << " malformed response: "
                           << response.substr(0, 120);
    ASSERT_GE(*code, 100) << response.substr(0, 120);
    ASSERT_LE(*code, 599) << response.substr(0, 120);
    if (*code >= 400) ++rejected;
    donor = std::move(mutated);
  }
  // The corpus is not degenerate: mutation actually breaks requests.
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, kRounds) << "every mutant failed — seeds broken?";

  // The server survived the barrage and still serves valid traffic with
  // intact state.
  std::string health = Exchange(port, corpus[0]);
  auto health_code = util::net::HttpStatusCode(health);
  ASSERT_TRUE(health_code.ok()) << health;
  EXPECT_EQ(*health_code, 200) << health;
  std::string summary = Exchange(port, corpus[4]);
  auto summary_code = util::net::HttpStatusCode(summary);
  ASSERT_TRUE(summary_code.ok()) << summary;
  EXPECT_EQ(*summary_code, 200) << summary;
  // requests_served counts a connection before its handler runs, so every
  // client that already holds its response is counted.
  EXPECT_GE((*server)->requests_served(), kRounds + 3);
  (*server)->Stop();
}

}  // namespace
}  // namespace tdg::serve
