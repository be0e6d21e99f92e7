// Golden-file test for the sweep exporters: a small fixed sweep's CSV and
// JSON exports must be byte-identical to the checked-in files under
// tests/golden/, and byte-identical across worker thread counts 1, 2 and 8
// (the sweep determinism contract: cell RNG streams derive from the grid
// position, never from scheduling).
//
// mean_micros is the one timing-dependent column; the test disables the
// tdg::obs metrics registry so it is deterministically 0 (the documented
// behavior of SweepCell::mean_micros).
//
// To regenerate after an intentional output change, run
//   ./build/tests/tdg_tests --gtest_filter='SweepGoldenTest.*'
// with TDG_UPDATE_GOLDEN=1 set in the environment, and commit the
// rewritten files.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/soa.h"
#include "exp/sweep.h"
#include "obs/obs.h"

#ifndef TDG_TESTS_GOLDEN_DIR
#error "TDG_TESTS_GOLDEN_DIR must be defined by tests/CMakeLists.txt"
#endif

namespace tdg {
namespace {

class MetricsOffGuard {
 public:
  MetricsOffGuard() : was_enabled_(obs::MetricsEnabled()) {
    obs::SetMetricsEnabled(false);
  }
  ~MetricsOffGuard() { obs::SetMetricsEnabled(was_enabled_); }

 private:
  bool was_enabled_;
};

exp::SweepConfig GoldenConfig() {
  exp::SweepConfig config;
  config.name = "golden";
  config.policies = {"DyGroups-Star", "Random-Assignment"};
  config.n_values = {12, 24};
  config.k_values = {3};
  config.alpha_values = {2};
  config.r_values = {0.25, 0.5};
  config.modes = {InteractionMode::kStar, InteractionMode::kClique};
  config.distributions = {random::SkillDistribution::kLogNormal};
  config.runs = 2;
  config.seed = 7;
  return config;
}

std::string GoldenPath(const std::string& file) {
  return std::string(TDG_TESTS_GOLDEN_DIR) + "/" + file;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open golden file " << path
                         << " (regenerate with TDG_UPDATE_GOLDEN=1)";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good()) << "cannot write golden file " << path;
  out << content;
}

TEST(SweepGoldenTest, CsvAndJsonMatchGoldenAcrossThreadCounts) {
  MetricsOffGuard metrics_off;
  std::string csv[3], json[3];
  const int thread_counts[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    exp::SweepConfig config = GoldenConfig();
    config.threads = thread_counts[i];
    auto result = exp::RunSweep(config);
    ASSERT_TRUE(result.ok()) << result.status();
    csv[i] = result->ToCsv().ToString();
    json[i] = result->ToJson().SerializePretty() + "\n";
  }
  // Determinism across worker counts, byte for byte.
  EXPECT_EQ(csv[0], csv[1]);
  EXPECT_EQ(csv[0], csv[2]);
  EXPECT_EQ(json[0], json[1]);
  EXPECT_EQ(json[0], json[2]);

  if (std::getenv("TDG_UPDATE_GOLDEN") != nullptr) {
    WriteFile(GoldenPath("sweep_small.csv"), csv[0]);
    WriteFile(GoldenPath("sweep_small.json"), json[0]);
    GTEST_SKIP() << "regenerated golden files under " << TDG_TESTS_GOLDEN_DIR;
  }
  // Stability against the checked-in goldens.
  EXPECT_EQ(csv[0], ReadFile(GoldenPath("sweep_small.csv")));
  EXPECT_EQ(json[0], ReadFile(GoldenPath("sweep_small.json")));
}

// The SoA parity half of the goldens contract (DESIGN.md §11): the sweep's
// bytes were produced on the SoA fast path with SIMD enabled, and the same
// bytes must come out with the vector units disabled at runtime. The golden
// files are the seed-era AoS outputs, so this test transitively proves the
// SoA refactor changed no reported number in any mode.
TEST(SweepGoldenTest, ForcedScalarSweepIsByteIdenticalToGolden) {
  if (soa::CompiledSimdIsa() == soa::SimdIsa::kScalar) {
    GTEST_SKIP() << "scalar build: the main golden test already covers this";
  }
  MetricsOffGuard metrics_off;
  soa::SetSimdEnabledForTest(false);
  exp::SweepConfig config = GoldenConfig();
  config.threads = 2;
  auto result = exp::RunSweep(config);
  soa::SetSimdEnabledForTest(true);
  ASSERT_TRUE(result.ok()) << result.status();
  if (std::getenv("TDG_UPDATE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden files regenerated by the main test";
  }
  EXPECT_EQ(result->ToCsv().ToString(),
            ReadFile(GoldenPath("sweep_small.csv")));
  EXPECT_EQ(result->ToJson().SerializePretty() + "\n",
            ReadFile(GoldenPath("sweep_small.json")));
}

}  // namespace
}  // namespace tdg
