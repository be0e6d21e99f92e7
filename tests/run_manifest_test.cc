// Tests for obs::RunManifest — the provenance record attached to every
// bench report / sweep / CLI run. Covers Capture() field population, the
// ToJson/FromJson round-trip, forward-compatible parsing, and a golden
// file over the Normalized() form (volatile fields pinned to placeholders
// so the golden bytes only change when the schema does).
//
// To regenerate after an intentional schema change, run
//   ./build/tests/tdg_tests --gtest_filter='RunManifestGoldenTest.*'
// with TDG_UPDATE_GOLDEN=1 set in the environment.

#include "obs/run_manifest.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "util/json.h"

#ifndef TDG_TESTS_GOLDEN_DIR
#error "TDG_TESTS_GOLDEN_DIR must be defined by tests/CMakeLists.txt"
#endif

namespace tdg::obs {
namespace {

TEST(RunManifestTest, CapturePopulatesProvenance) {
  const char* argv[] = {"/path/to/bench_binary", "--n=100", "--k=5"};
  RunManifest manifest = RunManifest::Capture(/*seed=*/1234, 3, argv);

  EXPECT_EQ(manifest.schema, RunManifest::kSchema);
  EXPECT_FALSE(manifest.git_sha.empty());
  EXPECT_FALSE(manifest.compiler.empty());
  EXPECT_FALSE(manifest.build_type.empty());
  EXPECT_FALSE(manifest.os.empty());
  EXPECT_GT(manifest.hardware_threads, 0);
  EXPECT_EQ(manifest.seed, 1234u);
  ASSERT_EQ(manifest.args.size(), 2u);  // argv[0] is not an argument
  EXPECT_EQ(manifest.args[0], "--n=100");
  EXPECT_EQ(manifest.args[1], "--k=5");
  // ISO 8601 UTC: "YYYY-MM-DDTHH:MM:SSZ".
  ASSERT_EQ(manifest.timestamp_utc.size(), 20u);
  EXPECT_EQ(manifest.timestamp_utc[10], 'T');
  EXPECT_EQ(manifest.timestamp_utc.back(), 'Z');
}

TEST(RunManifestTest, JsonRoundTripIsLossless) {
  const char* argv[] = {"bench", "--alpha=5"};
  RunManifest manifest = RunManifest::Capture(/*seed=*/42, 2, argv);
  auto parsed = RunManifest::FromJson(manifest.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value(), manifest);
}

TEST(RunManifestTest, RoundTripSurvivesSerializedText) {
  RunManifest manifest = RunManifest::Capture(/*seed=*/7);
  std::string text = manifest.ToJson().SerializePretty();
  auto json = util::JsonValue::Parse(text);
  ASSERT_TRUE(json.ok()) << json.status();
  auto parsed = RunManifest::FromJson(json.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value(), manifest);
}

TEST(RunManifestTest, FromJsonRejectsMissingOrWrongSchema) {
  util::JsonValue no_schema = util::JsonValue::MakeObject();
  EXPECT_FALSE(RunManifest::FromJson(no_schema).ok());

  util::JsonValue wrong = util::JsonValue::MakeObject();
  wrong.Set("schema", "tdg.run_manifest.v999");
  EXPECT_FALSE(RunManifest::FromJson(wrong).ok());

  EXPECT_FALSE(RunManifest::FromJson(util::JsonValue(3.0)).ok());
}

TEST(RunManifestTest, FromJsonIgnoresUnknownFields) {
  RunManifest manifest = RunManifest::Capture(/*seed=*/9);
  util::JsonValue json = manifest.ToJson();
  json.Set("future_field", "from a newer writer");
  auto parsed = RunManifest::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value(), manifest);
}

TEST(RunManifestTest, NormalizedPinsVolatileFieldsOnly) {
  const char* argv[] = {"bench", "--r=0.5"};
  RunManifest manifest = RunManifest::Capture(/*seed=*/55, 2, argv);
  RunManifest normalized = manifest.Normalized();

  // Volatile fields become placeholders...
  EXPECT_EQ(normalized.git_sha, "<git-sha>");
  EXPECT_EQ(normalized.hostname, "<hostname>");
  EXPECT_EQ(normalized.timestamp_utc, "<timestamp>");
  EXPECT_EQ(normalized.hardware_threads, 0);
  // ...while run provenance survives.
  EXPECT_EQ(normalized.schema, manifest.schema);
  EXPECT_EQ(normalized.seed, 55u);
  EXPECT_EQ(normalized.args, manifest.args);
  // Normalizing twice is a fixed point.
  EXPECT_EQ(normalized.Normalized(), normalized);
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

TEST(RunManifestGoldenTest, NormalizedJsonMatchesGolden) {
  const char* argv[] = {"bench_golden", "--n=100", "--seed=11"};
  RunManifest manifest = RunManifest::Capture(/*seed=*/11, 3, argv);
  const std::string serialized =
      manifest.Normalized().ToJson().SerializePretty() + "\n";
  const std::string path = GoldenPath("run_manifest.json");

  if (std::getenv("TDG_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden file " << path;
    out << serialized;
    GTEST_SKIP() << "regenerated " << path;
  }

  EXPECT_EQ(serialized, ReadFile(path))
      << "normalized manifest drifted from tests/golden/run_manifest.json; "
         "if the schema change is intentional, regenerate with "
         "TDG_UPDATE_GOLDEN=1";

  // The golden bytes parse back into the normalized manifest.
  auto json = util::JsonValue::Parse(serialized);
  ASSERT_TRUE(json.ok()) << json.status();
  auto parsed = RunManifest::FromJson(json.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value(), manifest.Normalized());
}

}  // namespace
}  // namespace tdg::obs
