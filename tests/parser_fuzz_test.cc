// Deterministic fuzzing of the JSON and CSV parsers with the repo's own
// xoshiro RNG. Two properties:
//
//   1. Robustness — feeding arbitrary mutations of valid documents (byte
//      flips, truncations, splices, insertions) into Parse never crashes
//      and never trips a sanitizer; malformed input comes back as a Status
//      error, not undefined behavior.
//   2. Round-trip fixed point — for any VALID document,
//      serialize(parse(serialize(x))) == serialize(x): one
//      parse→serialize cycle reaches a fixed point, so serialization is a
//      canonical form.
//
// Seeds are fixed; the fuzz corpus is identical on every run and every
// platform (the point of xoshiro over std::random_device).

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "fuzz_mutate_test_util.h"
#include "random/rng.h"
#include "util/csv.h"
#include "util/json.h"

namespace tdg {
namespace {

// --- corpus generation ----------------------------------------------------

// A random valid JSON value of bounded depth. Numbers are integers or
// short decimals (NaN/Inf are unrepresentable in JSON and excluded by
// construction); strings mix printable ASCII with characters the
// serializer must escape.
util::JsonValue RandomJson(random::Rng& rng, int depth) {
  switch (rng.NextBounded(depth <= 0 ? 4 : 6)) {
    case 0:
      return util::JsonValue::Null();
    case 1:
      return util::JsonValue(rng.NextBounded(2) == 0);
    case 2: {
      if (rng.NextBounded(2) == 0) {
        return util::JsonValue(
            static_cast<long long>(rng.NextBounded(2001)) - 1000);
      }
      return util::JsonValue(rng.NextDouble() * 100.0 - 50.0);
    }
    case 3: {
      static const char kAlphabet[] = "abcXYZ019 _-.,:\"\\\n\t{}[]/";
      std::string s;
      uint64_t len = rng.NextBounded(9);
      for (uint64_t i = 0; i < len; ++i) {
        s.push_back(kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]);
      }
      return util::JsonValue(s);
    }
    case 4: {
      util::JsonValue array = util::JsonValue::MakeArray();
      uint64_t len = rng.NextBounded(4);
      for (uint64_t i = 0; i < len; ++i) {
        array.Append(RandomJson(rng, depth - 1));
      }
      return array;
    }
    default: {
      util::JsonValue object = util::JsonValue::MakeObject();
      uint64_t len = rng.NextBounded(4);
      for (uint64_t i = 0; i < len; ++i) {
        // Built with += rather than `"k" + std::to_string(...)`, which GCC
        // 12 flags with a false -Wrestrict (PR105651) in Release builds.
        std::string key = "k";
        key += std::to_string(rng.NextBounded(100));
        object.Set(key, RandomJson(rng, depth - 1));
      }
      return object;
    }
  }
}

// A random valid CSV document. The line-based parser does not support
// newlines inside quoted fields, so fields avoid \n and \r; commas and
// quotes exercise the quoting path.
std::string RandomCsv(random::Rng& rng) {
  std::vector<std::string> header;
  uint64_t cols = 1 + rng.NextBounded(4);
  for (uint64_t c = 0; c < cols; ++c) {
    std::string name = "h";  // += for the same -Wrestrict as RandomJson's keys
    name += std::to_string(c);
    header.push_back(std::move(name));
  }
  util::CsvDocument doc(std::move(header));
  uint64_t rows = rng.NextBounded(5);
  for (uint64_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (uint64_t c = 0; c < cols; ++c) {
      static const char kAlphabet[] = "abz019 _-.,\"'%";
      std::string field;
      // A single-column row whose only field is empty would serialize to a
      // blank line, which Parse skips by design — keep that field non-empty.
      uint64_t len = (cols == 1) ? 1 + rng.NextBounded(7) : rng.NextBounded(8);
      for (uint64_t i = 0; i < len; ++i) {
        field.push_back(kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]);
      }
      row.push_back(std::move(field));
    }
    EXPECT_TRUE(doc.AddRow(std::move(row)).ok());
  }
  return doc.ToString();
}

// The mutation harness lives in fuzz_mutate_test_util.h (shared with the
// HTTP request fuzz suite); alias it into this file's historical name.
using test::Mutate;

// --- JSON -----------------------------------------------------------------

TEST(ParserFuzzTest, JsonMutationsNeverCrash) {
  random::Rng rng(0xF00D);
  std::string donor = RandomJson(rng, 3).Serialize();
  int parsed_ok = 0;
  for (int round = 0; round < 400; ++round) {
    std::string valid = RandomJson(rng, 3).Serialize();
    std::string mutated = Mutate(rng, valid, donor);
    // Must not crash, hang, or trip a sanitizer; any outcome is either a
    // value or a clean Status error.
    auto parsed = util::JsonValue::Parse(mutated);
    if (parsed.ok()) {
      ++parsed_ok;
      // Whatever survived mutation must still round-trip.
      auto reparsed = util::JsonValue::Parse(parsed->Serialize());
      ASSERT_TRUE(reparsed.ok()) << reparsed.status();
      EXPECT_TRUE(reparsed.value() == parsed.value());
    } else {
      EXPECT_FALSE(parsed.status().message().empty());
    }
    donor = std::move(mutated);
  }
  // The corpus is not degenerate: some mutants stay valid, most break.
  EXPECT_GT(parsed_ok, 0);
  EXPECT_LT(parsed_ok, 400);
}

TEST(ParserFuzzTest, JsonRoundTripFixedPoint) {
  random::Rng rng(0xBEEF);
  for (int round = 0; round < 300; ++round) {
    util::JsonValue value = RandomJson(rng, 4);
    std::string first = value.Serialize();
    auto parsed = util::JsonValue::Parse(first);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\ninput: " << first;
    EXPECT_TRUE(parsed.value() == value);
    EXPECT_EQ(parsed->Serialize(), first);
    // Pretty serialization parses back to the same value too.
    auto pretty = util::JsonValue::Parse(value.SerializePretty());
    ASSERT_TRUE(pretty.ok()) << pretty.status();
    EXPECT_TRUE(pretty.value() == value);
  }
}

// --- CSV ------------------------------------------------------------------

TEST(ParserFuzzTest, CsvMutationsNeverCrash) {
  random::Rng rng(0xCAFE);
  std::string donor = RandomCsv(rng);
  int parsed_ok = 0;
  for (int round = 0; round < 400; ++round) {
    std::string mutated = Mutate(rng, RandomCsv(rng), donor);
    auto parsed = util::CsvDocument::Parse(mutated);
    if (parsed.ok()) {
      ++parsed_ok;
      auto reparsed = util::CsvDocument::Parse(parsed->ToString());
      ASSERT_TRUE(reparsed.ok()) << reparsed.status();
      EXPECT_EQ(reparsed->ToString(), parsed->ToString());
    } else {
      EXPECT_FALSE(parsed.status().message().empty());
    }
    donor = std::move(mutated);
  }
  EXPECT_GT(parsed_ok, 0);
}

TEST(ParserFuzzTest, CsvRoundTripFixedPoint) {
  random::Rng rng(0xD1CE);
  for (int round = 0; round < 300; ++round) {
    std::string first = RandomCsv(rng);
    auto parsed = util::CsvDocument::Parse(first);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\ninput: " << first;
    EXPECT_EQ(parsed->ToString(), first);
  }
}

}  // namespace
}  // namespace tdg
