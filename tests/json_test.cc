#include "util/json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "serve/cohort.h"
#include "util/string_util.h"

namespace tdg::util {
namespace {

TEST(JsonValueTest, TypePredicatesAndAccessors) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_TRUE(JsonValue(true).is_bool());
  EXPECT_TRUE(JsonValue(1.5).is_number());
  EXPECT_TRUE(JsonValue("hi").is_string());
  EXPECT_TRUE(JsonValue::MakeArray().is_array());
  EXPECT_TRUE(JsonValue::MakeObject().is_object());

  EXPECT_EQ(JsonValue(true).AsBool(), true);
  EXPECT_DOUBLE_EQ(JsonValue(2.5).AsNumber(), 2.5);
  EXPECT_EQ(JsonValue("x").AsString(), "x");
}

TEST(JsonValueTest, BuildAndSerializeCompact) {
  JsonValue root = JsonValue::MakeObject();
  root.Set("name", "tdg");
  root.Set("n", 10000);
  root.Set("ok", true);
  root.Set("ratio", 1.5);
  JsonValue list = JsonValue::MakeArray();
  list.Append(1);
  list.Append(2);
  root.Set("values", std::move(list));
  root.Set("nothing", JsonValue::Null());
  EXPECT_EQ(root.Serialize(),
            "{\"n\":10000,\"name\":\"tdg\",\"nothing\":null,\"ok\":true,"
            "\"ratio\":1.5,\"values\":[1,2]}");
}

TEST(JsonValueTest, PrettySerializationIndents) {
  JsonValue root = JsonValue::MakeObject();
  root.Set("a", 1);
  std::string pretty = root.SerializePretty();
  EXPECT_EQ(pretty, "{\n  \"a\": 1\n}");
}

TEST(JsonValueTest, PrettyNestedAndEmptyContainers) {
  JsonValue root = JsonValue::MakeObject();
  JsonValue list = JsonValue::MakeArray();
  list.Append(1);
  list.Append(-0.5);
  list.Append(JsonValue::MakeArray());
  JsonValue inner = JsonValue::MakeObject();
  inner.Set("k", "v\\w\n");
  inner.Set("none", JsonValue::Null());
  list.Append(std::move(inner));
  root.Set("list", std::move(list));
  root.Set("empty", JsonValue::MakeObject());
  root.Set("flag", false);
  EXPECT_EQ(root.SerializePretty(),
            "{\n"
            "  \"empty\": {},\n"
            "  \"flag\": false,\n"
            "  \"list\": [\n"
            "    1,\n"
            "    -0.5,\n"
            "    [],\n"
            "    {\n"
            "      \"k\": \"v\\\\w\\n\",\n"
            "      \"none\": null\n"
            "    }\n"
            "  ]\n"
            "}");
  EXPECT_EQ(root.Serialize(),
            "{\"empty\":{},\"flag\":false,"
            "\"list\":[1,-0.5,[],{\"k\":\"v\\\\w\\n\",\"none\":null}]}");
}

TEST(JsonValueTest, EscapingRoundTrips) {
  JsonValue value(std::string("line\nquote\"back\\slash\ttab"));
  auto parsed = JsonValue::Parse(value.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), value.AsString());
}

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_EQ(JsonValue::Parse("true")->AsBool(), true);
  EXPECT_EQ(JsonValue::Parse("false")->AsBool(), false);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-2.5e3")->AsNumber(), -2500.0);
  EXPECT_EQ(JsonValue::Parse("\"abc\"")->AsString(), "abc");
}

TEST(JsonParseTest, ParsesNestedStructures) {
  auto parsed = JsonValue::Parse(
      R"({"cells": [{"n": 10, "gain": 1.5}, {"n": 20, "gain": 3.25}],
          "name": "sweep"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetField("name")->AsString(), "sweep");
  // Copy out of the temporary StatusOr — binding a reference to
  // `GetField(...)->AsArray()` would dangle once the temporary dies.
  const auto cells = parsed->GetField("cells")->AsArray();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_DOUBLE_EQ(cells[1].GetField("gain")->AsNumber(), 3.25);
  EXPECT_FALSE(parsed->GetField("missing").ok());
}

TEST(JsonParseTest, UnicodeEscapes) {
  auto parsed = JsonValue::Parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "A\xc3\xa9");  // "Aé" in UTF-8
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("{'a': 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());       // trailing junk
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
  EXPECT_FALSE(JsonValue::Parse("\"bad\\escape\"").ok());
  EXPECT_FALSE(JsonValue::Parse("\"\\ud800\"").ok());  // surrogate
}

TEST(JsonParseTest, RoundTripsComplexDocument) {
  JsonValue root = JsonValue::MakeObject();
  JsonValue cells = JsonValue::MakeArray();
  for (int i = 0; i < 3; ++i) {
    JsonValue cell = JsonValue::MakeObject();
    cell.Set("index", i);
    cell.Set("gain", 1.0 / (i + 1));
    cells.Append(std::move(cell));
  }
  root.Set("cells", std::move(cells));
  root.Set("meta", JsonValue::MakeObject());

  auto reparsed = JsonValue::Parse(root.Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value(), root);
  auto reparsed_pretty = JsonValue::Parse(root.SerializePretty());
  ASSERT_TRUE(reparsed_pretty.ok());
  EXPECT_EQ(reparsed_pretty.value(), root);
}

TEST(JsonParseTest, WhitespaceTolerant) {
  auto parsed = JsonValue::Parse("  {\n\t\"a\" :\r [ 1 , 2 ]\n}  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetField("a")->AsArray().size(), 2u);
}

// --- JsonWriter -----------------------------------------------------------

/// What JsonValue has always printed for a number: "%lld" for an integral
/// value below 1e15 in magnitude, "%.17g" otherwise.
std::string PrintfNumber(double value) {
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(value));
  }
  return StrFormat("%.17g", value);
}

std::string WriterNumber(double value) {
  std::string out;
  JsonWriter(out).Number(value);
  return out;
}

TEST(JsonWriterTest, NumbersMatchPrintfByteForByte) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.5, -2.5, 1.0 / 3.0, 123456.789,
      1e21, -1e21, 1e-7, 1e100, -1e-300, 1e15, -1e15, 1e16, 2e15,
      DBL_MAX, -DBL_MAX, DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN,
      2.2250738585072009e-308,  // largest subnormal
      9007199254740992.0, 9007199254740993.0, 4503599627370495.5};
  // Integers near ±1e15, where the format switches from %lld to %.17g,
  // and half-integers beside them.
  for (double offset = -3; offset <= 3; offset += 1) {
    for (double sign : {1.0, -1.0}) {
      values.push_back(sign * (1e15 + offset));
      values.push_back(sign * (1e15 + offset + 0.5));
      values.push_back(sign * (999999999999999.0 + offset));
    }
  }
  std::mt19937_64 rng(20261017);
  for (int i = 0; i < 20000; ++i) {
    // Uniform bit patterns reach every exponent, subnormals included.
    const uint64_t bits = rng();
    double value = 0;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) values.push_back(value);
  }
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int i = 0; i < 5000; ++i) {
    const double value = unit(rng);
    values.push_back(value);
    values.push_back(std::round(value * 1e6));
    values.push_back(value * 1e15);
  }
  for (double value : values) {
    ASSERT_EQ(WriterNumber(value), PrintfNumber(value))
        << StrFormat("%a", value);
  }
}

TEST(JsonWriterTest, StreamedDocumentMatchesTheDom) {
  std::string compact;
  std::string pretty;
  for (auto [out, indent] : {std::pair{&compact, 0}, std::pair{&pretty, 2}}) {
    JsonWriter writer(*out, indent);
    writer.BeginObject();
    writer.Key("a");
    writer.BeginArray();
    writer.Number(1);
    writer.BeginObject();
    writer.EndObject();
    writer.String("x\ty");
    writer.EndArray();
    writer.Key("b");
    writer.Bool(true);
    writer.Key("c");
    writer.Null();
    writer.EndObject();
  }
  JsonValue list = JsonValue::MakeArray();
  list.Append(1);
  list.Append(JsonValue::MakeObject());
  list.Append("x\ty");
  JsonValue root = JsonValue::MakeObject();
  root.Set("a", std::move(list));
  root.Set("b", true);
  root.Set("c", JsonValue::Null());
  EXPECT_EQ(compact, root.Serialize());
  EXPECT_EQ(pretty, root.SerializePretty());
}

TEST(JsonWriterTest, ControlBytesEscapeAsLowercaseUnicode) {
  std::string raw;
  for (int c = 1; c < 0x20; ++c) raw.push_back(static_cast<char>(c));
  raw += "\x7f\xc3\xa9\"\\";
  EXPECT_EQ(JsonEscape(raw),
            "\"\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\b\\t\\n"
            "\\u000b\\f\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014"
            "\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d"
            "\\u001e\\u001f\x7f\xc3\xa9\\\"\\\\\"");
  auto parsed = JsonValue::Parse(JsonEscape(raw));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->AsString(), raw);
}

TEST(JsonWriterTest, EscapeHelperMatchesTheWriterOnEveryByte) {
  for (int b = 0; b < 256; ++b) {
    // The escape rule, spelled out apart from the code under test.
    std::string escaped;
    switch (b) {
      case '"':
        escaped = "\\\"";
        break;
      case '\\':
        escaped = "\\\\";
        break;
      case '\n':
        escaped = "\\n";
        break;
      case '\r':
        escaped = "\\r";
        break;
      case '\t':
        escaped = "\\t";
        break;
      case '\b':
        escaped = "\\b";
        break;
      case '\f':
        escaped = "\\f";
        break;
      default:
        escaped = b < 0x20 ? StrFormat("\\u%04x", b)
                           : std::string(1, static_cast<char>(b));
    }
    // The byte alone, and inside a run of plain bytes that is copied whole.
    std::string alone(1, static_cast<char>(b));
    std::string inside = "ab";
    inside += alone;
    inside += "yz";
    for (const auto& [text, body] :
         {std::pair<std::string, std::string>{alone, escaped},
          std::pair<std::string, std::string>{inside,
                                              "ab" + escaped + "yz"}}) {
      SCOPED_TRACE(StrFormat("byte 0x%02x in '%s'", b, text.c_str()));
      std::string expected = "\"";
      expected += body;
      expected += '"';
      ASSERT_EQ(JsonStringSize(text), expected.size());
      std::string written(expected.size(), '\0');
      EXPECT_EQ(WriteJsonString(text, written.data()),
                written.data() + written.size());
      EXPECT_EQ(written, expected);
      EXPECT_EQ(JsonEscape(text), expected);  // JsonWriter::String
    }
  }
  EXPECT_EQ(JsonStringSize(""), 2u);
  char empty[2];
  EXPECT_EQ(WriteJsonString(std::string_view(), empty), empty + 2);
  EXPECT_EQ(std::string_view(empty, 2), "\"\"");
}

/// The round wire form as a DOM, member by member — what the server
/// answered before rounds were streamed.
JsonValue RoundDom(const serve::CohortRound& round, int round_index) {
  JsonValue assignment = JsonValue::MakeArray();
  for (int g : *round.assignment) assignment.Append(g);
  JsonValue keys = JsonValue::MakeArray();
  for (size_t i = 0; i < round.ids->size(); ++i) keys.Append(round.key(i));
  JsonValue json = JsonValue::MakeObject();
  json.Set("assignment", std::move(assignment));
  json.Set("gain", round.gain);
  json.Set("keys", std::move(keys));
  json.Set("num_groups", round.num_groups);
  json.Set("round", round_index);
  return json;
}

TEST(JsonWriterTest, CohortRoundWithPunctuationKeysStreamsExactly) {
  // ValidateParticipantKey admits every printable byte but '/' and '"',
  // so keys carry backslashes (one spells out a unicode escape, which must
  // stay six literal bytes) and the JSON punctuation the writer must leave
  // alone.
  const std::vector<std::string> keys = {
      "back\\slash", "\\", "trail\\\\", "\\u0041", "{[]}:,", "'single'",
      "~!@#$%^&*()_+=-`", "<>?;|", "sp ace", "plain"};
  std::vector<serve::CohortParticipant> participants;
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(serve::ValidateParticipantKey(keys[i]).ok()) << keys[i];
    participants.push_back({keys[i], 1.0 + 0.3 * static_cast<double>(i)});
  }
  serve::CohortConfig config;
  config.group_size = 3;
  auto cohort = serve::Cohort::Create("punct", config, participants);
  ASSERT_TRUE(cohort.ok()) << cohort.status();
  ASSERT_TRUE(cohort->Advance().ok());
  ASSERT_TRUE(cohort->Leave("{[]}:,").ok());
  ASSERT_TRUE(cohort->Join("new\\comer", 2.0).ok());
  ASSERT_TRUE(cohort->Advance().ok());
  for (int t = 0; t < cohort->rounds_advanced(); ++t) {
    const serve::CohortRound& round =
        cohort->rounds()[static_cast<size_t>(t)];
    std::string streamed;
    serve::AppendCohortRoundJson(round, t, streamed);
    EXPECT_EQ(streamed, serve::CohortRoundToJson(round, t).Serialize());
    EXPECT_EQ(streamed, RoundDom(round, t).Serialize());
    auto parsed = JsonValue::Parse(streamed);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const JsonValue parsed_array = *parsed->GetField("keys");
    ASSERT_EQ(parsed_array.AsArray().size(), round.ids->size());
    for (size_t i = 0; i < round.ids->size(); ++i) {
      EXPECT_EQ(parsed_array.AsArray()[i].AsString(), round.key(i));
    }
  }
}

}  // namespace
}  // namespace tdg::util
