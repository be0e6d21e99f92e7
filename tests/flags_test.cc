#include "util/flags.h"

#include <gtest/gtest.h>

namespace tdg::util {
namespace {

using enum FlagKind;

Status ParseInto(FlagParser& parser, std::vector<const char*> args,
                 const FlagSpec& known) {
  args.insert(args.begin(), "binary");
  return parser.Parse(static_cast<int>(args.size()), args.data(), known);
}

FlagParser ParseArgs(std::vector<const char*> args, const FlagSpec& known) {
  FlagParser parser;
  const Status status = ParseInto(parser, std::move(args), known);
  EXPECT_TRUE(status.ok()) << status;
  return parser;
}

// The message of a rejected parse; "" when the parse succeeded.
std::string ParseError(std::vector<const char*> args, const FlagSpec& known) {
  FlagParser parser;
  const Status status = ParseInto(parser, std::move(args), known);
  if (status.ok()) return "";
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  return status.message();
}

// Only `--name=value` carries a value: in `--r 0.5` the flag is a bare
// switch and the value is a positional argument.
TEST(FlagParserTest, EqualsAndSpaceSyntax) {
  FlagParser flags =
      ParseArgs({"--n=100", "--r", "0.5"}, {{"n", kInt}, {"r", kString}});
  EXPECT_EQ(flags.GetInt("n", 0), 100);
  EXPECT_EQ(flags.GetString("r", ""), "true");
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"0.5"}));
}

// `bench_table_exact_solvers --reps 3`: the space form reads reps=true,
// which an int flag rejects instead of running with the default.
TEST(FlagParserTest, SpaceFormValueStaysPositional) {
  FlagParser flags = ParseArgs({"--csv", "out.csv"}, {{"csv", kString}});
  EXPECT_EQ(flags.GetString("csv", ""), "true");
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"out.csv"}));

  const std::string error = ParseError({"--reps", "3"}, {{"reps", kInt}});
  EXPECT_NE(error.find("--reps"), std::string::npos) << error;
  EXPECT_NE(error.find("'true'"), std::string::npos) << error;
}

// `example_tdg_cli --progress sweep --config=c.cfg`: the switch before the
// command must leave the command positional.
TEST(FlagParserTest, BareSwitchNeverSwallowsTheCommand) {
  FlagParser flags =
      ParseArgs({"--progress", "sweep", "--config=c.cfg"},
                {{"progress", kBool}, {"config", kString}});
  EXPECT_TRUE(flags.GetBool("progress", false));
  EXPECT_EQ(flags.GetString("config", ""), "c.cfg");
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"sweep"}));
}

TEST(FlagParserTest, BareFlagIsTrue) {
  FlagParser flags =
      ParseArgs({"--verbose"}, {{"verbose", kBool}, {"quiet", kBool}});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("quiet", false));
}

TEST(FlagParserTest, DefaultsOnlyWhenAbsent) {
  FlagParser flags = ParseArgs(
      {"--n=0"}, {{"n", kInt}, {"missing", kInt}, {"mode", kString},
                  {"on", kBool}, {"r", kDouble}});
  EXPECT_EQ(flags.GetInt("n", 7), 0);
  EXPECT_EQ(flags.GetInt("missing", 9), 9);
  EXPECT_EQ(flags.GetString("mode", "star"), "star");
  EXPECT_FALSE(flags.GetBool("on", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("r", 0.5), 0.5);
}

// A value that does not parse as its kind never reaches a getter: Parse
// rejects it, naming the flag and the value.
TEST(FlagParserTest, MalformedValueIsInvalidArgument) {
  const FlagSpec known = {
      {"n", kInt}, {"reps", kInt}, {"r", kDouble}, {"progress", kBool}};
  for (const char* flag : {"--n=abc", "--n=", "--n=1.5", "--reps=true",
                           "--r=x", "--r=", "--progress=ture"}) {
    SCOPED_TRACE(flag);
    const std::string error = ParseError({flag}, known);
    const std::string flag_text(flag);
    const std::string name = flag_text.substr(0, flag_text.find('='));
    EXPECT_NE(error.find("flag " + name + " wants"), std::string::npos)
        << error;
  }
  FlagParser flags = ParseArgs({"--n=-3", "--r=1e-3", "--progress=off"},
                               known);
  EXPECT_EQ(flags.GetInt("n", 0), -3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("r", 0), 1e-3);
  EXPECT_FALSE(flags.GetBool("progress", true));
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser flags =
      ParseArgs({"input.csv", "--k=3", "output.csv"}, {{"k", kInt}});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"input.csv", "output.csv"}));
  EXPECT_EQ(flags.GetInt("k", 0), 3);
}

TEST(FlagParserTest, BoolSpellings) {
  FlagParser flags = ParseArgs(
      {"--a=true", "--b=1", "--c=yes", "--d=on", "--e=false", "--f=0",
       "--g=no", "--h=off"},
      {{"a", kBool}, {"b", kBool}, {"c", kBool}, {"d", kBool},
       {"e", kBool}, {"f", kBool}, {"g", kBool}, {"h", kBool}});
  for (const char* name : {"a", "b", "c", "d"}) {
    EXPECT_TRUE(flags.GetBool(name, false)) << name;
  }
  for (const char* name : {"e", "f", "g", "h"}) {
    EXPECT_FALSE(flags.GetBool(name, true)) << name;
  }
}

TEST(FlagParserTest, RejectsBareDoubleDash) {
  EXPECT_NE(ParseError({"--"}, {}), "");
}

TEST(FlagParserTest, FlagFollowedByFlagIsTrue) {
  FlagParser flags =
      ParseArgs({"--fast", "--n=10"}, {{"fast", kBool}, {"n", kInt}});
  EXPECT_TRUE(flags.GetBool("fast", false));
  EXPECT_EQ(flags.GetInt("n", 0), 10);
}

TEST(FlagParserTest, DeclaredFlagsParseAsBefore) {
  FlagParser flags = ParseArgs(
      {"sweep", "--config=a.cfg", "--resume", "--shard_count=2", "a.ckpt"},
      {{"config", kString}, {"resume", kBool}, {"shard_count", kInt},
       {"checkpoint", kString}});
  EXPECT_EQ(flags.GetString("config", ""), "a.cfg");
  EXPECT_TRUE(flags.GetBool("resume", false));
  EXPECT_EQ(flags.GetInt("shard_count", 1), 2);
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"sweep", "a.ckpt"}));
}

TEST(FlagParserTest, UndeclaredFlagIsInvalidArgument) {
  // A typo, a removed flag, and any flag of a binary that takes none: all
  // must fail, never be ignored.
  const FlagSpec known = {{"config", kString}, {"checkpoint", kString}};
  for (const char* flag : {"--chekpoint=y.ckpt", "--heartbeat"}) {
    SCOPED_TRACE(flag);
    const std::string error = ParseError({"sweep", flag}, known);
    const std::string name = std::string(flag).substr(0, 11);
    EXPECT_NE(error.find("unknown flag " + name), std::string::npos)
        << error;
  }
  EXPECT_EQ(ParseError({"--no_such_flag"}, {}), "unknown flag --no_such_flag");
}

// Reading a flag the binary never declared, or as another kind than it
// declared, is a bug in the binary, not a user error.
TEST(FlagParserDeathTest, GetterOutsideTheSpecAborts) {
  FlagParser flags = ParseArgs({"--n=3"}, {{"n", kInt}});
  EXPECT_DEATH(flags.GetInt("k", 5), "flag --k is not declared");
  EXPECT_DEATH(flags.GetString("n", ""), "flag --n is not declared");
}

}  // namespace
}  // namespace tdg::util
