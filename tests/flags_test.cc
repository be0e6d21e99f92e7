#include "util/flags.h"

#include <gtest/gtest.h>

namespace tdg::util {
namespace {

FlagParser ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "binary");
  FlagParser parser;
  EXPECT_TRUE(parser.Parse(static_cast<int>(args.size()), args.data()).ok());
  return parser;
}

// Only `--name=value` carries a value: in `--r 0.5` the flag is a bare
// switch and the value is a positional argument.
TEST(FlagParserTest, EqualsAndSpaceSyntax) {
  FlagParser flags = ParseArgs({"--n=100", "--r", "0.5"});
  EXPECT_EQ(flags.GetInt("n", 0), 100);
  EXPECT_EQ(flags.GetString("r", ""), "true");
  EXPECT_DOUBLE_EQ(flags.GetDouble("r", 7.0), 7.0);
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"0.5"}));
}

// `example_tdg_cli --progress sweep --config=c.cfg`: the switch before the
// command must leave the command positional.
TEST(FlagParserTest, BareSwitchNeverSwallowsTheCommand) {
  FlagParser flags = ParseArgs({"--progress", "sweep", "--config=c.cfg"});
  EXPECT_TRUE(flags.GetBool("progress", false));
  EXPECT_EQ(flags.GetString("config", ""), "c.cfg");
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"sweep"}));
}

TEST(FlagParserTest, BareFlagIsTrue) {
  FlagParser flags = ParseArgs({"--verbose"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.HasFlag("verbose"));
  EXPECT_FALSE(flags.HasFlag("quiet"));
}

TEST(FlagParserTest, DefaultsWhenAbsentOrMalformed) {
  FlagParser flags = ParseArgs({"--n=abc"});
  EXPECT_EQ(flags.GetInt("n", 7), 7);
  EXPECT_EQ(flags.GetInt("missing", 9), 9);
  EXPECT_EQ(flags.GetString("mode", "star"), "star");
  EXPECT_FALSE(flags.GetBool("missing", false));
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser flags = ParseArgs({"input.csv", "--k=3", "output.csv"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"input.csv", "output.csv"}));
  EXPECT_EQ(flags.GetInt("k", 0), 3);
}

TEST(FlagParserTest, BoolSpellings) {
  FlagParser flags =
      ParseArgs({"--a=true", "--b=1", "--c=yes", "--d=on", "--e=false"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_TRUE(flags.GetBool("d", false));
  EXPECT_FALSE(flags.GetBool("e", true));
}

TEST(FlagParserTest, RejectsBareDoubleDash) {
  const char* args[] = {"binary", "--"};
  FlagParser parser;
  EXPECT_FALSE(parser.Parse(2, args).ok());
}

TEST(FlagParserTest, FlagFollowedByFlagIsTrue) {
  FlagParser flags = ParseArgs({"--fast", "--n=10"});
  EXPECT_TRUE(flags.GetBool("fast", false));
  EXPECT_EQ(flags.GetInt("n", 0), 10);
}

TEST(FlagParserTest, DeclaredFlagsParseAsBefore) {
  const char* args[] = {"binary", "sweep", "--config=a.cfg", "--resume",
                        "--shard_count=2", "a.ckpt"};
  FlagParser flags;
  ASSERT_TRUE(
      flags.Parse(6, args, {"config", "resume", "shard_count", "checkpoint"})
          .ok());
  EXPECT_EQ(flags.GetString("config", ""), "a.cfg");
  EXPECT_TRUE(flags.GetBool("resume", false));
  EXPECT_EQ(flags.GetInt("shard_count", 1), 2);
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"sweep", "a.ckpt"}));
}

TEST(FlagParserTest, UndeclaredFlagIsInvalidArgument) {
  // A typo and a removed flag: both must fail, never be ignored.
  for (const char* flag : {"--chekpoint=y.ckpt", "--heartbeat"}) {
    SCOPED_TRACE(flag);
    const char* args[] = {"binary", "sweep", flag};
    FlagParser flags;
    const Status status = flags.Parse(3, args, {"config", "checkpoint"});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    const std::string name = std::string(flag).substr(0, 11);
    EXPECT_NE(status.message().find("unknown flag " + name),
              std::string::npos)
        << status;
  }
  // Without a declaration every flag is accepted, as before.
  const char* args[] = {"binary", "--chekpoint=y.ckpt"};
  FlagParser flags;
  EXPECT_TRUE(flags.Parse(2, args).ok());
}

}  // namespace
}  // namespace tdg::util
