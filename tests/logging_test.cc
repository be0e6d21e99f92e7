#include "util/logging.h"

#include <gtest/gtest.h>

#include "util/stopwatch.h"

namespace tdg::util {
namespace {

TEST(LoggingTest, SeverityThresholdRoundTrips) {
  LogSeverity original = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kError);
  EXPECT_EQ(MinLogSeverity(), LogSeverity::kError);
  SetMinLogSeverity(original);
}

TEST(LoggingTest, InfoBelowThresholdIsSuppressed) {
  LogSeverity original = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kError);
  testing::internal::CaptureStderr();
  TDG_LOG(Info) << "should not appear";
  TDG_LOG(Error) << "should appear";
  std::string output = testing::internal::GetCapturedStderr();
  EXPECT_EQ(output.find("should not appear"), std::string::npos);
  EXPECT_NE(output.find("should appear"), std::string::npos);
  EXPECT_NE(output.find("ERROR"), std::string::npos);
  SetMinLogSeverity(original);
}

TEST(LoggingTest, LogLineCarriesBasenameAndLine) {
  LogSeverity original = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kInfo);
  testing::internal::CaptureStderr();
  TDG_LOG(Warning) << "marker";
  std::string output = testing::internal::GetCapturedStderr();
  EXPECT_NE(output.find("logging_test.cc"), std::string::npos);
  EXPECT_EQ(output.find('/'), std::string::npos);  // basename only
  SetMinLogSeverity(original);
}

TEST(CheckTest, PassingCheckIsSilent) {
  testing::internal::CaptureStderr();
  TDG_CHECK(1 + 1 == 2) << "never evaluated";
  TDG_CHECK_EQ(4, 4);
  TDG_CHECK_LT(1, 2);
  TDG_CHECK_GE(2, 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH({ TDG_CHECK(false) << "boom"; }, "Check failed");
  EXPECT_DEATH({ TDG_CHECK_EQ(1, 2); }, "Check failed");
}

TEST(CheckDeathTest, FailureMessageNamesConditionAndStreamedContext) {
  // The death message must carry both the stringified condition and the
  // caller's streamed context — that pairing is what makes a production
  // CHECK trail actionable.
  EXPECT_DEATH({ TDG_CHECK(2 + 2 == 5) << "arithmetic drifted"; },
               "Check failed: 2 \\+ 2 == 5 arithmetic drifted");
}

TEST(CheckDeathTest, EveryComparisonMacroAborts) {
  EXPECT_DEATH({ TDG_CHECK_NE(3, 3); }, "Check failed");
  EXPECT_DEATH({ TDG_CHECK_LT(2, 1); }, "Check failed");
  EXPECT_DEATH({ TDG_CHECK_LE(2, 1); }, "Check failed");
  EXPECT_DEATH({ TDG_CHECK_GT(1, 2); }, "Check failed");
  EXPECT_DEATH({ TDG_CHECK_GE(1, 2); }, "Check failed");
}

TEST(LoggingDeathTest, FatalLogFlushesMessageThenAborts) {
  // kFatal must emit the whole prefixed line before aborting — a fatal
  // message that dies unflushed is worthless in a crash triage.
  EXPECT_DEATH({ TDG_LOG(Fatal) << "fatal marker 0xf00d"; },
               "\\[FATAL .*logging_test.cc.*fatal marker 0xf00d");
}

TEST(LoggingDeathTest, FatalIsEmittedEvenAboveSeverityThreshold) {
  // SetMinLogSeverity must never be able to swallow a fatal message: the
  // process is about to die and the reason has to reach stderr.
  EXPECT_DEATH(
      {
        SetMinLogSeverity(LogSeverity::kFatal);
        TDG_LOG(Fatal) << "still visible";
      },
      "still visible");
}

TEST(LoggingTest, PrefixCarriesMonotonicTimestampAndThreadId) {
  LogSeverity original = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kInfo);
  testing::internal::CaptureStderr();
  TDG_LOG(Info) << "stamped";
  std::string output = testing::internal::GetCapturedStderr();
  // "[INFO <seconds>.<micros> t<id> logging_test.cc:<line>] stamped".
  EXPECT_NE(output.find("[INFO "), std::string::npos);
  EXPECT_NE(output.find(" t"), std::string::npos);
  EXPECT_NE(output.find('.'), std::string::npos);  // fractional seconds
  // Built with += rather than `"t" + std::to_string(...)`, which GCC 12
  // flags with a false -Wrestrict (PR105651) in Release builds.
  std::string expected_tid = "t";
  expected_tid += std::to_string(CurrentThreadId());
  EXPECT_NE(output.find(expected_tid), std::string::npos);
  SetMinLogSeverity(original);
}

TEST(LoggingTest, CurrentThreadIdIsStablePerThread) {
  int first = CurrentThreadId();
  EXPECT_GE(first, 0);
  EXPECT_EQ(CurrentThreadId(), first);
}

TEST(StopwatchTest, MeasuresElapsedTimeMonotonically) {
  Stopwatch stopwatch;
  int64_t first = stopwatch.ElapsedMicros();
  // Burn a little time.
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  int64_t second = stopwatch.ElapsedMicros();
  EXPECT_GE(first, 0);
  EXPECT_GE(second, first);
  EXPECT_NEAR(stopwatch.ElapsedMillis(), second / 1e3, 1.0);
  EXPECT_NEAR(stopwatch.ElapsedSeconds(), second / 1e6, 1e-3);

  stopwatch.Restart();
  EXPECT_LE(stopwatch.ElapsedMicros(), second);
}

// Burns CPU long enough for a steady_clock tick to register.
int64_t BurnMicros() {
  Stopwatch burn;
  volatile double sink = 0;
  while (burn.TotalMicros() < 200) sink = sink + 1;
  return burn.TotalMicros();
}

TEST(StopwatchTest, PauseFreezesTotalAndResumeContinues) {
  Stopwatch stopwatch;
  BurnMicros();
  stopwatch.Pause();
  EXPECT_FALSE(stopwatch.running());
  int64_t frozen = stopwatch.TotalMicros();
  EXPECT_GT(frozen, 0);
  BurnMicros();
  EXPECT_EQ(stopwatch.TotalMicros(), frozen);  // paused time excluded
  stopwatch.Pause();                           // idempotent
  EXPECT_EQ(stopwatch.TotalMicros(), frozen);

  stopwatch.Resume();
  EXPECT_TRUE(stopwatch.running());
  stopwatch.Resume();  // idempotent
  BurnMicros();
  EXPECT_GT(stopwatch.TotalMicros(), frozen);
}

TEST(StopwatchTest, RestartClearsAccumulatedAndPausedState) {
  Stopwatch stopwatch;
  BurnMicros();
  stopwatch.Pause();
  stopwatch.Restart();
  EXPECT_TRUE(stopwatch.running());
  EXPECT_LT(stopwatch.TotalMicros(), 200);
}

TEST(StopwatchTest, LapsPartitionTheTotal) {
  Stopwatch stopwatch;
  BurnMicros();
  int64_t lap1 = stopwatch.Lap();
  EXPECT_GT(lap1, 0);
  BurnMicros();
  int64_t lap2 = stopwatch.Lap();
  EXPECT_GT(lap2, 0);
  // Laps cover everything up to the last lap mark; the running remainder
  // keeps the total at or above their sum.
  EXPECT_GE(stopwatch.TotalMicros(), lap1 + lap2);
}

TEST(StopwatchTest, MonotonicMicrosAdvances) {
  int64_t first = MonotonicMicros();
  EXPECT_GE(first, 0);
  BurnMicros();
  EXPECT_GT(MonotonicMicros(), first);
}

}  // namespace
}  // namespace tdg::util
