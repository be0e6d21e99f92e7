#include "util/file_util.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sweep_shard_test_util.h"
#include "util/stopwatch.h"

namespace tdg::util {
namespace {

class FileUtilTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = test::MakeScratchDir(); }
  std::string Path(const std::string& name) const {
    return dir_ + "/" + name;
  }
  std::string dir_;
};

TEST_F(FileUtilTest, FileExistsReflectsCreation) {
  const std::string path = Path("exists.txt");
  EXPECT_FALSE(FileExists(path));
  ASSERT_TRUE(WriteFileAtomic(path, "x").ok());
  EXPECT_TRUE(FileExists(path));
}

TEST_F(FileUtilTest, ReadFileToStringRoundTripsBinaryContent) {
  const std::string path = Path("bin.dat");
  const std::string content("a\0b\nc\r\nd", 8);
  ASSERT_TRUE(WriteFileAtomic(path, content).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), content);
}

TEST_F(FileUtilTest, ReadMissingFileIsIOError) {
  auto read = ReadFileToString(Path("missing.txt"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

TEST_F(FileUtilTest, WriteFileAtomicReplacesWholeContent) {
  const std::string path = Path("replace.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "first version, long content").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), "second");
  // No temporary litter left behind.
  EXPECT_FALSE(FileExists(path + ".tmp." + std::to_string(::getpid())));
}

TEST_F(FileUtilTest, WriteStringToFileReplacesInPlaceAndReportsAFullDisk) {
  const std::string path = Path("plain.txt");
  ASSERT_TRUE(WriteStringToFile(path, "first version, long content").ok());
  ASSERT_TRUE(WriteStringToFile(path, "second").ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), "second");
  // /dev/full accepts the open and fails every write with ENOSPC.
  Status full = WriteStringToFile("/dev/full", "lost bytes\n");
  EXPECT_EQ(full.code(), StatusCode::kIOError) << full;
  EXPECT_FALSE(WriteStringToFile(Path("no/such/dir/out.txt"), "x").ok());
}

TEST_F(FileUtilTest, FileMtimeFollowsTheLastWrite) {
  const std::string path = Path("mtime.txt");
  const int64_t before = UnixMillis();
  ASSERT_TRUE(WriteStringToFile(path, "x").ok());
  auto mtime = FileMtimeUnixMillis(path);
  ASSERT_TRUE(mtime.ok()) << mtime.status();
  // Filesystem timestamps may be coarser than the clock; allow a second.
  EXPECT_GE(*mtime, before - 1000);
  EXPECT_LE(*mtime, UnixMillis() + 1000);
  EXPECT_FALSE(FileMtimeUnixMillis(Path("missing.txt")).ok());
}

TEST_F(FileUtilTest, FileSizeAndTruncate) {
  const std::string path = Path("trunc.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "0123456789").ok());
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok()) << size.status();
  EXPECT_EQ(size.value(), 10u);
  ASSERT_TRUE(TruncateFile(path, 4).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "0123");
  EXPECT_FALSE(TruncateFile(Path("missing.txt"), 0).ok());
}

TEST_F(FileUtilTest, DurableAppendFileAppendsAcrossReopen) {
  const std::string path = Path("append.jsonl");
  {
    auto file = DurableAppendFile::Open(path);
    ASSERT_TRUE(file.ok()) << file.status();
    ASSERT_TRUE(file->AppendLine("one").ok());
    ASSERT_TRUE(file->AppendLine("two").ok());
  }
  {
    // Reopen must append, never truncate — that is the resume contract.
    auto file = DurableAppendFile::Open(path);
    ASSERT_TRUE(file.ok()) << file.status();
    ASSERT_TRUE(file->AppendLine("three").ok());
  }
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "one\ntwo\nthree\n");
}

TEST_F(FileUtilTest, AppendAfterTruncateDropsTornTailCleanly) {
  // The resume flow: a torn final line is truncated away, then appends
  // continue — the new record must start on a fresh line, not concatenate
  // onto the partial one.
  const std::string path = Path("torn.jsonl");
  {
    auto file = DurableAppendFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->AppendLine("complete").ok());
    ASSERT_TRUE(file->AppendLine("torn-record").ok());
  }
  ASSERT_TRUE(TruncateFile(path, 9 + 4).ok());  // cut inside "torn-record"
  {
    auto file = DurableAppendFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(TruncateFile(path, 9).ok());  // resume drops the torn tail
    ASSERT_TRUE(file->AppendLine("rerun").ok());
  }
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "complete\nrerun\n");
}

TEST_F(FileUtilTest, CreateRefusesAnExistingFile) {
  const std::string path = Path("exclusive.jsonl");
  {
    auto file = DurableAppendFile::Create(path);
    ASSERT_TRUE(file.ok()) << file.status();
    ASSERT_TRUE(file->AppendLine("first").ok());
  }
  auto again = DurableAppendFile::Create(path);
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "first\n");
}

TEST_F(FileUtilTest, AppendToClosedFileFails) {
  DurableAppendFile file;
  EXPECT_FALSE(file.is_open());
  EXPECT_EQ(file.AppendLine("x").code(), StatusCode::kFailedPrecondition);
}

TEST_F(FileUtilTest, MoveTransfersOwnership) {
  const std::string path = Path("move.jsonl");
  auto file = DurableAppendFile::Open(path);
  ASSERT_TRUE(file.ok());
  DurableAppendFile moved = std::move(file).value();
  ASSERT_TRUE(moved.AppendLine("after-move").ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "after-move\n");
}

TEST_F(FileUtilTest, ReadDurableJsonlAppliesTheTornTailRule) {
  const std::string path = Path("records.jsonl");
  auto read = [&path](std::string_view content,
                      std::vector<std::string>* records) {
    EXPECT_TRUE(WriteFileAtomic(path, content).ok());
    records->clear();
    return ReadDurableJsonl(path, [records](const JsonValue& record) {
      records->push_back(record.Serialize());
      return Status::OK();
    });
  };
  std::vector<std::string> records;

  // Blank lines are skipped; an unterminated final line is torn.
  auto torn = read("{\"a\":1}\n\n{\"b\":2}\n{\"c\":", &records);
  ASSERT_TRUE(torn.ok()) << torn.status();
  EXPECT_EQ(records, std::vector<std::string>({"{\"a\":1}", "{\"b\":2}"}));
  EXPECT_EQ(torn->bytes, 17u);
  EXPECT_TRUE(torn->torn_tail);
  EXPECT_EQ(torn->records, 2);

  // Unterminated but parseable is still torn: the newline is the commit.
  auto unterminated = read("{\"a\":1}\n{\"b\":2}", &records);
  ASSERT_TRUE(unterminated.ok()) << unterminated.status();
  EXPECT_EQ(unterminated->bytes, 8u);
  EXPECT_TRUE(unterminated->torn_tail);
  EXPECT_EQ(unterminated->records, 1);

  // No durable record: a fresh start.
  for (std::string_view fresh : {"", "{\"a\"", "\n"}) {
    auto prefix = read(fresh, &records);
    ASSERT_TRUE(prefix.ok()) << prefix.status();
    EXPECT_EQ(prefix->records, 0) << fresh;
  }

  // A malformed newline-terminated line is corruption, even the last one.
  auto corrupt = read("{\"a\":1}\n{\"b\":2x\n", &records);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find(path + " line 2: malformed"),
            std::string::npos)
      << corrupt.status();

  // The caller's error stops the read, keeps its code, and names the line.
  ASSERT_TRUE(WriteFileAtomic(path, "{}\n{}\n{}\n").ok());
  int seen = 0;
  auto refused = ReadDurableJsonl(path, [&seen](const JsonValue&) {
    return ++seen == 2 ? Status::NotFound("no") : Status::OK();
  });
  EXPECT_EQ(refused.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(refused.status().message(), path + " line 2: no");
  EXPECT_EQ(seen, 2);
}

}  // namespace
}  // namespace tdg::util
