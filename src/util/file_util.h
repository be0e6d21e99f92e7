#ifndef TDG_UTIL_FILE_UTIL_H_
#define TDG_UTIL_FILE_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/json.h"
#include "util/status.h"
#include "util/statusor.h"

namespace tdg::util {

/// Crash-safety primitives under the sweep checkpoints and the cohort
/// journals (DESIGN.md §8, §13). Everything here is POSIX; the library
/// targets linux.

/// Returns true if `path` names an existing file system entry.
bool FileExists(const std::string& path);

/// Reads the whole file into a string (binary, no newline translation).
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Returns the file's size in bytes.
StatusOr<uint64_t> FileSize(const std::string& path);

/// Returns the file's last-modification time in milliseconds since the
/// unix epoch (comparable with util::UnixMillis).
StatusOr<int64_t> FileMtimeUnixMillis(const std::string& path);

/// Shrinks (or grows, zero-filled) the file to exactly `length` bytes.
Status TruncateFile(const std::string& path, uint64_t length);

/// Writes `content` to `path` in place (create or truncate), then closes
/// it. Every failure, including one reported only by close (a full disk
/// under delayed allocation), is an IOError. Unlike WriteFileAtomic it
/// never renames, so device paths such as /dev/stdout stay usable.
Status WriteStringToFile(const std::string& path, std::string_view content);

/// Atomic whole-file replace: writes `content` to a temporary sibling
/// (`path.tmp.<pid>`), fsyncs it, renames it over `path`, then fsyncs the
/// containing directory so the rename itself survives a crash. Readers
/// never observe a partially written `path`.
Status WriteFileAtomic(const std::string& path, std::string_view content);

/// Append-only line writer with per-line durability: every AppendLine
/// issues one write() of "line\n" followed by fdatasync, so after a crash
/// the file is a well-formed JSONL prefix plus at most one torn final line.
/// Opens with O_APPEND — concurrent appends from multiple writers land
/// whole (callers still serialize lines under their own mutex so *ordering*
/// is deterministic where it matters).
class DurableAppendFile {
 public:
  DurableAppendFile() = default;
  ~DurableAppendFile() { Close(); }

  DurableAppendFile(DurableAppendFile&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  DurableAppendFile& operator=(DurableAppendFile&& other) noexcept;
  DurableAppendFile(const DurableAppendFile&) = delete;
  DurableAppendFile& operator=(const DurableAppendFile&) = delete;

  /// Opens (creating if absent, never truncating) `path` for appends.
  static StatusOr<DurableAppendFile> Open(const std::string& path);
  /// Creates `path` for appends; it must not exist yet (O_EXCL), so of two
  /// racing creators exactly one wins. An existing file is
  /// FailedPrecondition, any other failure IOError.
  static StatusOr<DurableAppendFile> Create(const std::string& path);

  bool is_open() const { return fd_ >= 0; }

  /// Appends `line` plus a trailing '\n' in a single write and syncs it to
  /// disk before returning. `line` must not itself contain '\n'.
  Status AppendLine(std::string_view line);

  /// Closes the descriptor. Idempotent.
  void Close();

 private:
  explicit DurableAppendFile(int fd) : fd_(fd) {}

  int fd_ = -1;
};

/// How far a DurableAppendFile's JSONL survived: see ReadDurableJsonl.
struct DurablePrefix {
  uint64_t bytes = 0;      // length of the durable prefix
  bool torn_tail = false;  // an unterminated final line was dropped
  long long records = 0;   // durable records; 0 means a fresh start
};

/// Reads back a JSONL file written by DurableAppendFile, under the one
/// torn-tail rule that the sweep checkpoints and the cohort journals share.
/// AppendLine writes each line with a single write() that ends in '\n', so
/// a crash can cut only the final line, and a cut line has no newline:
///   - an unterminated final line is torn: it is dropped, and the durable
///     prefix ends where it starts (a writer truncates the file to
///     `bytes` before it appends again);
///   - a newline-terminated line is durable, so one that does not parse is
///     corruption and an error, never a torn write;
///   - an empty durable prefix (`records` == 0) is a fresh start: the crash
///     came before the first record (the header) was acknowledged, so there
///     is nothing to recover.
/// Blank lines are skipped. Calls `on_record` on each durable record in
/// file order; its error stops the read. Every error names the path and
/// the line. Read-only: the file is never repaired here.
StatusOr<DurablePrefix> ReadDurableJsonl(
    const std::string& path,
    const std::function<Status(const JsonValue& record)>& on_record);

}  // namespace tdg::util

#endif  // TDG_UTIL_FILE_UTIL_H_
