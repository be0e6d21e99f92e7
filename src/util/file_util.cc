#include "util/file_util.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace tdg::util {

namespace {

Status Errno(const std::string& op, const std::string& path) {
  return Status::IOError(op + " '" + path + "': " + std::strerror(errno));
}

// Directory portion of `path` ("." when the path has no slash) — what must
// be fsynced for a rename in it to be durable.
std::string DirName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open directory", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync directory", dir);
  return Status::OK();
}

}  // namespace

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read failed for '" + path + "'");
  return buffer.str();
}

StatusOr<uint64_t> FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return Errno("stat", path);
  return static_cast<uint64_t>(st.st_size);
}

Status TruncateFile(const std::string& path, uint64_t length) {
  if (::truncate(path.c_str(), static_cast<off_t>(length)) != 0) {
    return Errno("truncate", path);
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, std::string_view content) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", tmp);
  size_t written = 0;
  while (written < content.size()) {
    ssize_t n =
        ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = Errno("write", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return status;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status status = Errno("fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  }
  if (::close(fd) != 0) return Errno("close", tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status status = Errno("rename", tmp);
    ::unlink(tmp.c_str());
    return status;
  }
  return SyncDirectory(DirName(path));
}

DurableAppendFile& DurableAppendFile::operator=(
    DurableAppendFile&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<DurableAppendFile> DurableAppendFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Errno("open", path);
  return DurableAppendFile(fd);
}

Status DurableAppendFile::AppendLine(std::string_view line) {
  if (fd_ < 0) return Status::FailedPrecondition("append to closed file");
  TDG_CHECK(line.find('\n') == std::string_view::npos)
      << "AppendLine line must not contain newlines";
  std::string buffer;
  buffer.reserve(line.size() + 1);
  buffer.append(line);
  buffer.push_back('\n');
  size_t written = 0;
  while (written < buffer.size()) {
    ssize_t n = ::write(fd_, buffer.data() + written,
                        buffer.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("append write: ") +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
#if defined(__APPLE__)
  if (::fsync(fd_) != 0) {
#else
  if (::fdatasync(fd_) != 0) {
#endif
    return Status::IOError(std::string("append sync: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void DurableAppendFile::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<DurablePrefix> ReadDurableJsonl(
    const std::string& path,
    const std::function<Status(const JsonValue& record)>& on_record) {
  TDG_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  DurablePrefix prefix;
  size_t line_number = 0;
  while (prefix.bytes < content.size()) {
    ++line_number;
    const size_t newline = content.find('\n', prefix.bytes);
    if (newline == std::string::npos) {
      prefix.torn_tail = true;
      break;
    }
    const std::string_view line(content.data() + prefix.bytes,
                                newline - prefix.bytes);
    if (!line.empty()) {
      StatusOr<JsonValue> record = JsonValue::Parse(line);
      Status status = record.ok() ? on_record(*record) : record.status();
      if (!status.ok()) {
        return Status(status.code(),
                      StrFormat("%s line %zu: %s%s", path.c_str(),
                                line_number,
                                record.ok() ? "" : "malformed record: ",
                                status.message().c_str()));
      }
      ++prefix.records;
    }
    prefix.bytes = newline + 1;
  }
  return prefix;
}

}  // namespace tdg::util
