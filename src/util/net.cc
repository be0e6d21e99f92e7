#include "util/net.h"

#include <arpa/inet.h>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/file_util.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace tdg::util::net {
namespace {

// Poll granularity of HttpServer's accept loop — the latency ceiling on
// Stop().
constexpr int kAcceptPollMs = 100;

Status Errno(const char* what) {
  return Status::IOError(
      StrFormat("%s: %s", what, std::strerror(errno)));
}

sockaddr_in LoopbackAddress(int port) {
  sockaddr_in address = {};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return address;
}

/// Absolute deadline (monotonic micros) for a total timeout; -1 = forever.
int64_t DeadlineFor(int timeout_ms) {
  if (timeout_ms < 0) return -1;
  return MonotonicMicros() + static_cast<int64_t>(timeout_ms) * 1000;
}

/// Milliseconds left until `deadline_micros` (>= 0), or -1 for "forever".
/// 0 means the deadline already elapsed.
int RemainingMs(int64_t deadline_micros) {
  if (deadline_micros < 0) return -1;
  const int64_t left = deadline_micros - MonotonicMicros();
  if (left <= 0) return 0;
  return static_cast<int>((left + 999) / 1000);
}

}  // namespace

StatusOr<bool> PollReadable(int fd, int timeout_ms) {
  pollfd entry = {};
  entry.fd = fd;
  entry.events = POLLIN;
  for (;;) {
    const int ready = ::poll(&entry, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    return ready > 0;
  }
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Socket::WriteAll(std::string_view data) {
  if (fd_ < 0) return Status::FailedPrecondition("socket is closed");
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + written,
                             data.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<std::string> Socket::ReadUntil(std::string_view delimiter,
                                        size_t max_bytes, int timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("socket is closed");
  const int64_t deadline = DeadlineFor(timeout_ms);
  std::string buffer;
  char chunk[1024];
  while (buffer.find(delimiter) == std::string::npos) {
    if (buffer.size() >= max_bytes) {
      return Status::OutOfRange(StrFormat(
          "no delimiter within %zu bytes", max_bytes));
    }
    const int remaining = RemainingMs(deadline);
    if (remaining == 0) {
      return Status::FailedPrecondition("read timed out");
    }
    TDG_ASSIGN_OR_RETURN(bool readable, PollReadable(fd_, remaining));
    if (!readable) {
      return Status::FailedPrecondition("read timed out");
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      return Status::NotFound("peer closed before delimiter");
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
  return buffer;
}

StatusOr<std::string> Socket::ReadToEof(size_t max_bytes, int timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("socket is closed");
  const int64_t deadline = DeadlineFor(timeout_ms);
  std::string buffer;
  char chunk[4096];
  for (;;) {
    if (buffer.size() >= max_bytes) {
      return Status::OutOfRange(
          StrFormat("response exceeds %zu bytes", max_bytes));
    }
    const int remaining = RemainingMs(deadline);
    if (remaining == 0) {
      return Status::FailedPrecondition("read timed out");
    }
    TDG_ASSIGN_OR_RETURN(bool readable, PollReadable(fd_, remaining));
    if (!readable) {
      return Status::FailedPrecondition("read timed out");
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) return buffer;
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

ServerSocket& ServerSocket::operator=(ServerSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

void ServerSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  port_ = 0;
}

StatusOr<ServerSocket> ServerSocket::Listen(int port, int backlog) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument(
        StrFormat("port %d outside [0, 65535]", port));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in address = LoopbackAddress(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0) {
    Status status = Errno("bind");
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) != 0) {
    Status status = Errno("listen");
    ::close(fd);
    return status;
  }
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    Status status = Errno("getsockname");
    ::close(fd);
    return status;
  }
  return ServerSocket(fd, static_cast<int>(ntohs(bound.sin_port)));
}

StatusOr<Socket> ServerSocket::AcceptWithTimeout(int timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("server socket is closed");
  TDG_ASSIGN_OR_RETURN(bool readable, PollReadable(fd_, timeout_ms));
  if (!readable) return Socket();  // timeout: no connection pending
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) {
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
        errno == EWOULDBLOCK) {
      return Socket();  // transient; treat like a timeout
    }
    return Errno("accept");
  }
  return Socket(client);
}

StatusOr<Socket> ConnectLoopback(int port, int timeout_ms) {
  (void)timeout_ms;  // loopback connects complete or fail immediately
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in address = LoopbackAddress(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&address),
                   sizeof(address));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    Status status = Errno("connect");
    ::close(fd);
    return status;
  }
  return Socket(fd);
}

// ---------------------------------------------------------------------------
// HTTP request machinery
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kMaxHeaderCount = 100;

/// A header name must be a non-empty RFC 7230 token; rejecting anything
/// else keeps control bytes out of the parsed request.
bool IsValidHeaderName(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u <= ' ' || u >= 127 || c == ':') return false;
  }
  return true;
}

std::string AsciiLower(std::string_view text) {
  std::string lowered(text);
  for (char& c : lowered) {
    c = static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  }
  return lowered;
}

/// Parses "METHOD /target HTTP/1.x" into the request's method/path/query.
Status ParseRequestLine(std::string_view line, HttpRequest& request) {
  const size_t first_space = line.find(' ');
  if (first_space == std::string_view::npos || first_space == 0) {
    return Status::InvalidArgument("malformed request line");
  }
  const size_t second_space = line.find(' ', first_space + 1);
  if (second_space == std::string_view::npos) {
    return Status::InvalidArgument("malformed request line");
  }
  const std::string_view version = line.substr(second_space + 1);
  if (!StartsWith(version, "HTTP/1.")) {
    return Status::InvalidArgument("unsupported protocol version");
  }
  const std::string_view method = line.substr(0, first_space);
  for (char c : method) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u <= ' ' || u >= 127) {
      return Status::InvalidArgument("malformed method token");
    }
  }
  std::string_view target =
      line.substr(first_space + 1, second_space - first_space - 1);
  if (target.empty() || target[0] != '/') {
    return Status::InvalidArgument("request target must start with '/'");
  }
  request.method = std::string(method);
  const size_t query = target.find('?');
  if (query != std::string_view::npos) {
    request.query = std::string(target.substr(query + 1));
    target = target.substr(0, query);
  }
  request.path = std::string(target);
  return Status::OK();
}

}  // namespace

const std::string* HttpRequest::FindHeader(
    std::string_view lowercase_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lowercase_name) return &value;
  }
  return nullptr;
}

StatusOr<HttpRequest> ReadHttpRequest(Socket& socket,
                                      const HttpLimits& limits) {
  const int64_t deadline = DeadlineFor(limits.read_timeout_ms);

  // ReadUntil may over-read past the blank line; whatever follows it is the
  // leading fragment of the body.
  TDG_ASSIGN_OR_RETURN(
      std::string head_and_more,
      socket.ReadUntil("\r\n\r\n", limits.max_head_bytes,
                       limits.read_timeout_ms));
  const size_t separator = head_and_more.find("\r\n\r\n");
  const std::string_view head =
      std::string_view(head_and_more).substr(0, separator);

  HttpRequest request;
  size_t line_start = 0;
  size_t line_end = head.find("\r\n");
  TDG_RETURN_IF_ERROR(ParseRequestLine(
      head.substr(0, line_end == std::string_view::npos ? head.size()
                                                        : line_end),
      request));

  while (line_end != std::string_view::npos) {
    line_start = line_end + 2;
    line_end = head.find("\r\n", line_start);
    const std::string_view line = head.substr(
        line_start, line_end == std::string_view::npos
                        ? std::string_view::npos
                        : line_end - line_start);
    if (line.empty()) continue;
    if (request.headers.size() >= kMaxHeaderCount) {
      return Status::OutOfRange(
          StrFormat("more than %zu headers", kMaxHeaderCount));
    }
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("header line without ':'");
    }
    const std::string_view name = line.substr(0, colon);
    if (!IsValidHeaderName(name)) {
      return Status::InvalidArgument("malformed header name");
    }
    request.headers.emplace_back(AsciiLower(name),
                                 std::string(Trim(line.substr(colon + 1))));
  }

  if (request.FindHeader("transfer-encoding") != nullptr) {
    return Status::Unimplemented("Transfer-Encoding is not supported");
  }

  request.body = head_and_more.substr(separator + 4);
  size_t content_length = 0;
  if (const std::string* declared = request.FindHeader("content-length");
      declared != nullptr) {
    auto parsed = ParseInt(*declared);
    if (!parsed.ok() || parsed.value() < 0) {
      return Status::InvalidArgument("malformed Content-Length");
    }
    content_length = static_cast<size_t>(parsed.value());
    if (content_length > limits.max_body_bytes) {
      return Status::OutOfRange(StrFormat(
          "declared body of %zu bytes exceeds the %zu-byte limit",
          content_length, limits.max_body_bytes));
    }
  } else if (!request.body.empty()) {
    return Status::InvalidArgument("body bytes without Content-Length");
  }

  char chunk[4096];
  while (request.body.size() < content_length) {
    const int remaining = RemainingMs(deadline);
    if (remaining == 0) {
      return Status::FailedPrecondition("read timed out");
    }
    TDG_ASSIGN_OR_RETURN(bool readable,
                         PollReadable(socket.fd(), remaining));
    if (!readable) {
      return Status::FailedPrecondition("read timed out");
    }
    const ssize_t n = ::recv(socket.fd(), chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      return Status::NotFound("peer closed before the declared body");
    }
    request.body.append(chunk, static_cast<size_t>(n));
  }
  // A client pipelining past its declared length gets the excess dropped:
  // every server here is Connection: close, so those bytes answer nothing.
  request.body.resize(content_length);
  return request;
}

std::string BuildHttpResponse(int code, std::string_view reason,
                              std::string_view content_type,
                              std::string_view body) {
  std::string response = StrFormat(
      "HTTP/1.1 %d %.*s\r\nContent-Type: %.*s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      code, static_cast<int>(reason.size()), reason.data(),
      static_cast<int>(content_type.size()), content_type.data(),
      body.size());
  response.append(body.data(), body.size());
  return response;
}

std::string BuildHttpErrorResponse(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:  // peer hung up mid-request
      return BuildHttpResponse(400, "Bad Request", "text/plain",
                               "malformed request\n");
    case StatusCode::kFailedPrecondition:
      return BuildHttpResponse(408, "Request Timeout", "text/plain",
                               "request not received in time\n");
    case StatusCode::kOutOfRange:
      return BuildHttpResponse(413, "Payload Too Large", "text/plain",
                               "request exceeds a size limit\n");
    case StatusCode::kUnimplemented:
      return BuildHttpResponse(501, "Not Implemented", "text/plain",
                               "transfer encoding not supported\n");
    default:
      return BuildHttpResponse(500, "Internal Server Error", "text/plain",
                               "internal error\n");
  }
}

std::string BuildHttpJsonError(int code, std::string_view reason,
                               std::string_view message) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("error", std::string(message));
  return BuildHttpResponse(code, reason, "application/json",
                           json.Serialize() + "\n");
}

Status HttpServer::Start() {
  if (options_.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  TDG_ASSIGN_OR_RETURN(listener_, ServerSocket::Listen(options_.port));
  if (!options_.port_file.empty()) {
    TDG_RETURN_IF_ERROR(WriteFileAtomic(
        options_.port_file, std::to_string(listener_.port()) + "\n"));
  }
  start_micros_ = MonotonicMicros();
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!accept_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  accept_thread_.join();
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  listener_.Close();
}

void HttpServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    auto connection = listener_.AcceptWithTimeout(kAcceptPollMs);
    if (!connection.ok()) return;  // listener broke; workers drain and stop
    if (!connection->is_open()) continue;  // poll timeout — check stop flag
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      queue_.push_back(std::move(connection).value());
    }
    queue_cv_.notify_one();
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    Socket connection;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stop_.load(std::memory_order_relaxed);
      });
      // Drain what was accepted before stopping: every accepted client
      // gets a response even across shutdown.
      if (queue_.empty()) return;
      connection = std::move(queue_.front());
      queue_.pop_front();
    }
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    handler_(*this, std::move(connection));
  }
}

StatusOr<std::string> HttpGet(int port, const std::string& path,
                              int timeout_ms) {
  TDG_ASSIGN_OR_RETURN(Socket socket, ConnectLoopback(port, timeout_ms));
  const std::string request = StrFormat(
      "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n",
      path.c_str());
  TDG_RETURN_IF_ERROR(socket.WriteAll(request));
  // The server closes after responding, so EOF delimits the response.
  return socket.ReadToEof(/*max_bytes=*/16 << 20, timeout_ms);
}

StatusOr<std::string> HttpDo(int port, const std::string& method,
                             const std::string& path, const std::string& body,
                             const std::string& content_type,
                             int timeout_ms) {
  TDG_ASSIGN_OR_RETURN(Socket socket, ConnectLoopback(port, timeout_ms));
  const std::string request = StrFormat(
      "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: %s\r\n"
      "Content-Length: %zu\r\nConnection: close\r\n\r\n",
      method.c_str(), path.c_str(), content_type.c_str(), body.size());
  TDG_RETURN_IF_ERROR(socket.WriteAll(request));
  TDG_RETURN_IF_ERROR(socket.WriteAll(body));
  return socket.ReadToEof(/*max_bytes=*/16 << 20, timeout_ms);
}

StatusOr<std::string> HttpBody(const std::string& response) {
  const size_t separator = response.find("\r\n\r\n");
  if (separator == std::string::npos) {
    return Status::InvalidArgument("response has no header/body separator");
  }
  return response.substr(separator + 4);
}

StatusOr<int> HttpStatusCode(const std::string& response) {
  if (!StartsWith(response, "HTTP/1.")) {
    return Status::InvalidArgument("not an HTTP status line");
  }
  const size_t space = response.find(' ');
  if (space == std::string::npos || space + 4 > response.size()) {
    return Status::InvalidArgument("not an HTTP status line");
  }
  TDG_ASSIGN_OR_RETURN(long long code,
                       ParseInt(response.substr(space + 1, 3)));
  if (code < 100 || code > 599) {
    return Status::InvalidArgument("status code out of range");
  }
  return static_cast<int>(code);
}

}  // namespace tdg::util::net
