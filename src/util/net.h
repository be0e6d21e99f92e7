#ifndef TDG_UTIL_NET_H_
#define TDG_UTIL_NET_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace tdg::util::net {

/// Minimal blocking TCP primitives and HttpServer, the one server core
/// under obs::StartStatsServer and serve::CohortServer. Dependency-free POSIX
/// sockets; the library targets linux. Everything binds/connects loopback
/// only — the endpoints carry no authentication, so they are deliberately
/// not reachable from other hosts (DESIGN.md §9).

/// Blocks until `fd` is readable, up to `timeout_ms` (-1 = forever).
/// Returns true when readable, false on timeout; IOError on poll failure.
StatusOr<bool> PollReadable(int fd, int timeout_ms);

/// RAII wrapper over a connected socket descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool is_open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  /// Writes all of `data`, retrying partial writes. SIGPIPE is suppressed
  /// (MSG_NOSIGNAL); a peer that hung up surfaces as IOError.
  Status WriteAll(std::string_view data);

  /// Reads until `delimiter` appears (returning everything read, delimiter
  /// included), EOF (NotFound), `max_bytes` (OutOfRange), or `timeout_ms`
  /// of *total* elapsed time (FailedPrecondition). The timeout is a hard
  /// deadline from the moment of the call, not a per-chunk progress window:
  /// a client dribbling one byte per poll interval cannot hold the socket —
  /// and with it a server worker — open forever.
  StatusOr<std::string> ReadUntil(std::string_view delimiter,
                                  size_t max_bytes, int timeout_ms);

  /// Reads until the peer closes, up to `max_bytes`, within the same total
  /// `timeout_ms` deadline semantics as ReadUntil.
  StatusOr<std::string> ReadToEof(size_t max_bytes, int timeout_ms);

 private:
  int fd_ = -1;
};

/// A listening TCP socket bound to 127.0.0.1. Port 0 requests an ephemeral
/// port; port() reports the one the kernel picked.
class ServerSocket {
 public:
  ServerSocket() = default;
  ~ServerSocket() { Close(); }

  ServerSocket(ServerSocket&& other) noexcept
      : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
    other.port_ = 0;
  }
  ServerSocket& operator=(ServerSocket&& other) noexcept;
  ServerSocket(const ServerSocket&) = delete;
  ServerSocket& operator=(const ServerSocket&) = delete;

  /// Binds (SO_REUSEADDR) and listens on 127.0.0.1:`port`.
  static StatusOr<ServerSocket> Listen(int port, int backlog = 16);

  bool is_open() const { return fd_ >= 0; }
  int port() const { return port_; }
  void Close();

  /// Waits up to `timeout_ms` for a connection. An elapsed timeout returns
  /// a socket with is_open() == false (not an error) so an accept loop can
  /// poll a stop flag between waits.
  StatusOr<Socket> AcceptWithTimeout(int timeout_ms);

 private:
  ServerSocket(int fd, int port) : fd_(fd), port_(port) {}

  int fd_ = -1;
  int port_ = 0;
};

/// Connects to 127.0.0.1:`port`.
StatusOr<Socket> ConnectLoopback(int port, int timeout_ms = 2000);

// ---------------------------------------------------------------------------
// HTTP/1.1 request machinery shared by every embedded server
// ---------------------------------------------------------------------------

/// Hard resource bounds enforced while reading one request. Every limit
/// maps to a distinct Status (and therefore a distinct HTTP error), so a
/// hostile or broken client can categorically not wedge a server thread:
/// too many header bytes → OutOfRange, a declared body larger than the cap
/// → OutOfRange, and — crucially — `read_timeout_ms` is a *total* wall-time
/// budget for the whole request (head and body), not a per-byte progress
/// window.
struct HttpLimits {
  size_t max_head_bytes = 16 * 1024;  // request line + all headers
  size_t max_body_bytes = 1 << 20;    // Content-Length cap
  int read_timeout_ms = 2000;         // total budget for the full request
};

/// One parsed HTTP/1.x request. Header names are folded to lowercase
/// (HTTP headers are case-insensitive); order of arrival is preserved.
struct HttpRequest {
  std::string method;  // as sent, e.g. "GET", "POST"
  std::string path;    // request target without the query string
  std::string query;   // bytes after '?', possibly empty
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header with the given lowercase name, or nullptr.
  const std::string* FindHeader(std::string_view lowercase_name) const;
};

/// Reads and parses one complete request from `socket` under `limits`.
/// Bodies require a valid Content-Length (Transfer-Encoding is not
/// implemented). Status codes are chosen so servers can map them directly
/// onto HTTP errors:
///   InvalidArgument     malformed request line / header / length  → 400
///   FailedPrecondition  total read deadline elapsed               → 408
///   OutOfRange          head or declared body over its limit      → 413
///   Unimplemented       Transfer-Encoding present                 → 501
///   NotFound            peer closed before a complete request
StatusOr<HttpRequest> ReadHttpRequest(Socket& socket,
                                      const HttpLimits& limits);

/// Serializes a complete HTTP/1.1 response with Content-Length and
/// `Connection: close` (every server here is one-request-per-connection).
std::string BuildHttpResponse(int code, std::string_view reason,
                              std::string_view content_type,
                              std::string_view body);

/// The error response for a failed ReadHttpRequest, per the mapping above
/// (unlisted codes become a 500).
std::string BuildHttpErrorResponse(const Status& status);

/// An application error response: `{"error": message}` JSON, the body every
/// routed endpoint uses for its 4xx/5xx answers (DESIGN.md §13).
std::string BuildHttpJsonError(int code, std::string_view reason,
                               std::string_view message);

/// The loopback HTTP/1.1 server core: one accept thread queues connections
/// (unbounded) for `num_workers` worker threads, each calling the handler
/// with one connection to read (ReadHttpRequest under limits()), answer,
/// and close. A slow client holds one worker, never the accept thread.
class HttpServer {
 public:
  struct Options {
    /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
    int port = 0;
    /// When non-empty, the bound port is written here (atomic replace).
    std::string port_file;
    int num_workers = 4;
    HttpLimits limits;
  };

  /// Runs on a worker thread, concurrently with other workers; `server` is
  /// the server that accepted the connection.
  using Handler =
      std::function<void(const HttpServer& server, Socket connection)>;

  HttpServer(Options options, Handler handler)
      : options_(std::move(options)), handler_(std::move(handler)) {}
  ~HttpServer() { Stop(); }

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, writes the port file, and launches the workers and the accept
  /// thread. Call at most once.
  Status Start();

  /// Stops accepting, lets the workers answer every connection already
  /// accepted, and joins all threads. Idempotent.
  void Stop();

  /// The actually bound port (resolves port 0 requests).
  int port() const { return listener_.port(); }
  const HttpLimits& limits() const { return options_.limits; }
  /// MonotonicMicros() when Start bound the port.
  int64_t start_micros() const { return start_micros_; }
  /// Connections taken up by a worker, counted before the handler runs: a
  /// client holding its response has always been counted.
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void WorkerLoop();

  const Options options_;
  const Handler handler_;
  ServerSocket listener_;
  int64_t start_micros_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> requests_served_{0};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Socket> queue_;  // guarded by queue_mutex_

  std::vector<std::thread> workers_;
  std::thread accept_thread_;
};

/// One-shot HTTP/1.1 GET against 127.0.0.1:`port` (the test/scripting
/// counterpart of the stats server). Returns the raw response — status
/// line, headers, body.
StatusOr<std::string> HttpGet(int port, const std::string& path,
                              int timeout_ms = 5000);

/// One-shot request with an arbitrary method and body (`Content-Length` is
/// filled in; `Connection: close`). Returns the raw response.
StatusOr<std::string> HttpDo(int port, const std::string& method,
                             const std::string& path, const std::string& body,
                             const std::string& content_type =
                                 "application/json",
                             int timeout_ms = 5000);

/// Strips the headers off a raw HTTP response, returning only the body.
/// The response must contain the "\r\n\r\n" separator.
StatusOr<std::string> HttpBody(const std::string& response);

/// Parses the status code out of "HTTP/1.1 <code> ..."; InvalidArgument on
/// anything that is not an HTTP status line.
StatusOr<int> HttpStatusCode(const std::string& response);

}  // namespace tdg::util::net

#endif  // TDG_UTIL_NET_H_
