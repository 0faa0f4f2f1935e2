#ifndef NATIX_SERVER_HTTP_H_
#define NATIX_SERVER_HTTP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"

// A deliberately minimal HTTP/1.1 subset for the natixd serving plane:
// GET/HEAD/POST with Content-Length framing (no chunked encoding, no
// TLS, no multiplexing), keep-alive by default. Enough for curl,
// Prometheus scrapes and the closed-loop load generator — not a general
// web server.

namespace natix::server {

/// One parsed request. Header names are lower-cased; query parameters
/// and the path are percent-decoded.
struct HttpRequest {
  std::string method;
  std::string target;  ///< raw request target as sent ("/query?q=...")
  std::string path;    ///< decoded path without the query string
  std::vector<std::pair<std::string, std::string>> params;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool keep_alive = true;

  /// First query parameter named `name`, or null.
  const std::string* Param(std::string_view name) const;
  /// Header by (lower-case) name, or null.
  const std::string* Header(std::string_view name) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Percent-decodes `s`; '+' decodes to a space (form encoding).
std::string UrlDecode(std::string_view s);
/// Percent-encodes everything outside the RFC 3986 unreserved set.
std::string UrlEncode(std::string_view s);

/// The canonical reason phrase ("OK", "Not Found", ...).
const char* StatusReason(int status);

/// Reads and parses one request off `fd` (blocking; honors any
/// SO_RCVTIMEO set by the caller). Distinguished failures:
///  - kCancelled: the peer closed the connection cleanly before sending
///    a request (normal end of a keep-alive session),
///  - kDeadlineExceeded: the socket read timed out,
///  - kInvalidArgument: malformed or oversized request,
///  - kIOError: any other socket error.
Status ReadHttpRequest(int fd, HttpRequest* request);

/// Serializes `response` (status line, Content-Type, Content-Length,
/// Connection) and writes it fully to `fd`.
Status WriteHttpResponse(int fd, const HttpResponse& response,
                         bool keep_alive);

/// A blocking keep-alive client for tests and perfbench's serve-mix
/// workload: one connection, lock-step request/response.
class HttpClient {
 public:
  /// Prepares a client for 127.0.0.1:`port`; connects on first use.
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient() { Close(); }

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// GETs `target` (raw, already-encoded). Reconnects once if the
  /// server closed the keep-alive connection.
  StatusOr<HttpResponse> Get(const std::string& target);

  void Close();

 private:
  Status Connect();
  StatusOr<HttpResponse> GetOnce(const std::string& target);

  int port_;
  int fd_ = -1;
};

}  // namespace natix::server

#endif  // NATIX_SERVER_HTTP_H_
