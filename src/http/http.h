// Minimal HTTP/1.1 for the as-visor watchdog and gateway (§3.3) and the
// `http-server` synthetic benchmark.
//
// Supported subset: request line + headers + Content-Length bodies,
// case-insensitive Connection token lists (HTTP/1.0 defaults to close),
// status lines on responses. No chunked encoding. Requests and responses
// are both read by the one incremental parser in src/http/parser.h.
//
// The server is an epoll reactor (src/http/server.cc): non-blocking
// accept + per-connection incremental parsing with HTTP/1.1 keep-alive and
// pipelining, buffered non-blocking writes, a connection cap with idle
// reaping, and a bounded worker pool for handler execution — no
// thread-per-connection anywhere. `HttpCall` is the one-shot client: it
// writes a request on a host TCP socket and feeds the reply's bytes to a
// `ResponseParser`.

#ifndef SRC_HTTP_HTTP_H_
#define SRC_HTTP_HTTP_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"

namespace ashttp {

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  std::map<std::string, std::string> headers;  // lowercase keys
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::map<std::string, std::string> headers;
  std::string body;
};

std::string Serialize(const HttpRequest& request);
std::string Serialize(const HttpResponse& response);

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

// Tuning for the edge reactor.
struct HttpServerOptions {
  // Number of epoll reactor threads. Each owns a disjoint set of
  // connections; the listener lives on reactor 0 and accepted connections
  // are dealt round-robin.
  size_t reactors = 1;
  // Handler worker threads. Parsed requests execute here, so a slow
  // invocation occupies a worker, never a reactor. 0 = max(64, 4 ×
  // hardware concurrency).
  size_t workers = 0;
  // Concurrent connection cap. Accepts past the cap answer 503 and close.
  size_t max_connections = 4096;
  // Connections idle (no partial request, nothing in flight) longer than
  // this are reaped. 0 disables.
  int64_t idle_timeout_ms = 60000;
  // Per-request parse limits (431/413 + close past them).
  size_t max_header_bytes = 64u << 10;
  size_t max_body_bytes = 8u << 20;
  // Per-connection backpressure: stop reading while this many parsed
  // requests await dispatch, or while more than max_buffered_out response
  // bytes await the socket.
  size_t max_pipeline_depth = 32;
  size_t max_buffered_out = 1u << 20;
};

namespace internal {
class EdgeReactor;      // src/http/server.cc
struct EdgeConnection;  // src/http/server.cc
}

// Epoll keep-alive HTTP server on a host TCP port (127.0.0.1).
class HttpServer {
 public:
  // port 0 picks a free port; see port() after Start().
  explicit HttpServer(HttpHandler handler, HttpServerOptions options = {});
  ~HttpServer();

  asbase::Status Start(uint16_t port = 0);
  void Stop();
  uint16_t port() const { return port_; }

  // Live accepted connections (tests / introspection).
  size_t active_connections() const;

 private:
  friend class internal::EdgeReactor;
  friend struct internal::EdgeConnection;

  HttpHandler handler_;
  HttpServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{false};
  std::atomic<size_t> active_connections_{0};
  std::atomic<size_t> accept_cursor_{0};  // round-robin reactor placement
  // Responses owed to clients: dispatched handlers whose completion hasn't
  // been processed yet, plus connections holding unflushed response bytes.
  // Stop() settles this to zero (bounded by a 5s cap) before tearing the
  // reactors down, so drain-time 503s actually reach their clients.
  std::atomic<int64_t> settle_debt_{0};
  std::vector<std::unique_ptr<internal::EdgeReactor>> reactors_;
  std::unique_ptr<asbase::ThreadPool> workers_;
};

// One-shot client against a host TCP server.
asbase::Result<HttpResponse> HttpCall(const std::string& host, uint16_t port,
                                      const HttpRequest& request);

}  // namespace ashttp

#endif  // SRC_HTTP_HTTP_H_
