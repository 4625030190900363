// Tests for the HTTP layer over both transports (host sockets and the
// user-space netstack), plus the epoll edge reactor: keep-alive,
// pipelining, malformed-input hardening, connection cap, idle reap,
// partial writes, and thread boundedness.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <thread>

#include "src/http/http.h"
#include "src/http/parser.h"
#include "src/netstack/stack.h"
#include "src/obs/metrics.h"

namespace ashttp {
namespace {

// Feeds `wire` to `parser` seven bytes at a time, so every head/body
// boundary is crossed mid-feed; returns the messages it completed.
template <typename Message>
asbase::Status FeedInSevens(MessageParser<Message>& parser,
                            std::string_view wire, std::vector<Message>* out) {
  for (size_t pos = 0; pos < wire.size(); pos += 7) {
    AS_RETURN_IF_ERROR(parser.Feed(wire.substr(pos, 7), out));
  }
  return asbase::OkStatus();
}

TEST(HttpParseTest, RequestRoundTrip) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/wordcount";
  request.headers["x-workflow"] = "wc";
  request.body = "{\"input\":\"/data/in.txt\"}";

  RequestParser parser;
  std::vector<HttpRequest> parsed;
  ASSERT_TRUE(FeedInSevens(parser, Serialize(request), &parsed).ok());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].method, "POST");
  EXPECT_EQ(parsed[0].target, "/invoke/wordcount");
  EXPECT_EQ(parsed[0].headers.at("x-workflow"), "wc");
  EXPECT_EQ(parsed[0].body, request.body);
}

TEST(HttpParseTest, ResponseRoundTrip) {
  HttpResponse response;
  response.status = 404;
  response.reason = "Not Found";
  response.body = "no such workflow";
  ResponseParser parser;
  std::vector<HttpResponse> parsed;
  ASSERT_TRUE(FeedInSevens(parser, Serialize(response), &parsed).ok());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].status, 404);
  EXPECT_EQ(parsed[0].reason, "Not Found");
  EXPECT_EQ(parsed[0].body, "no such workflow");
  EXPECT_TRUE(parser.idle());
}

TEST(HttpParseTest, EmptyBodyWorks) {
  RequestParser parser;
  std::vector<HttpRequest> parsed;
  ASSERT_TRUE(FeedInSevens(parser, "GET /health HTTP/1.1\r\nhost: x\r\n\r\n",
                           &parsed)
                  .ok());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].target, "/health");
  EXPECT_TRUE(parsed[0].body.empty());

  // A response without Content-Length has an empty body too.
  ResponseParser response_parser;
  std::vector<HttpResponse> responses;
  ASSERT_TRUE(FeedInSevens(response_parser,
                           "HTTP/1.1 204 No Content\r\nx: y\r\n\r\n",
                           &responses)
                  .ok());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 204);
  EXPECT_TRUE(responses[0].body.empty());
}

TEST(HttpParseTest, MalformedRequestRejected) {
  RequestParser parser;
  std::vector<HttpRequest> parsed;
  EXPECT_FALSE(FeedInSevens(parser, "NONSENSE\r\n\r\n", &parsed).ok());
  EXPECT_TRUE(parsed.empty());
}

TEST(HttpParseTest, TruncatedBodyRejected) {
  // The parser completes nothing and keeps owing body bytes...
  RequestParser parser;
  std::vector<HttpRequest> parsed;
  ASSERT_TRUE(FeedInSevens(parser,
                           "POST / HTTP/1.1\r\ncontent-length: 100\r\n\r\n"
                           "only a bit",
                           &parsed)
                  .ok());
  EXPECT_TRUE(parsed.empty());
  EXPECT_FALSE(parser.idle());

  // ...so a client that reads EOF there reports the cut, not a short body.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  std::thread server([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    char request[4096];
    ssize_t got = ::recv(fd, request, sizeof(request), 0);
    (void)got;
    const std::string cut =
        "HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\nonly a bit";
    ssize_t sent = ::send(fd, cut.data(), cut.size(), MSG_NOSIGNAL);
    (void)sent;
    ::close(fd);
  });
  auto response = HttpCall("127.0.0.1", ntohs(addr.sin_port), HttpRequest{});
  server.join();
  ::close(listener);
  EXPECT_EQ(response.status().code(), asbase::ErrorCode::kUnavailable);
}

// ------------------------------------------------------------ parser units

TEST(HttpParseTest, ContentLengthValidation) {
  EXPECT_EQ(*ParseDecimal("0", 1024), 0u);
  EXPECT_EQ(*ParseDecimal("123", 1024), 123u);
  EXPECT_EQ(*ParseDecimal("  42  ", 1024), 42u);
  EXPECT_EQ(ParseDecimal("banana", 1024).status().code(),
            asbase::ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParseDecimal("-1", 1024).status().code(),
            asbase::ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParseDecimal("1 2", 1024).status().code(),
            asbase::ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParseDecimal("", 1024).status().code(),
            asbase::ErrorCode::kInvalidArgument);
  // 20+ digits would overflow uint64 — rejected by length, not by wrapping.
  EXPECT_EQ(ParseDecimal("99999999999999999999", 1024).status().code(),
            asbase::ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParseDecimal("2048", 1024).status().code(),
            asbase::ErrorCode::kResourceExhausted);
}

TEST(HttpParseTest, ConnectionTokenListIsCaseInsensitive) {
  EXPECT_TRUE(HasConnectionToken("close", "close"));
  EXPECT_TRUE(HasConnectionToken("Close", "close"));
  EXPECT_TRUE(HasConnectionToken("CLOSE", "close"));
  EXPECT_TRUE(HasConnectionToken("Keep-Alive, Upgrade", "keep-alive"));
  EXPECT_TRUE(HasConnectionToken(" keep-alive ,close", "close"));
  EXPECT_FALSE(HasConnectionToken("closed", "close"));
  EXPECT_FALSE(HasConnectionToken("keep-alive", "close"));

  HttpRequest request;
  request.version = "HTTP/1.1";
  EXPECT_FALSE(WantsClose(request));  // 1.1 defaults to keep-alive
  request.headers["connection"] = "Close";
  EXPECT_TRUE(WantsClose(request));  // the seed compared case-sensitively
  request.headers.clear();
  request.version = "HTTP/1.0";
  EXPECT_TRUE(WantsClose(request));  // 1.0 defaults to close
  request.headers["connection"] = "Keep-Alive";
  EXPECT_FALSE(WantsClose(request));
}

TEST(HttpParseTest, IncrementalParserHandlesPipelinedDribble) {
  const std::string wire =
      "POST /a HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc"
      "GET /b HTTP/1.1\r\nhost: x\r\n\r\n"
      "POST /c HTTP/1.1\r\ncontent-length: 2\r\n\r\nxy";
  RequestParser parser;
  std::vector<HttpRequest> requests;
  // One byte at a time: every head/body boundary is crossed mid-feed.
  for (char c : wire) {
    ASSERT_TRUE(parser.Feed(std::string_view(&c, 1), &requests).ok());
  }
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_EQ(requests[0].target, "/a");
  EXPECT_EQ(requests[0].body, "abc");
  EXPECT_EQ(requests[1].target, "/b");
  EXPECT_TRUE(requests[1].body.empty());
  EXPECT_EQ(requests[2].target, "/c");
  EXPECT_EQ(requests[2].body, "xy");
  EXPECT_TRUE(parser.idle());
}

TEST(HttpParseTest, ParserPoisonsOnMalformedContentLength) {
  RequestParser parser;
  std::vector<HttpRequest> requests;
  auto status = parser.Feed(
      "POST / HTTP/1.1\r\ncontent-length: banana\r\n\r\n", &requests);
  EXPECT_EQ(status.code(), asbase::ErrorCode::kInvalidArgument);
  EXPECT_EQ(RequestParser::StatusForParseError(status), 400);
  // Poisoned: later feeds keep failing rather than resyncing mid-stream.
  EXPECT_FALSE(parser.Feed("GET / HTTP/1.1\r\n\r\n", &requests).ok());
  EXPECT_TRUE(requests.empty());
}

TEST(HttpParseTest, ParserLimitsMapToHttpStatuses) {
  RequestParser::Limits limits;
  limits.max_header_bytes = 64;
  limits.max_body_bytes = 16;
  {
    RequestParser parser(limits);
    std::vector<HttpRequest> requests;
    auto status = parser.Feed(
        "GET / HTTP/1.1\r\nx-pad: " + std::string(200, 'p') + "\r\n\r\n",
        &requests);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(RequestParser::StatusForParseError(status), 431);
  }
  {
    RequestParser parser(limits);
    std::vector<HttpRequest> requests;
    auto status = parser.Feed(
        "POST / HTTP/1.1\r\ncontent-length: 1000\r\n\r\n", &requests);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(RequestParser::StatusForParseError(status), 413);
  }
}

TEST(HttpParseTest, MalformedStatusLinesRejected) {
  for (const std::string bad :
       {"HTTP/1.1 banana OK", "HTTP/1.1 20 OK", "200 OK", "HTTP/1.1 2000 OK",
        "HTTP/1.1 099 Low", "HTTP/1.1 600 High", "HTTP/1.1"}) {
    ResponseParser parser;
    std::vector<HttpResponse> responses;
    const auto status = parser.Feed(bad + "\r\n\r\n", &responses);
    EXPECT_EQ(status.code(), asbase::ErrorCode::kInvalidArgument) << bad;
    EXPECT_TRUE(responses.empty()) << bad;
  }
  // The reason phrase is free text and may be missing.
  ResponseParser parser;
  std::vector<HttpResponse> responses;
  ASSERT_TRUE(parser.Feed("HTTP/1.0 599 Custom  reason\r\n\r\n"
                          "HTTP/1.1 100\r\n\r\n",
                          &responses)
                  .ok());
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, 599);
  EXPECT_EQ(responses[0].reason, "Custom  reason");
  EXPECT_EQ(responses[1].status, 100);
  EXPECT_EQ(responses[1].reason, "");
}

TEST(HttpParseTest, ResponseParserPoisonsOnMalformedContentLength) {
  ResponseParser parser;
  std::vector<HttpResponse> responses;
  const auto status = parser.Feed(
      "HTTP/1.1 200 OK\r\ncontent-length: banana\r\n\r\n", &responses);
  EXPECT_EQ(status.code(), asbase::ErrorCode::kInvalidArgument);
  EXPECT_FALSE(parser.Feed("HTTP/1.1 200 OK\r\n\r\n", &responses).ok());
  EXPECT_TRUE(responses.empty());
}

TEST(HttpParseTest, PipelinedResponsesComeOutInOrder) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\none"
      "HTTP/1.1 404 Not Found\r\n\r\n"
      "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 5\r\n\r\nthree";
  ResponseParser parser;
  std::vector<HttpResponse> responses;
  ASSERT_TRUE(parser.Feed(wire, &responses).ok());  // all three in one Feed
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body, "one");
  EXPECT_EQ(responses[1].status, 404);
  EXPECT_TRUE(responses[1].body.empty());
  EXPECT_EQ(responses[2].status, 503);
  EXPECT_EQ(responses[2].headers.at("content-length"), "5");
  EXPECT_EQ(responses[2].body, "three");
  EXPECT_TRUE(parser.idle());
}

// ------------------------------------------------------------ reactor edge

uint64_t EdgeCounter(const std::string& name) {
  return asobs::Registry::Global().GetCounter(name).value();
}

// Raw keep-alive client against the reactor: hand-written wire in, parsed
// responses out, visibility into half-close and reaping.
class RawClient {
 public:
  explicit RawClient(uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (rcvbuf_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
    timeval timeout{};
    timeout.tv_sec = 10;  // fail loudly instead of hanging the suite
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    int enable = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  }

  ~RawClient() { ::close(fd_); }

  bool connected() const { return connected_; }

  void Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  // Next response in arrival order. The parser keeps the bytes past each
  // response, so pipelined responses that share a TCP segment are not lost.
  asbase::Result<HttpResponse> ReadOne() {
    while (ready_.empty()) {
      char buffer[65536];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n < 0) {
        return asbase::Unavailable("recv failed");
      }
      if (n == 0) {
        return asbase::Unavailable("connection closed mid-response");
      }
      std::vector<HttpResponse> parsed;
      AS_RETURN_IF_ERROR(parser_.Feed(
          std::string_view(buffer, static_cast<size_t>(n)), &parsed));
      for (auto& response : parsed) {
        ready_.push_back(std::move(response));
      }
    }
    HttpResponse response = std::move(ready_.front());
    ready_.pop_front();
    return response;
  }

  // True if the server closed the connection (EOF) before sending bytes.
  bool WaitClosed() {
    char byte;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

 private:
  int fd_ = -1;
  bool connected_ = false;
  ResponseParser parser_;
  std::deque<HttpResponse> ready_;  // parsed, not yet returned
};

HttpServer EchoServer(HttpServerOptions options) {
  return HttpServer(
      [](const HttpRequest& request) {
        HttpResponse response;
        response.body = "echo:" + request.body + " @" + request.target;
        return response;
      },
      options);
}

TEST(HttpEdgeTest, MalformedContentLengthReturns400AndServerSurvives) {
  HttpServer server = EchoServer(HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());
  const uint64_t errors_before = EdgeCounter("alloy_edge_parse_errors_total");

  for (const std::string bad :
       {"banana", "99999999999999999999999999", "-4", "1e9"}) {
    RawClient client(server.port());
    ASSERT_TRUE(client.connected());
    client.Send("POST /invoke/x HTTP/1.1\r\ncontent-length: " + bad +
                "\r\n\r\n");
    auto response = client.ReadOne();
    ASSERT_TRUE(response.ok()) << bad;
    EXPECT_EQ(response->status, 400) << bad;
    EXPECT_TRUE(client.WaitClosed()) << bad;
  }
  EXPECT_GE(EdgeCounter("alloy_edge_parse_errors_total"), errors_before + 4);

  // The process (and the listener) survived the poison requests.
  HttpRequest request;
  request.method = "POST";
  request.target = "/run";
  request.body = "still alive";
  auto response = HttpCall("127.0.0.1", server.port(), request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body, "echo:still alive @/run");
  server.Stop();
}

TEST(HttpEdgeTest, OversizedHeadersAndBodiesAreBounded) {
  HttpServerOptions options;
  options.max_header_bytes = 1024;
  options.max_body_bytes = 2048;
  HttpServer server = EchoServer(options);
  ASSERT_TRUE(server.Start(0).ok());

  {
    RawClient client(server.port());
    client.Send("GET / HTTP/1.1\r\nx-pad: " + std::string(4096, 'p') +
                "\r\n\r\n");
    auto response = client.ReadOne();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 431);
    EXPECT_TRUE(client.WaitClosed());
  }
  {
    RawClient client(server.port());
    client.Send("POST / HTTP/1.1\r\ncontent-length: 1000000\r\n\r\n");
    auto response = client.ReadOne();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 413);
    EXPECT_TRUE(client.WaitClosed());
  }
  server.Stop();
}

TEST(HttpEdgeTest, KeepAliveReusesOneConnection) {
  HttpServer server = EchoServer(HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());
  const uint64_t accepts_before = EdgeCounter("alloy_edge_accepts_total");

  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 5; ++i) {
    const std::string body = "ping" + std::to_string(i);
    client.Send("POST /kv HTTP/1.1\r\ncontent-length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body);
    auto response = client.ReadOne();
    ASSERT_TRUE(response.ok()) << i;
    EXPECT_EQ(response->body, "echo:" + body + " @/kv");
  }
  EXPECT_EQ(EdgeCounter("alloy_edge_accepts_total"), accepts_before + 1);
  server.Stop();
}

TEST(HttpEdgeTest, PipelinedRequestsAnswerInOrder) {
  HttpServer server = EchoServer(HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());

  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  std::string wire;
  for (int i = 0; i < 8; ++i) {
    wire += "GET /seq/" + std::to_string(i) + " HTTP/1.1\r\nhost: x\r\n\r\n";
  }
  client.Send(wire);  // all eight requests in one burst
  for (int i = 0; i < 8; ++i) {
    auto response = client.ReadOne();
    ASSERT_TRUE(response.ok()) << i;
    EXPECT_EQ(response->body, "echo: @/seq/" + std::to_string(i));
  }
  server.Stop();
}

TEST(HttpEdgeTest, ConnectionCloseTokenIsCaseInsensitive) {
  HttpServer server = EchoServer(HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());

  // "Connection: Close" (capitalized) must close — the seed compared the
  // raw value with == "close" and kept a dead keep-alive loop around.
  RawClient client(server.port());
  client.Send("GET /bye HTTP/1.1\r\nconnection: Close\r\n\r\n");
  auto response = client.ReadOne();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->headers.at("connection"), "close");
  EXPECT_TRUE(client.WaitClosed());

  // HTTP/1.0 without keep-alive defaults to close...
  RawClient old_client(server.port());
  old_client.Send("GET /old HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(old_client.ReadOne().ok());
  EXPECT_TRUE(old_client.WaitClosed());

  // ...but stays open when it asks for keep-alive.
  RawClient ka_client(server.port());
  ka_client.Send("GET /a HTTP/1.0\r\nconnection: Keep-Alive\r\n\r\n");
  ASSERT_TRUE(ka_client.ReadOne().ok());
  ka_client.Send("GET /b HTTP/1.0\r\nconnection: Keep-Alive\r\n\r\n");
  auto second = ka_client.ReadOne();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->body, "echo: @/b");
  server.Stop();
}

TEST(HttpEdgeTest, ConnectionCapAnswers503) {
  HttpServerOptions options;
  options.max_connections = 2;
  HttpServer server = EchoServer(options);
  ASSERT_TRUE(server.Start(0).ok());
  const uint64_t overflows_before = EdgeCounter("alloy_edge_overflows_total");

  RawClient first(server.port());
  RawClient second(server.port());
  // A round trip each guarantees both are registered before the third
  // connection reaches the accept path.
  first.Send("GET /1 HTTP/1.1\r\nhost: x\r\n\r\n");
  ASSERT_TRUE(first.ReadOne().ok());
  second.Send("GET /2 HTTP/1.1\r\nhost: x\r\n\r\n");
  ASSERT_TRUE(second.ReadOne().ok());
  EXPECT_EQ(server.active_connections(), 2u);

  RawClient third(server.port());
  ASSERT_TRUE(third.connected());  // TCP accepts; HTTP says no
  auto response = third.ReadOne();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 503);
  EXPECT_TRUE(third.WaitClosed());
  EXPECT_EQ(EdgeCounter("alloy_edge_overflows_total"), overflows_before + 1);

  // Slots free on close: a later connection gets in.
  first.ShutdownWrite();
  ASSERT_TRUE(first.WaitClosed());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.active_connections() >= 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  RawClient fourth(server.port());
  fourth.Send("GET /4 HTTP/1.1\r\nhost: x\r\n\r\n");
  auto ok_response = fourth.ReadOne();
  ASSERT_TRUE(ok_response.ok());
  EXPECT_EQ(ok_response->status, 200);
  server.Stop();
}

TEST(HttpEdgeTest, IdleConnectionsAreReaped) {
  HttpServerOptions options;
  options.idle_timeout_ms = 50;
  HttpServer server = EchoServer(options);
  ASSERT_TRUE(server.Start(0).ok());
  const uint64_t reaped_before = EdgeCounter("alloy_edge_reaped_total");

  RawClient client(server.port());
  client.Send("GET /warm HTTP/1.1\r\nhost: x\r\n\r\n");
  ASSERT_TRUE(client.ReadOne().ok());
  // Now go quiet; the reactor's reap tick should cut the connection.
  EXPECT_TRUE(client.WaitClosed());
  EXPECT_GE(EdgeCounter("alloy_edge_reaped_total"), reaped_before + 1);
  server.Stop();
}

TEST(HttpEdgeTest, MidBodyDisconnectLeavesServerHealthy) {
  HttpServer server = EchoServer(HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());
  {
    RawClient client(server.port());
    client.Send("POST /part HTTP/1.1\r\ncontent-length: 1000\r\n\r\nonly");
    // Drop the connection with 996 body bytes owed.
  }
  HttpRequest request;
  request.target = "/after";
  auto response = HttpCall("127.0.0.1", server.port(), request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  server.Stop();
}

TEST(HttpEdgeTest, PartialWritesDeliverLargeResponse) {
  // A multi-megabyte response cannot fit the kernel send buffer, so the
  // reactor must park the flush on EAGAIN, arm EPOLLOUT, and resume — while
  // the client drains through a deliberately tiny receive buffer.
  const std::string big(6u << 20, 'z');
  HttpServer server(
      [&big](const HttpRequest&) {
        HttpResponse response;
        response.body = big;
        return response;
      },
      HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());

  RawClient client(server.port(), /*rcvbuf_bytes=*/4096);
  client.Send("GET /big HTTP/1.1\r\nhost: x\r\n\r\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it park
  auto response = client.ReadOne();
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->body.size(), big.size());
  EXPECT_EQ(response->body, big);
  server.Stop();
}

size_t CountOwnThreads() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) {
    return 0;
  }
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') {
      ++count;
    }
  }
  ::closedir(dir);
  return count;
}

TEST(HttpEdgeTest, ResidentThreadsStayBoundedUnder1kConnections) {
  HttpServer server = EchoServer(HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());

  HttpRequest request;
  request.target = "/t";
  ASSERT_TRUE(HttpCall("127.0.0.1", server.port(), request).ok());
  const size_t threads_warm = CountOwnThreads();
  ASSERT_GT(threads_warm, 0u);

  // The seed kept one joinable thread per connection ever served, so 1k
  // sequential connections grew the thread table by 1k. The reactor must
  // hold the line exactly.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(HttpCall("127.0.0.1", server.port(), request).ok()) << i;
  }
  EXPECT_EQ(CountOwnThreads(), threads_warm);
  server.Stop();
}

TEST(HttpServerTest, ServesOverHostSocket) {
  HttpServer server([](const HttpRequest& request) {
    HttpResponse response;
    response.body = "echo:" + request.body + " @" + request.target;
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_NE(server.port(), 0);

  HttpRequest request;
  request.method = "POST";
  request.target = "/run";
  request.body = "payload";
  auto response = HttpCall("127.0.0.1", server.port(), request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, "echo:payload @/run");
  server.Stop();
}

TEST(HttpServerTest, ManySequentialCalls) {
  HttpServer server([](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.body;
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  for (int i = 0; i < 20; ++i) {
    HttpRequest request;
    request.method = "POST";
    request.body = std::string(static_cast<size_t>(i * 100), 'x');
    auto response = HttpCall("127.0.0.1", server.port(), request);
    ASSERT_TRUE(response.ok()) << i;
    EXPECT_EQ(response->body.size(), static_cast<size_t>(i * 100));
  }
  server.Stop();
}

TEST(HttpServerTest, CallToDeadPortFails) {
  HttpRequest request;
  EXPECT_FALSE(HttpCall("127.0.0.1", 1, request).ok());
}

// Reads one request or response off a user-space TCP connection.
template <typename Message>
asbase::Result<Message> RecvMessage(asnet::TcpConnection& connection) {
  MessageParser<Message> parser;
  std::vector<Message> messages;
  uint8_t buffer[2048];
  while (messages.empty()) {
    AS_ASSIGN_OR_RETURN(size_t n, connection.Recv(buffer));
    if (n == 0) {
      return asbase::Unavailable("connection closed mid-message");
    }
    AS_RETURN_IF_ERROR(parser.Feed(
        std::string_view(reinterpret_cast<char*>(buffer), n), &messages));
  }
  return std::move(messages.front());
}

asbase::Status SendWire(asnet::TcpConnection& connection,
                        const std::string& wire) {
  return asnet::SendAll(
      connection, std::span<const uint8_t>(
                      reinterpret_cast<const uint8_t*>(wire.data()),
                      wire.size()));
}

TEST(HttpOverNetstackTest, RequestResponseOverUserSpaceTcp) {
  asnet::VirtualSwitch fabric;
  auto server_port = fabric.Attach(asnet::MakeAddr(10, 0, 0, 1));
  auto client_port = fabric.Attach(asnet::MakeAddr(10, 0, 0, 2));
  asnet::NetStack server_stack(server_port);
  asnet::NetStack client_stack(client_port);

  auto listener = server_stack.Listen(80);
  ASSERT_TRUE(listener.ok());
  std::thread server_thread([&] {
    auto connection = (*listener)->Accept();
    ASSERT_TRUE(connection.ok());
    auto request = RecvMessage<HttpRequest>(**connection);
    ASSERT_TRUE(request.ok());
    HttpResponse response;
    response.body = "hello " + request->target;
    ASSERT_TRUE(SendWire(**connection, Serialize(response)).ok());
    (*connection)->Close();
  });

  auto connection = client_stack.Connect(server_stack.addr(), 80);
  ASSERT_TRUE(connection.ok());
  HttpRequest request;
  request.target = "/from-libos";
  ASSERT_TRUE(SendWire(**connection, Serialize(request)).ok());
  auto response = RecvMessage<HttpResponse>(**connection);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body, "hello /from-libos");
  server_thread.join();
}

}  // namespace
}  // namespace ashttp
