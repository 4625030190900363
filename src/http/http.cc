#include "src/http/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <strings.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "src/http/parser.h"

namespace ashttp {
namespace {

// Response bounds for HttpCall. The edge's request bounds are
// HttpServerOptions::max_header_bytes / max_body_bytes instead.
constexpr ResponseParser::Limits kCallLimits{.max_header_bytes = 1u << 20,
                                             .max_body_bytes = 64u << 20};

// Sends `wire` on the connected socket `fd` and reads one response.
asbase::Result<HttpResponse> Exchange(int fd, std::string_view wire) {
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      return asbase::Unavailable("send failed");
    }
    sent += static_cast<size_t>(n);
  }
  ResponseParser parser(kCallLimits);
  std::vector<HttpResponse> responses;
  char buffer[8192];
  while (responses.empty()) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0) {
      return asbase::Unavailable("recv failed");
    }
    if (n == 0) {
      return asbase::Unavailable(parser.idle()
                                     ? "connection closed before response"
                                     : "connection closed mid-response");
    }
    AS_RETURN_IF_ERROR(parser.Feed(
        std::string_view(buffer, static_cast<size_t>(n)), &responses));
  }
  return std::move(responses.front());
}

}  // namespace

std::string Serialize(const HttpRequest& request) {
  const std::string version =
      request.version.empty() ? "HTTP/1.1" : request.version;
  std::string out =
      request.method + " " + request.target + " " + version + "\r\n";
  bool has_length = false;
  for (const auto& [key, value] : request.headers) {
    out += key + ": " + value + "\r\n";
    if (::strcasecmp(key.c_str(), "content-length") == 0) {
      has_length = true;
    }
  }
  if (!has_length && !request.body.empty()) {
    out += "content-length: " + std::to_string(request.body.size()) + "\r\n";
  }
  out += "\r\n";
  out += request.body;
  return out;
}

std::string Serialize(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    response.reason + "\r\n";
  for (const auto& [key, value] : response.headers) {
    out += key + ": " + value + "\r\n";
  }
  out += "content-length: " + std::to_string(response.body.size()) + "\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

asbase::Result<HttpResponse> HttpCall(const std::string& host, uint16_t port,
                                      const HttpRequest& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return asbase::Internal("socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return asbase::InvalidArgument("bad host address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return asbase::Unavailable("connect to " + host + ":" +
                               std::to_string(port) + " failed");
  }
  int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  HttpRequest to_send = request;
  to_send.headers["connection"] = "close";
  asbase::Result<HttpResponse> response = Exchange(fd, Serialize(to_send));
  ::close(fd);
  return response;
}

}  // namespace ashttp
