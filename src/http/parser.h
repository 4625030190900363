// Incremental HTTP/1.x request parser for the epoll edge reactor.
//
// The reactor feeds whatever bytes `recv` produced into `RequestParser::
// Feed`, which carries head/body state across calls — the non-blocking
// replacement for the old ReadHead/ReadBody pair that blocked a dedicated
// thread per connection. One Feed may complete zero requests (partial
// message), one, or several (pipelined HTTP/1.1), in arrival order.
//
// Hardened against remote input by construction:
//   * `Content-Length` is validated as a plain decimal token (ParseDecimal)
//     and bounded by `Limits::max_body_bytes` — the seed parser fed the raw
//     header to `std::stoull`, so "content-length: banana" threw an
//     uncaught exception in a server thread and killed the process.
//   * Header blocks are bounded by `Limits::max_header_bytes`.
//   * `Connection` is parsed as a case-insensitive token list, and HTTP/1.0
//     requests default to close — the seed compared the raw value against
//     "close", so "Connection: Close" leaked a dead keep-alive loop.

#ifndef SRC_HTTP_PARSER_H_
#define SRC_HTTP_PARSER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace ashttp {

struct HttpRequest;

// Validated decimal token for numbers that arrive from the network
// (Content-Length, x-queue-budget-ms, query cursors). Surrounding blanks
// are trimmed. Rejects (kInvalidArgument) anything but [0-9]+ — signs,
// inner blanks, the empty string — and tokens of 20+ digits, which could
// overflow uint64; rejects (kResourceExhausted) values above `max_value`.
asbase::Result<uint64_t> ParseDecimal(std::string_view value,
                                      uint64_t max_value);

// True when the request's Connection semantics call for closing after the
// response: a "close" token in the (case-insensitive, comma-separated)
// `connection` header, or an HTTP/1.0 request without "keep-alive".
bool WantsClose(const HttpRequest& request);

// True if `header_value` contains `token` as a case-insensitive element of
// its comma-separated token list ("Keep-Alive, Upgrade" contains
// "keep-alive").
bool HasConnectionToken(std::string_view header_value, std::string_view token);

class RequestParser {
 public:
  struct Limits {
    size_t max_header_bytes = 64u << 10;
    size_t max_body_bytes = 8u << 20;
  };

  RequestParser() : RequestParser(Limits{}) {}
  explicit RequestParser(Limits limits) : limits_(limits) {}

  // Consumes `data`, appending every request it completes to `*out`.
  // On error the parser is poisoned (every later Feed returns the same
  // error) and the connection should answer `StatusForParseError` and
  // close. Error codes: kInvalidArgument = malformed request line, header,
  // or Content-Length; kResourceExhausted = header block or declared body
  // over the limits.
  asbase::Status Feed(std::string_view data, std::vector<HttpRequest>* out);

  // True between messages: no partial request buffered. Idle connections in
  // this state can be reaped without cutting a half-delivered request.
  bool idle() const { return state_ == State::kHead && buffer_.empty(); }

  // Maps a Feed error to the HTTP status to answer before closing:
  // 400 for malformed input, 431 for an oversized header block, 413 for an
  // oversized declared body.
  static int StatusForParseError(const asbase::Status& error);

 private:
  enum class State { kHead, kBody };

  // Tries to cut one complete head off buffer_; moves to kBody (or emits a
  // body-less request) when the blank line is present.
  asbase::Status ConsumeHead(std::vector<HttpRequest>* out);
  asbase::Status ConsumeBody(std::vector<HttpRequest>* out);

  Limits limits_;
  State state_ = State::kHead;
  std::string buffer_;  // unconsumed head bytes / short body remainder
  std::unique_ptr<HttpRequest> current_;  // head parsed, body incomplete
  size_t body_target_ = 0;
  asbase::Status poisoned_ = asbase::OkStatus();
};

}  // namespace ashttp

#endif  // SRC_HTTP_PARSER_H_
