// Incremental HTTP/1.x message parser — the one HTTP parser in the tree.
//
// The edge reactor feeds whatever bytes `recv` produced into a
// `RequestParser`; `HttpCall` (and any raw client) feeds response bytes into
// a `ResponseParser`. Both carry head/body state across calls. One Feed may
// complete zero messages (partial), one, or several (pipelined HTTP/1.1), in
// arrival order; bytes past the last complete message stay buffered for the
// next Feed.
//
// Requests and responses share everything except the start line (RFC 9112
// §2.1): head splitting, header lines, Content-Length framing, limits and
// poisoning. A request starts with "METHOD SP target SP HTTP/x.y"; a
// response with "HTTP/x.y SP 3DIGIT SP reason", the status in 100–599. A
// message without Content-Length has an empty body (no chunked encoding).
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
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/http/http.h"

namespace ashttp {

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

// `Message` is HttpRequest or HttpResponse (explicitly instantiated in
// parser.cc; use the aliases below).
template <typename Message>
class MessageParser {
 public:
  struct Limits {
    size_t max_header_bytes = 64u << 10;
    size_t max_body_bytes = 8u << 20;
  };

  MessageParser() : MessageParser(Limits{}) {}
  explicit MessageParser(Limits limits) : limits_(limits) {}

  // Consumes `data`, appending every message it completes to `*out`.
  // On error the parser is poisoned (every later Feed returns the same
  // error); a server should answer `StatusForParseError` and close. Error
  // codes: kInvalidArgument = malformed start line, header, or
  // Content-Length; kResourceExhausted = header block or declared body over
  // the limits.
  asbase::Status Feed(std::string_view data, std::vector<Message>* out);

  // True between messages: no partial message buffered. Idle connections in
  // this state can be reaped without cutting a half-delivered request, and
  // a client that reads EOF here was not owed any bytes.
  bool idle() const { return state_ == State::kHead && buffer_.empty(); }

  // Maps a Feed error to the HTTP status to answer before closing:
  // 400 for malformed input, 431 for an oversized header block, 413 for an
  // oversized declared body.
  static int StatusForParseError(const asbase::Status& error);

 private:
  enum class State { kHead, kBody };

  // Tries to cut one complete head off buffer_ into current_; moves to
  // kBody, or emits a body-less message, when the blank line is present.
  asbase::Status ConsumeHead(std::vector<Message>* out);
  void ConsumeBody(std::vector<Message>* out);
  void Emit(std::vector<Message>* out);

  Limits limits_;
  State state_ = State::kHead;
  std::string buffer_;  // unconsumed head bytes / short body remainder
  Message current_;     // head parsed, body incomplete (kBody)
  size_t body_target_ = 0;
  asbase::Status poisoned_ = asbase::OkStatus();
};

extern template class MessageParser<HttpRequest>;
extern template class MessageParser<HttpResponse>;

using RequestParser = MessageParser<HttpRequest>;
using ResponseParser = MessageParser<HttpResponse>;

}  // namespace ashttp

#endif  // SRC_HTTP_PARSER_H_
