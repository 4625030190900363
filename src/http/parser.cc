#include "src/http/parser.h"

#include <algorithm>
#include <cctype>

namespace ashttp {
namespace {

char LowerChar(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

std::string LowerCopy(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = LowerChar(c);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// "METHOD SP target SP HTTP/x.y"
asbase::Status ParseStartLine(std::string_view line, HttpRequest* request) {
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return asbase::InvalidArgument("malformed request line");
  }
  request->method = std::string(line.substr(0, sp1));
  request->target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  request->version = std::string(Trim(line.substr(sp2 + 1)));
  if (request->method.empty() || request->target.empty()) {
    return asbase::InvalidArgument("malformed request line");
  }
  if (request->version.rfind("HTTP/", 0) != 0) {
    return asbase::InvalidArgument("malformed HTTP version token");
  }
  return asbase::OkStatus();
}

// "HTTP/x.y SP 3DIGIT SP reason", status in 100-599. A missing reason
// phrase is accepted; clients ignore it anyway (RFC 9112 §4).
asbase::Status ParseStartLine(std::string_view line, HttpResponse* response) {
  const size_t sp = line.find(' ');
  if (sp == std::string_view::npos || line.rfind("HTTP/", 0) != 0) {
    return asbase::InvalidArgument("malformed status line");
  }
  const std::string_view code = line.substr(sp + 1, 3);
  const std::string_view rest = line.substr(std::min(line.size(), sp + 4));
  if (code.size() != 3 ||
      !std::all_of(code.begin(), code.end(),
                   [](char c) { return c >= '0' && c <= '9'; }) ||
      (!rest.empty() && rest.front() != ' ')) {
    return asbase::InvalidArgument("malformed status line");
  }
  const int status =
      (code[0] - '0') * 100 + (code[1] - '0') * 10 + (code[2] - '0');
  if (status < 100 || status > 599) {
    return asbase::InvalidArgument("status code " + std::string(code) +
                                   " outside 100-599");
  }
  response->status = status;
  response->reason = std::string(Trim(rest));
  return asbase::OkStatus();
}

// Parses the start line plus the header lines into `*message`. `head`
// excludes the terminating blank line.
template <typename Message>
asbase::Status ParseHead(std::string_view head, Message* message) {
  const size_t line_end = std::min(head.find("\r\n"), head.size());
  AS_RETURN_IF_ERROR(ParseStartLine(head.substr(0, line_end), message));

  size_t pos = line_end + 2;
  while (pos < head.size()) {
    const size_t eol = std::min(head.find("\r\n", pos), head.size());
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return asbase::InvalidArgument("malformed header line: " +
                                     std::string(line));
    }
    message->headers[LowerCopy(line.substr(0, colon))] =
        std::string(Trim(line.substr(colon + 1)));
  }
  return asbase::OkStatus();
}

}  // namespace

asbase::Result<uint64_t> ParseDecimal(std::string_view value,
                                      uint64_t max_value) {
  value = Trim(value);
  if (value.empty() || value.size() > 19) {
    return asbase::InvalidArgument("malformed decimal '" + std::string(value) +
                                   "'");
  }
  uint64_t parsed = 0;
  for (char c : value) {
    if (c < '0' || c > '9') {
      return asbase::InvalidArgument("malformed decimal '" +
                                     std::string(value) + "'");
    }
    parsed = parsed * 10 + static_cast<uint64_t>(c - '0');
  }
  if (parsed > max_value) {
    return asbase::ResourceExhausted("value " + std::to_string(parsed) +
                                     " above limit " +
                                     std::to_string(max_value));
  }
  return parsed;
}

bool HasConnectionToken(std::string_view header_value,
                        std::string_view token) {
  size_t pos = 0;
  while (pos <= header_value.size()) {
    size_t comma = header_value.find(',', pos);
    if (comma == std::string_view::npos) {
      comma = header_value.size();
    }
    const std::string_view element =
        Trim(header_value.substr(pos, comma - pos));
    if (element.size() == token.size() &&
        std::equal(element.begin(), element.end(), token.begin(),
                   [](char a, char b) { return LowerChar(a) == b; })) {
      return true;
    }
    pos = comma + 1;
  }
  return false;
}

bool WantsClose(const HttpRequest& request) {
  const auto it = request.headers.find("connection");
  if (it != request.headers.end()) {
    if (HasConnectionToken(it->second, "close")) {
      return true;
    }
    if (HasConnectionToken(it->second, "keep-alive")) {
      return false;
    }
  }
  // No decisive token: HTTP/1.1 defaults to keep-alive, everything older
  // (or unrecognized) to close.
  return request.version != "HTTP/1.1";
}

template <typename Message>
asbase::Status MessageParser<Message>::Feed(std::string_view data,
                                            std::vector<Message>* out) {
  if (!poisoned_.ok()) {
    return poisoned_;
  }
  buffer_.append(data.data(), data.size());
  while (true) {
    if (state_ == State::kBody) {
      ConsumeBody(out);
      if (state_ == State::kBody) {
        return asbase::OkStatus();  // body still short; buffer_ is empty
      }
      continue;
    }
    const size_t buffered = buffer_.size();
    asbase::Status status = ConsumeHead(out);
    if (!status.ok()) {
      poisoned_ = status;
      return status;
    }
    // No progress: the head is still partial (or nothing is left).
    if (state_ == State::kHead && buffer_.size() == buffered) {
      return asbase::OkStatus();
    }
  }
}

template <typename Message>
asbase::Status MessageParser<Message>::ConsumeHead(std::vector<Message>* out) {
  // Ignore stray CRLF between pipelined messages (RFC 9112 §2.2).
  size_t skip = 0;
  while (skip + 1 < buffer_.size() && buffer_[skip] == '\r' &&
         buffer_[skip + 1] == '\n') {
    skip += 2;
  }
  if (skip > 0) {
    buffer_.erase(0, skip);
  }
  const size_t end = buffer_.find("\r\n\r\n");
  if (end == std::string::npos) {
    if (buffer_.size() > limits_.max_header_bytes) {
      return asbase::ResourceExhausted("header block larger than limit");
    }
    return asbase::OkStatus();
  }
  if (end > limits_.max_header_bytes) {
    return asbase::ResourceExhausted("header block larger than limit");
  }

  AS_RETURN_IF_ERROR(
      ParseHead(std::string_view(buffer_).substr(0, end), &current_));
  size_t content_length = 0;
  const auto it = current_.headers.find("content-length");
  if (it != current_.headers.end()) {
    AS_ASSIGN_OR_RETURN(content_length,
                        ParseDecimal(it->second, limits_.max_body_bytes));
  }
  buffer_.erase(0, end + 4);
  if (content_length == 0) {
    Emit(out);
    return asbase::OkStatus();
  }
  body_target_ = content_length;
  state_ = State::kBody;
  return asbase::OkStatus();
}

template <typename Message>
void MessageParser<Message>::ConsumeBody(std::vector<Message>* out) {
  const size_t take =
      std::min(body_target_ - current_.body.size(), buffer_.size());
  current_.body.append(buffer_, 0, take);
  buffer_.erase(0, take);
  if (current_.body.size() == body_target_) {
    Emit(out);
  }
}

template <typename Message>
void MessageParser<Message>::Emit(std::vector<Message>* out) {
  out->push_back(std::move(current_));
  current_ = Message{};
  body_target_ = 0;
  state_ = State::kHead;
}

template <typename Message>
int MessageParser<Message>::StatusForParseError(const asbase::Status& error) {
  if (error.code() == asbase::ErrorCode::kResourceExhausted) {
    // Distinguish "head too big" from "declared body too big" by message.
    return error.ToString().find("header") != std::string::npos ? 431 : 413;
  }
  return 400;
}

template class MessageParser<HttpRequest>;
template class MessageParser<HttpResponse>;

}  // namespace ashttp
