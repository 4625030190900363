#include "src/http/parser.h"

#include <algorithm>
#include <cctype>
#include <memory>

#include "src/http/http.h"

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

// Parses "METHOD SP target SP HTTP/x.y" plus the header lines into
// `*request`. `head` excludes the terminating blank line.
asbase::Status ParseHead(std::string_view head, HttpRequest* request) {
  const size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return asbase::InvalidArgument("malformed request line");
  }
  request->method = std::string(request_line.substr(0, sp1));
  request->target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  request->version = std::string(Trim(request_line.substr(sp2 + 1)));
  if (request->method.empty() || request->target.empty()) {
    return asbase::InvalidArgument("malformed request line");
  }
  if (request->version.rfind("HTTP/", 0) != 0) {
    return asbase::InvalidArgument("malformed HTTP version token");
  }

  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) {
      eol = head.size();
    }
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return asbase::InvalidArgument("malformed header line: " +
                                     std::string(line));
    }
    request->headers[LowerCopy(line.substr(0, colon))] =
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

asbase::Status RequestParser::Feed(std::string_view data,
                                   std::vector<HttpRequest>* out) {
  if (!poisoned_.ok()) {
    return poisoned_;
  }
  buffer_.append(data.data(), data.size());
  while (true) {
    const size_t completed_before = out->size();
    asbase::Status status = state_ == State::kHead ? ConsumeHead(out)
                                                   : ConsumeBody(out);
    if (!status.ok()) {
      poisoned_ = status;
      return status;
    }
    // Stop once a pass makes no progress: partial head or short body.
    if (out->size() == completed_before &&
        (state_ == State::kHead || buffer_.empty())) {
      return asbase::OkStatus();
    }
    if (buffer_.empty() && state_ == State::kHead) {
      return asbase::OkStatus();
    }
  }
}

asbase::Status RequestParser::ConsumeHead(std::vector<HttpRequest>* out) {
  // Ignore stray CRLF between pipelined requests (RFC 7230 §3.5).
  size_t skip = 0;
  while (skip + 1 < buffer_.size() && buffer_[skip] == '\r' &&
         buffer_[skip + 1] == '\n') {
    skip += 2;
  }
  if (skip > 0) {
    buffer_.erase(0, skip);
  }
  const size_t end = buffer_.find("\r\n\r\n");
  if (end == std::string_view::npos) {
    if (buffer_.size() > limits_.max_header_bytes) {
      return asbase::ResourceExhausted("header block larger than limit");
    }
    return asbase::OkStatus();
  }
  if (end > limits_.max_header_bytes) {
    return asbase::ResourceExhausted("header block larger than limit");
  }

  auto request = std::make_unique<HttpRequest>();
  request->headers.clear();
  AS_RETURN_IF_ERROR(
      ParseHead(std::string_view(buffer_).substr(0, end), request.get()));

  size_t content_length = 0;
  const auto it = request->headers.find("content-length");
  if (it != request->headers.end()) {
    AS_ASSIGN_OR_RETURN(content_length,
                        ParseDecimal(it->second, limits_.max_body_bytes));
  }
  buffer_.erase(0, end + 4);
  if (content_length == 0) {
    out->push_back(std::move(*request));
    return asbase::OkStatus();
  }
  current_ = std::move(request);
  body_target_ = content_length;
  state_ = State::kBody;
  return asbase::OkStatus();
}

asbase::Status RequestParser::ConsumeBody(std::vector<HttpRequest>* out) {
  const size_t need = body_target_ - current_->body.size();
  const size_t take = std::min(need, buffer_.size());
  current_->body.append(buffer_, 0, take);
  buffer_.erase(0, take);
  if (current_->body.size() == body_target_) {
    out->push_back(std::move(*current_));
    current_.reset();
    body_target_ = 0;
    state_ = State::kHead;
  }
  return asbase::OkStatus();
}

int RequestParser::StatusForParseError(const asbase::Status& error) {
  if (error.code() == asbase::ErrorCode::kResourceExhausted) {
    // Distinguish "head too big" from "declared body too big" by message.
    return error.ToString().find("header") != std::string::npos ? 431 : 413;
  }
  return 400;
}

}  // namespace ashttp
