#include "net/http.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace wisdom::net {

namespace {

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
    text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t'))
    text.remove_suffix(1);
  return text;
}

bool equals_ignore_case(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  return true;
}

// Methods that carry a request body and therefore must declare its length.
bool method_has_body(std::string_view method) {
  return method == "POST" || method == "PUT" || method == "PATCH";
}

}  // namespace

std::string_view HttpRequest::path() const {
  std::string_view t(target);
  std::size_t query = t.find('?');
  return query == std::string_view::npos ? t : t.substr(0, query);
}

const std::string* HttpRequest::header(std::string_view name) const {
  for (const auto& [key, value] : headers)
    if (equals_ignore_case(key, name)) return &value;
  return nullptr;
}

HttpParser::HttpParser(HttpParserLimits limits) : limits_(limits) {}

void HttpParser::reset() {
  state_ = State::Headers;
  head_.clear();
  request_ = HttpRequest{};
  body_expected_ = 0;
  error_status_ = 0;
  error_reason_.clear();
}

HttpParser::Status HttpParser::fail(int status, std::string_view reason) {
  state_ = State::Failed;
  error_status_ = status;
  error_reason_ = reason;
  return Status::Error;
}

HttpParser::Status HttpParser::parse_head() {
  // head_ holds everything up to (not including) the final CRLFCRLF.
  std::string_view head(head_);
  std::size_t line_end = head.find("\r\n");
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  std::size_t sp1 = request_line.find(' ');
  std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp1 == 0 || sp2 == sp1 + 1 || sp2 + 1 >= request_line.size())
    return fail(400, "malformed request line");
  request_.method = std::string(request_line.substr(0, sp1));
  request_.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  request_.version = std::string(request_line.substr(sp2 + 1));
  if (request_.target.empty() || request_.target.front() != '/')
    return fail(400, "target must be origin-form");
  if (request_.version != "HTTP/1.1" && request_.version != "HTTP/1.0")
    return fail(505, "only HTTP/1.0 and HTTP/1.1 are supported");

  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  while (!rest.empty()) {
    std::size_t eol = rest.find("\r\n");
    std::string_view line =
        eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 2);
    if (line.empty()) continue;
    std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0)
      return fail(400, "malformed header line");
    request_.headers.emplace_back(to_lower(trim(line.substr(0, colon))),
                                  std::string(trim(line.substr(colon + 1))));
  }

  // Keep-alive: version default, Connection override.
  request_.keep_alive = request_.version == "HTTP/1.1";
  if (const std::string* connection = request_.header("connection")) {
    if (equals_ignore_case(*connection, "close"))
      request_.keep_alive = false;
    else if (equals_ignore_case(*connection, "keep-alive"))
      request_.keep_alive = true;
  }

  if (request_.header("transfer-encoding") != nullptr)
    return fail(400, "chunked request bodies are not accepted");

  body_expected_ = 0;
  if (const std::string* length = request_.header("content-length")) {
    if (length->empty() ||
        !std::all_of(length->begin(), length->end(), [](unsigned char c) {
          return std::isdigit(c) != 0;
        }) ||
        length->size() > 12)
      return fail(400, "malformed Content-Length");
    // Differing repeats leave the framing ambiguous (RFC 9112 §6.3);
    // identical ones agree on it.
    for (const auto& [key, value] : request_.headers)
      if (key == "content-length" && value != *length)
        return fail(400, "conflicting Content-Length");
    body_expected_ = static_cast<std::size_t>(std::stoull(*length));
    if (body_expected_ > limits_.max_body_bytes)
      return fail(413, "request body exceeds the wire-size cap");
  } else if (method_has_body(request_.method)) {
    return fail(411, "a request body requires Content-Length");
  }

  if (body_expected_ == 0) {
    state_ = State::Complete;
    return Status::Complete;
  }
  request_.body.reserve(body_expected_);
  state_ = State::Body;
  return Status::NeedMore;
}

HttpParser::Status HttpParser::feed(std::string_view data,
                                    std::size_t* consumed) {
  *consumed = 0;
  if (state_ == State::Failed) return Status::Error;
  if (state_ == State::Complete) return Status::Complete;

  if (state_ == State::Headers) {
    // Accumulate until the blank line. The terminator may straddle feeds,
    // so search the joined buffer (from just before the new bytes), not
    // the new bytes alone. head_ stays bounded: one read past the cap
    // fails with 431, so it never grows beyond cap + one socket read.
    std::size_t before = head_.size();
    head_.append(data);
    std::size_t marker =
        head_.find("\r\n\r\n", before >= 3 ? before - 3 : 0);
    if (marker == std::string::npos) {
      *consumed = data.size();
      if (head_.size() > limits_.max_header_bytes)
        return fail(431, "request head exceeds the header-size cap");
      return Status::NeedMore;
    }
    // Bytes past the blank line belong to the body (or the next request).
    *consumed = marker + 4 - before;
    head_.resize(marker);
    Status status = parse_head();
    if (status != Status::NeedMore) return status;
    data.remove_prefix(*consumed);
    // fall through to body accumulation with the leftover bytes
  }

  std::size_t want = body_expected_ - request_.body.size();
  std::size_t take = std::min(want, data.size());
  request_.body.append(data.substr(0, take));
  *consumed += take;
  if (request_.body.size() < body_expected_) return Status::NeedMore;
  state_ = State::Complete;
  return Status::Complete;
}

std::string response_head(
    int status, std::string_view reason,
    const std::vector<std::pair<std::string_view, std::string>>& headers) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\n";
  for (const auto& [name, value] : headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  return out;
}

std::string simple_response(int status, std::string_view reason,
                            std::string_view content_type,
                            std::string_view body, bool keep_alive) {
  std::string out = response_head(
      status, reason,
      {{"Content-Type", std::string(content_type)},
       {"Content-Length", std::to_string(body.size())},
       {"Connection", keep_alive ? "keep-alive" : "close"}});
  out += body;
  return out;
}

std::string chunk_frame(std::string_view payload) {
  char size[32];
  std::snprintf(size, sizeof(size), "%zx\r\n", payload.size());
  std::string out(size);
  out += payload;
  out += "\r\n";
  return out;
}

}  // namespace wisdom::net
