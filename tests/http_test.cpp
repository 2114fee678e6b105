// HTTP front-end tests: parser robustness (torn reads, pipelining, caps),
// the /v1 status table over the wire via the FaultInjector, and the
// streaming contract — applying the SSE append/reset deltas in order must
// reproduce the single-shot snippet byte-for-byte at compute-pool widths 1
// and 4.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/packing.hpp"
#include "net/event_loop.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "serve/api.hpp"
#include "serve/fault.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "test_util.hpp"
#include "text/bpe.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace wisdom;
using net::HttpParser;

std::string request_bytes(std::string_view method, std::string_view target,
                          std::string_view body,
                          std::string_view extra_headers = "") {
  std::string out = std::string(method) + " " + std::string(target) +
                    " HTTP/1.1\r\nHost: test\r\n";
  out += extra_headers;
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  out += body;
  return out;
}

// --- parser unit tests -----------------------------------------------------

TEST(HttpParser, ParsesCompleteRequest) {
  HttpParser parser;
  std::string bytes = request_bytes("POST", "/v1/suggest", "{\"a\": 1}",
                                    "Content-Type: application/json\r\n");
  std::size_t consumed = 0;
  ASSERT_EQ(parser.feed(bytes, &consumed), HttpParser::Status::Complete);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(parser.request().method, "POST");
  EXPECT_EQ(parser.request().target, "/v1/suggest");
  EXPECT_EQ(parser.request().body, "{\"a\": 1}");
  // Header names are lowercased on parse.
  ASSERT_NE(parser.request().header("content-type"), nullptr);
  EXPECT_EQ(*parser.request().header("content-type"), "application/json");
  EXPECT_TRUE(parser.request().keep_alive);
}

TEST(HttpParser, TornReadsByteByByte) {
  std::string bytes =
      request_bytes("POST", "/v1/suggest", "{\"prompt\": \"x\"}");
  HttpParser parser;
  HttpParser::Status result = HttpParser::Status::NeedMore;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::size_t consumed = 0;
    result = parser.feed(std::string_view(&bytes[i], 1), &consumed);
    if (i + 1 < bytes.size()) {
      ASSERT_EQ(result, HttpParser::Status::NeedMore) << "at byte " << i;
      ASSERT_EQ(consumed, 1u);
    }
  }
  ASSERT_EQ(result, HttpParser::Status::Complete);
  EXPECT_EQ(parser.request().body, "{\"prompt\": \"x\"}");
}

TEST(HttpParser, PipelinedRequestsParseInTurn) {
  std::string first = request_bytes("POST", "/a", "one");
  std::string second = request_bytes("POST", "/b", "two");
  std::string bytes = first + second;
  HttpParser parser;
  std::size_t consumed = 0;
  ASSERT_EQ(parser.feed(bytes, &consumed), HttpParser::Status::Complete);
  EXPECT_EQ(consumed, first.size());
  EXPECT_EQ(parser.request().target, "/a");
  EXPECT_EQ(parser.request().body, "one");
  parser.reset();
  std::string_view rest = std::string_view(bytes).substr(consumed);
  ASSERT_EQ(parser.feed(rest, &consumed), HttpParser::Status::Complete);
  EXPECT_EQ(consumed, second.size());
  EXPECT_EQ(parser.request().target, "/b");
  EXPECT_EQ(parser.request().body, "two");
}

TEST(HttpParser, OversizedBodyIs413BeforeBuffering) {
  net::HttpParserLimits limits;
  limits.max_body_bytes = 64;
  HttpParser parser(limits);
  // The declared length alone must trip the refusal — no body bytes sent.
  std::string head =
      "POST /v1/suggest HTTP/1.1\r\nContent-Length: 65\r\n\r\n";
  std::size_t consumed = 0;
  ASSERT_EQ(parser.feed(head, &consumed), HttpParser::Status::Error);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParser, PostWithoutLengthIs411) {
  HttpParser parser;
  std::size_t consumed = 0;
  ASSERT_EQ(parser.feed("POST /v1/x HTTP/1.1\r\nHost: t\r\n\r\n", &consumed),
            HttpParser::Status::Error);
  EXPECT_EQ(parser.error_status(), 411);
}

TEST(HttpParser, HeaderOverflowIs431) {
  net::HttpParserLimits limits;
  limits.max_header_bytes = 128;
  HttpParser parser(limits);
  std::string bytes = "GET / HTTP/1.1\r\nX-Filler: " +
                      std::string(256, 'a');  // never terminated
  std::size_t consumed = 0;
  ASSERT_EQ(parser.feed(bytes, &consumed), HttpParser::Status::Error);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, UnsupportedVersionIs505) {
  HttpParser parser;
  std::size_t consumed = 0;
  ASSERT_EQ(parser.feed("GET / HTTP/2.0\r\n\r\n", &consumed),
            HttpParser::Status::Error);
  EXPECT_EQ(parser.error_status(), 505);
}

TEST(HttpParser, MalformedRequestLineIs400) {
  HttpParser parser;
  std::size_t consumed = 0;
  ASSERT_EQ(parser.feed("NOT-HTTP\r\n\r\n", &consumed),
            HttpParser::Status::Error);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParser, TransferEncodingRequestIs400) {
  HttpParser parser;
  std::size_t consumed = 0;
  ASSERT_EQ(parser.feed("POST /v1/x HTTP/1.1\r\nTransfer-Encoding: "
                        "chunked\r\n\r\n",
                        &consumed),
            HttpParser::Status::Error);
  EXPECT_EQ(parser.error_status(), 400);
}

// Two Content-Length values that differ leave the framing ambiguous: a
// parser that took the first would read the rest of the body as the next
// pipelined request. It is a 400, like every other parser error. Repeats
// of one value agree on the framing and stay accepted.
TEST(HttpParser, ConflictingContentLengthIs400) {
  {
    HttpParser parser;
    std::size_t consumed = 0;
    ASSERT_EQ(parser.feed("POST /v1/x HTTP/1.1\r\nContent-Length: 5\r\n"
                          "Content-Length: 12\r\n\r\nhelloGET / HTTP",
                          &consumed),
              HttpParser::Status::Error);
    EXPECT_EQ(parser.error_status(), 400);
  }
  {
    HttpParser parser;
    std::size_t consumed = 0;
    ASSERT_EQ(parser.feed("POST /v1/x HTTP/1.1\r\nContent-Length: 5\r\n"
                          "Content-Length: 5\r\n\r\nhello",
                          &consumed),
              HttpParser::Status::Complete);
    EXPECT_EQ(parser.request().body, "hello");
  }
}

TEST(HttpParser, KeepAliveDefaultsPerVersion) {
  {
    HttpParser parser;
    std::size_t consumed = 0;
    ASSERT_EQ(parser.feed("GET / HTTP/1.1\r\n\r\n", &consumed),
              HttpParser::Status::Complete);
    EXPECT_TRUE(parser.request().keep_alive);
  }
  {
    HttpParser parser;
    std::size_t consumed = 0;
    ASSERT_EQ(parser.feed("GET / HTTP/1.0\r\n\r\n", &consumed),
              HttpParser::Status::Complete);
    EXPECT_FALSE(parser.request().keep_alive);
  }
  {
    HttpParser parser;
    std::size_t consumed = 0;
    ASSERT_EQ(
        parser.feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", &consumed),
        HttpParser::Status::Complete);
    EXPECT_FALSE(parser.request().keep_alive);
  }
  {
    HttpParser parser;
    std::size_t consumed = 0;
    ASSERT_EQ(parser.feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                          &consumed),
              HttpParser::Status::Complete);
    EXPECT_TRUE(parser.request().keep_alive);
  }
}

// --- status table ----------------------------------------------------------

TEST(ApiTable, ServiceErrorToHttpStatus) {
  using serve::ServiceError;
  EXPECT_EQ(serve::http_status(ServiceError::None), 200);
  EXPECT_EQ(serve::http_status(ServiceError::InvalidRequest), 400);
  EXPECT_EQ(serve::http_status(ServiceError::DeadlineExceeded), 408);
  EXPECT_EQ(serve::http_status(ServiceError::LintRejected), 422);
  EXPECT_EQ(serve::http_status(ServiceError::Overloaded), 429);
  EXPECT_EQ(serve::http_status(ServiceError::Draining), 503);
  // A degraded-but-served response is still a 200.
  serve::SuggestionResponse response;
  response.ok = true;
  response.degraded = true;
  response.error = ServiceError::DeadlineExceeded;
  EXPECT_EQ(serve::http_status(response), 200);
  EXPECT_EQ(serve::api_version_prefix(serve::ApiVersion::V1), "/v1");
}

// --- end-to-end over loopback ----------------------------------------------

// The tests' micro model: seconds to train, deterministic, schema-shaped
// output. Shared across every e2e test; built by test_util.hpp.
wisdom::testutil::TrainedMicroModel& tiny() {
  return wisdom::testutil::trained_tiny();
}

// Minimal blocking client for tests: one connection, full-response reads
// (Content-Length or chunked).
class BlockingClient {
 public:
  struct Response {
    int status = 0;
    std::string head;
    std::string body;  // chunked responses: concatenated chunk payloads
    bool chunked = false;
  };

  explicit BlockingClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
    int one = 1;
    if (fd_ >= 0)
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~BlockingClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return fd_ >= 0; }

  void send_all(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }

  // Blocks until one complete response (or EOF) is available.
  std::optional<Response> read_response() {
    while (true) {
      std::optional<Response> parsed = try_parse();
      if (parsed) return parsed;
      char buffer[8192];
      ssize_t n = ::read(fd_, buffer, sizeof(buffer));
      if (n <= 0) return std::nullopt;
      buf_.append(buffer, static_cast<std::size_t>(n));
    }
  }

  // True when the peer closed the connection (EOF on a blocking read).
  bool at_eof() {
    char byte;
    return ::read(fd_, &byte, 1) == 0;
  }

 private:
  std::optional<Response> try_parse() {
    std::size_t head_end = buf_.find("\r\n\r\n");
    if (head_end == std::string::npos) return std::nullopt;
    Response response;
    response.head = buf_.substr(0, head_end);
    if (std::sscanf(buf_.c_str() + 9, "%d", &response.status) != 1)
      return std::nullopt;
    response.chunked =
        response.head.find("Transfer-Encoding: chunked") != std::string::npos;
    std::size_t consumed = head_end + 4;
    if (response.chunked) {
      std::size_t at = consumed;
      while (true) {
        std::size_t line_end = buf_.find("\r\n", at);
        if (line_end == std::string::npos) return std::nullopt;
        std::size_t size = std::strtoull(buf_.c_str() + at, nullptr, 16);
        std::size_t payload_at = line_end + 2;
        if (buf_.size() < payload_at + size + 2) return std::nullopt;
        if (size == 0) {
          consumed = payload_at + 2;
          break;
        }
        response.body.append(buf_, payload_at, size);
        at = payload_at + size + 2;
      }
    } else {
      std::size_t body_len = 0;
      std::size_t at = response.head.find("Content-Length: ");
      if (at != std::string::npos)
        body_len = std::strtoull(buf_.c_str() + at + 16, nullptr, 10);
      if (buf_.size() < consumed + body_len) return std::nullopt;
      response.body = buf_.substr(consumed, body_len);
      consumed += body_len;
    }
    buf_.erase(0, consumed);
    return response;
  }

  int fd_ = -1;
  std::string buf_;
};

// Undoes util::json_escape for the SSE delta payloads.
std::string json_unescape(std::string_view text) {
  std::string out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 >= text.size()) {
      out += text[i];
      continue;
    }
    char next = text[++i];
    switch (next) {
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u':
        if (i + 4 < text.size()) {
          out += static_cast<char>(
              std::strtoul(std::string(text.substr(i + 1, 4)).c_str(),
                           nullptr, 16));
          i += 4;
        }
        break;
      default: out += next; break;
    }
  }
  return out;
}

// Applies the SSE append/reset deltas in order; returns the reconstructed
// snippet and fills the final `done` response.
std::string apply_sse(const std::string& body,
                      std::optional<serve::SuggestionResponse>* done) {
  std::string accumulated;
  std::size_t at = 0;
  while (at < body.size()) {
    std::size_t end = body.find("\n\n", at);
    if (end == std::string::npos) end = body.size();
    std::string_view event = std::string_view(body).substr(at, end - at);
    at = end + 2;
    if (event.rfind("event: done\ndata: ", 0) == 0) {
      *done = serve::response_from_json(
          event.substr(std::strlen("event: done\ndata: ")));
    } else if (event.rfind("data: {\"text\": \"", 0) == 0) {
      std::size_t text_at = std::strlen("data: {\"text\": \"");
      std::size_t text_end = event.find("\", \"reset\":", text_at);
      if (text_end == std::string_view::npos) { ADD_FAILURE(); continue; }
      bool reset =
          event.find("\"reset\": true", text_end) != std::string_view::npos;
      std::string delta =
          json_unescape(event.substr(text_at, text_end - text_at));
      if (reset)
        accumulated = delta;
      else
        accumulated += delta;
    } else if (!event.empty()) {
      ADD_FAILURE() << "unrecognized SSE event: " << event;
    }
  }
  return accumulated;
}

std::string suggest_json(std::string_view prompt) {
  serve::SuggestionRequest request;
  request.prompt = std::string(prompt);
  return serve::to_json(request);
}

// Server harness: a service and HTTP server on an ephemeral port.
struct Harness {
  serve::InferenceService service;
  net::HttpServer server;

  explicit Harness(serve::ServiceOptions service_options = {},
                   net::ServerOptions server_options = {})
      : service(tiny().model, tiny().tokenizer, service_options),
        server(service, server_options) {
    EXPECT_TRUE(server.start());
  }
  ~Harness() { server.stop(); }

  BlockingClient client() { return BlockingClient(server.port()); }
};

// --- lifecycle --------------------------------------------------------------

// A stop issued before the loop thread reaches run() must not be lost, or
// HttpServer::stop() would join a loop that never exits. The posted
// closure still runs (run() drains the final batch), and the stopped loop
// can run again.
TEST(EventLoop, StopBeforeRunReturns) {
  net::EventLoop loop;
  ASSERT_TRUE(loop.valid());
  bool drained = false;
  loop.post([&] { drained = true; });
  loop.stop();
  auto ran = std::async(std::launch::async, [&] { loop.run(); });
  const bool returned =
      ran.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  if (!returned) loop.stop();  // unblock the hung loop so the test ends
  ran.wait();
  EXPECT_TRUE(returned) << "run() missed a stop() issued before it";
  EXPECT_TRUE(drained);

  // The next run() serves I/O until a handler stops it.
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0);
  bool handled = false;
  loop.add(fds[0], EPOLLIN, [&](std::uint32_t) {
    char byte = 0;
    handled = ::read(fds[0], &byte, 1) == 1;
    loop.stop();
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  loop.run();
  EXPECT_TRUE(handled) << "a second run() returned without serving I/O";
  loop.remove(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(HttpServer, StartThenImmediateStopNeverHangs) {
  serve::InferenceService service(tiny().model, tiny().tokenizer);
  net::HttpServer server(service);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(server.start()) << "iteration " << i;
    server.stop();
  }
}

TEST(HttpE2E, SingleShotMatchesInProcessSuggest) {
  Harness harness;
  serve::SuggestionRequest request;
  request.prompt = "Install redis";
  serve::SuggestionResponse expected = harness.service.suggest(request);

  BlockingClient client = harness.client();
  ASSERT_TRUE(client.connected());
  client.send_all(
      request_bytes("POST", "/v1/suggest", suggest_json("Install redis")));
  auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  auto wire = serve::response_from_json(response->body);
  ASSERT_TRUE(wire.has_value());
  EXPECT_TRUE(wire->ok);
  EXPECT_EQ(wire->snippet, expected.snippet);
}

// The core streaming contract: concatenating the append/reset deltas
// reproduces the single-shot snippet byte-for-byte at compute-pool widths
// 1 and 4.
TEST(HttpE2E, StreamMatchesSingleShotGreedy) {
  for (int threads : {1, 4}) {
    util::ThreadPool::set_global_threads(threads);
    Harness harness;
    for (const char* prompt :
         {"Install nginx", "Install redis", "Install htop and jq"}) {
      BlockingClient single = harness.client();
      single.send_all(
          request_bytes("POST", "/v1/suggest", suggest_json(prompt)));
      auto single_response = single.read_response();
      ASSERT_TRUE(single_response.has_value());
      ASSERT_EQ(single_response->status, 200);
      auto single_wire = serve::response_from_json(single_response->body);
      ASSERT_TRUE(single_wire.has_value());

      BlockingClient stream = harness.client();
      stream.send_all(
          request_bytes("POST", "/v1/suggest/stream", suggest_json(prompt)));
      auto stream_response = stream.read_response();
      ASSERT_TRUE(stream_response.has_value());
      ASSERT_EQ(stream_response->status, 200);
      ASSERT_TRUE(stream_response->chunked);
      std::optional<serve::SuggestionResponse> done;
      std::string accumulated = apply_sse(stream_response->body, &done);
      ASSERT_TRUE(done.has_value());
      EXPECT_TRUE(done->ok);
      // Stream-internal consistency and stream-vs-single-shot identity.
      EXPECT_EQ(accumulated, done->snippet)
          << "threads=" << threads << " prompt=" << prompt;
      EXPECT_EQ(accumulated, single_wire->snippet)
          << "threads=" << threads << " prompt=" << prompt;
    }
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(HttpE2E, PipelinedKeepAliveRequests) {
  Harness harness;
  BlockingClient client = harness.client();
  ASSERT_TRUE(client.connected());
  // Both requests in one write; responses must come back in order on the
  // same connection.
  client.send_all(
      request_bytes("POST", "/v1/suggest", suggest_json("Install git")) +
      request_bytes("GET", "/v1/healthz", ""));
  auto first = client.read_response();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, 200);
  EXPECT_TRUE(serve::response_from_json(first->body).has_value());
  auto second = client.read_response();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, 200);
  EXPECT_NE(second->body.find("accepting"), std::string::npos);
}

TEST(HttpE2E, OversizedBodyRefusedWith413) {
  net::ServerOptions server_options;
  server_options.max_body_bytes = 256;
  Harness harness({}, server_options);
  BlockingClient client = harness.client();
  ASSERT_TRUE(client.connected());
  client.send_all("POST /v1/suggest HTTP/1.1\r\nHost: t\r\n"
                  "Content-Length: 100000\r\n\r\n");
  auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 413);
  // Protocol-level refusals close the connection.
  EXPECT_TRUE(client.at_eof());
}

TEST(HttpE2E, ErrorStatusTableOverTheWire) {
  serve::FaultInjector faults;
  serve::ServiceOptions service_options;
  service_options.faults = &faults;
  service_options.fallback_enabled = false;
  service_options.queue_capacity = 4;
  // One token cannot complete a task, so with no fault set the
  // reject-degraded gate refuses the answer: 422.
  service_options.max_new_tokens = 1;
  service_options.lint_policy = serve::LintPolicy::RejectDegraded;
  Harness harness(service_options);

  auto post = [&](std::string_view target, std::string_view body) {
    BlockingClient client = harness.client();
    client.send_all(request_bytes("POST", target, body));
    auto response = client.read_response();
    EXPECT_TRUE(response.has_value());
    return response ? response->status : -1;
  };

  EXPECT_EQ(post("/v1/suggest", "this is not json"), 400);
  EXPECT_EQ(post("/suggest", suggest_json("x")), 404);      // unversioned
  EXPECT_EQ(post("/v1/nope", suggest_json("x")), 404);
  EXPECT_EQ(post("/v1/healthz", ""), 405);                  // POST on GET-only

  EXPECT_EQ(post("/v1/suggest", suggest_json("Install vim")), 422);

  faults.set_force_queue_full(true);
  EXPECT_EQ(post("/v1/suggest", suggest_json("Install vim")), 429);
  faults.set_force_queue_full(false);

  faults.set_slow_decode_after_tokens(0);
  EXPECT_EQ(post("/v1/suggest", suggest_json("Install vim")), 408);
  faults.reset();

  // Drain: admin endpoint flips healthz to 503 and refuses new work.
  BlockingClient admin = harness.client();
  admin.send_all(request_bytes("POST", "/v1/admin/drain", ""));
  auto drain_response = admin.read_response();
  ASSERT_TRUE(drain_response.has_value());
  EXPECT_EQ(drain_response->status, 200);

  BlockingClient health = harness.client();
  health.send_all("GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  auto health_response = health.read_response();
  ASSERT_TRUE(health_response.has_value());
  EXPECT_EQ(health_response->status, 503);
  EXPECT_EQ(post("/v1/suggest", suggest_json("Install vim")), 503);
}

TEST(HttpE2E, MetricsExposeHttpFamilies) {
  Harness harness;
  BlockingClient client = harness.client();
  client.send_all(
      request_bytes("POST", "/v1/suggest", suggest_json("Install jq")));
  ASSERT_TRUE(client.read_response().has_value());
  client.send_all("GET /v1/metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  auto metrics = client.read_response();
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  for (const char* family :
       {"wisdom_http_connections_opened_total", "wisdom_http_requests_total",
        "wisdom_http_responses_total", "wisdom_http_status_2xx_total"}) {
    EXPECT_NE(metrics->body.find(family), std::string::npos) << family;
  }
}

// A drain issued while a stream is in flight must let the stream finish
// (valid done event, deltas == snippet) before the drain completes.
TEST(HttpE2E, DrainMidStreamCompletesInFlightStreams) {
  net::ServerOptions server_options;
  server_options.worker_threads = 3;
  Harness harness({}, server_options);

  BlockingClient stream = harness.client();
  stream.send_all(request_bytes("POST", "/v1/suggest/stream",
                                suggest_json("Install wget")));
  BlockingClient admin = harness.client();
  admin.send_all(request_bytes("POST", "/v1/admin/drain", ""));

  auto stream_response = stream.read_response();
  ASSERT_TRUE(stream_response.has_value());
  ASSERT_EQ(stream_response->status, 200);
  std::optional<serve::SuggestionResponse> done;
  std::string accumulated = apply_sse(stream_response->body, &done);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(accumulated, done->snippet);
  // The stream either completed before the drain began (ok) or ran to
  // completion under it (ok); a drain must never truncate it.
  if (done->ok) {
    EXPECT_FALSE(accumulated.empty());
  }

  auto drain_response = admin.read_response();
  ASSERT_TRUE(drain_response.has_value());
  EXPECT_EQ(drain_response->status, 200);
  EXPECT_EQ(harness.service.state(),
            serve::InferenceService::State::Stopped);
}

}  // namespace
