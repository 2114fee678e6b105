#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "serve/wire.hpp"
#include "util/strings.hpp"

namespace wisdom::net {

namespace {

// {"ok": false, "error": "<name>", "detail": "<detail>"} — the refusal
// body for requests that never produced a SuggestionResponse (protocol
// errors, unparseable JSON, unknown routes).
std::string error_body(std::string_view error_name, std::string_view detail) {
  std::string out = "{\"ok\": false, \"error\": \"";
  out += util::json_escape(error_name);
  out += "\", \"detail\": \"";
  out += util::json_escape(detail);
  out += "\"}";
  return out;
}

std::string health_body(serve::InferenceService::State state) {
  switch (state) {
    case serve::InferenceService::State::Accepting:
      return "{\"status\": \"accepting\"}";
    case serve::InferenceService::State::Draining:
      return "{\"status\": \"draining\"}";
    case serve::InferenceService::State::Stopped: break;
  }
  return "{\"status\": \"stopped\"}";
}

// One SSE event carrying a streaming delta, with suggest_stream's
// append/reset semantics.
std::string stream_event(std::string_view text, bool reset) {
  std::string out = "data: {\"text\": \"";
  out += util::json_escape(text);
  out += "\", \"reset\": ";
  out += reset ? "true" : "false";
  out += "}\n\n";
  return out;
}

}  // namespace

HttpServer::HttpServer(serve::InferenceService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  if (options_.max_body_bytes == 0)
    options_.max_body_bytes = serve::kMaxWireBytes;
  if (options_.worker_threads < 1) options_.worker_threads = 1;
  obs::MetricsRegistry& registry = service_.metrics();
  h_.connections_opened = &registry.counter(
      "wisdom_http_connections_opened_total", "TCP connections accepted.");
  h_.connections_closed = &registry.counter(
      "wisdom_http_connections_closed_total", "TCP connections closed.");
  h_.connections_active = &registry.gauge(
      "wisdom_http_connections_active", "Connections currently open.");
  h_.requests = &registry.counter("wisdom_http_requests_total",
                                  "HTTP requests parsed and dispatched.");
  h_.responses = &registry.counter("wisdom_http_responses_total",
                                   "HTTP responses completed.");
  h_.bad_requests = &registry.counter(
      "wisdom_http_bad_requests_total",
      "Requests refused at the protocol layer (parse errors, caps).");
  h_.status_2xx = &registry.counter("wisdom_http_status_2xx_total",
                                    "Responses with a 2xx status.");
  h_.status_4xx = &registry.counter("wisdom_http_status_4xx_total",
                                    "Responses with a 4xx status.");
  h_.status_5xx = &registry.counter("wisdom_http_status_5xx_total",
                                    "Responses with a 5xx status.");
  h_.stream_chunks = &registry.counter(
      "wisdom_http_stream_chunks_total",
      "Chunks written by the streaming endpoint (SSE events).");
  h_.slow_client_disconnects = &registry.counter(
      "wisdom_http_slow_client_disconnects_total",
      "Connections dropped for exceeding a buffer cap (unread response "
      "bytes past the write cap, or runaway pipelined input).");
  h_.bytes_read = &registry.counter("wisdom_http_bytes_read_total",
                                    "Bytes read from client sockets.");
  h_.bytes_written = &registry.counter("wisdom_http_bytes_written_total",
                                       "Bytes written to client sockets.");
}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start() {
  if (started_) return true;
  if (!loop_.valid()) return false;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1 ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 512) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  loop_.add(listen_fd_, EPOLLIN, [this](std::uint32_t) { on_listen_ready(); });
  jobs_stop_ = false;
  for (int i = 0; i < options_.worker_threads; ++i)
    workers_.emplace_back([this] { worker_main(); });
  loop_thread_ = std::thread([this] { loop_.run(); });
  started_ = true;
  return true;
}

void HttpServer::stop() {
  if (!started_) return;
  started_ = false;
  // On the loop thread: stop accepting and disconnect everything. Closing
  // trips each connection's cancel source, so decodes for abandoned
  // requests stop at their next deadline check and workers drain fast.
  loop_.post([this] {
    if (listen_fd_ >= 0) {
      loop_.remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    auto connections = connections_;  // close_connection mutates the map
    for (auto& [id, conn] : connections) close_connection(conn);
  });
  loop_.stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_stop_ = true;
  }
  jobs_cv_.notify_all();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();
}

void HttpServer::worker_main() {
  while (true) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      jobs_cv_.wait(lock, [this] { return jobs_stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

void HttpServer::enqueue_job(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.push_back(std::move(job));
  }
  jobs_cv_.notify_one();
}

void HttpServer::post_to_connection(
    std::uint64_t conn_id, std::function<void(const ConnectionPtr&)> fn) {
  loop_.post([this, conn_id, fn = std::move(fn)] {
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;  // disconnected meanwhile
    fn(it->second);
  });
}

void HttpServer::on_listen_ready() {
  while (true) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    int fd = ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN: accepted everything pending
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ConnectionPtr conn = std::make_shared<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->peer_loopback = (ntohl(addr.sin_addr.s_addr) >> 24) == 127;
    conn->parser = HttpParser(
        HttpParserLimits{options_.max_header_bytes, options_.max_body_bytes});
    connections_[conn->id] = conn;
    h_.connections_opened->inc();
    h_.connections_active->set(static_cast<double>(connections_.size()));
    const std::uint64_t id = conn->id;
    if (!loop_.add(fd, EPOLLIN, [this, id](std::uint32_t events) {
          on_connection_event(id, events);
        })) {
      close_connection(conn);
    }
  }
}

void HttpServer::on_connection_event(std::uint64_t id, std::uint32_t events) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  ConnectionPtr conn = it->second;
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_connection(conn);
    return;
  }
  if (events & EPOLLOUT) flush_output(conn);
  if ((events & EPOLLIN) == 0) return;
  char buffer[16384];
  while (conn->fd >= 0) {
    ssize_t n = ::read(conn->fd, buffer, sizeof(buffer));
    if (n > 0) {
      h_.bytes_read->inc(static_cast<std::uint64_t>(n));
      conn->inbuf.append(buffer, static_cast<std::size_t>(n));
      // Flow control on pipelined input: a client that keeps pumping
      // requests while one is in flight gets bounded buffering, not an
      // unbounded arena.
      if (conn->inbuf.size() >
          options_.max_body_bytes + options_.max_header_bytes + 4096) {
        h_.slow_client_disconnects->inc();
        close_connection(conn);
        return;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or hard error. In-flight work for this connection is abandoned:
    // the cancel source tripped by close_connection stops its decode.
    close_connection(conn);
    return;
  }
  process_input(conn);
}

void HttpServer::process_input(const ConnectionPtr& conn) {
  // One request in flight per connection: pipelined bytes wait in inbuf
  // until the current response (or stream) finishes, which also keeps
  // responses in request order.
  while (conn->fd >= 0 && !conn->busy && !conn->streaming &&
         !conn->close_after_flush && !conn->inbuf.empty()) {
    std::size_t consumed = 0;
    HttpParser::Status status = conn->parser.feed(conn->inbuf, &consumed);
    conn->inbuf.erase(0, consumed);
    if (status == HttpParser::Status::NeedMore) break;
    if (status == HttpParser::Status::Error) {
      h_.bad_requests->inc();
      // The connection state is ambiguous after a protocol error (an
      // unread body would be parsed as a new request): always close.
      respond_error(conn, conn->parser.error_status(),
                    serve::http_status_reason(conn->parser.error_status()),
                    conn->parser.error_reason(), /*keep_alive=*/false);
      break;
    }
    HttpRequest request = conn->parser.request();
    conn->parser.reset();
    h_.requests->inc();
    dispatch(conn, std::move(request));
  }
}

void HttpServer::dispatch(const ConnectionPtr& conn, HttpRequest request) {
  const bool keep = request.keep_alive;
  const std::string_view prefix =
      serve::api_version_prefix(serve::ApiVersion::V1);
  const std::string_view path = request.path();
  if (path.substr(0, prefix.size()) != prefix ||
      (path.size() > prefix.size() && path[prefix.size()] != '/')) {
    respond_error(conn, 404, serve::http_status_reason(404),
                  "the API is versioned: paths are mounted under /v1", keep);
    return;
  }
  const std::string_view route = path.substr(prefix.size());

  if (route == "/healthz") {
    if (request.method != "GET") {
      respond_error(conn, 405, serve::http_status_reason(405),
                    "healthz accepts GET", keep);
      return;
    }
    const serve::InferenceService::State state = service_.state();
    const int status =
        state == serve::InferenceService::State::Accepting ? 200 : 503;
    respond_json(conn, status, health_body(state), keep);
    return;
  }

  if (route == "/metrics") {
    if (request.method != "GET") {
      respond_error(conn, 405, serve::http_status_reason(405),
                    "metrics accepts GET", keep);
      return;
    }
    count_status(200);
    queue_output(conn,
                 simple_response(200, serve::http_status_reason(200),
                                 "text/plain; version=0.0.4; charset=utf-8",
                                 service_.metrics().expose_prometheus(),
                                 keep));
    finish_response(conn, keep);
    return;
  }

  if (route == "/suggest" || route == "/suggest/stream") {
    if (request.method != "POST") {
      respond_error(conn, 405, serve::http_status_reason(405),
                    "suggest accepts POST", keep);
      return;
    }
    conn->busy = true;
    const std::uint64_t id = conn->id;
    util::CancelToken cancel = conn->cancel.token();
    if (route == "/suggest") {
      enqueue_job([this, id, request = std::move(request),
                   cancel = std::move(cancel)]() mutable {
        handle_suggest(id, std::move(request), std::move(cancel));
      });
    } else {
      enqueue_job([this, id, request = std::move(request),
                   cancel = std::move(cancel)]() mutable {
        handle_suggest_stream(id, std::move(request), std::move(cancel));
      });
    }
    return;
  }

  if (route == "/admin/drain") {
    if (request.method != "POST") {
      respond_error(conn, 405, serve::http_status_reason(405),
                    "drain accepts POST", keep);
      return;
    }
    if (options_.admin_loopback_only && !conn->peer_loopback) {
      respond_error(conn, 403, serve::http_status_reason(403),
                    "admin endpoints accept loopback peers only", keep);
      return;
    }
    conn->busy = true;
    const std::uint64_t id = conn->id;
    enqueue_job([this, id, request = std::move(request)]() mutable {
      handle_drain(id, std::move(request));
    });
    return;
  }

  respond_error(conn, 404, serve::http_status_reason(404),
                "unknown /v1 route", keep);
}

void HttpServer::handle_suggest(std::uint64_t conn_id, HttpRequest request,
                                util::CancelToken cancel) {
  const bool keep = request.keep_alive;
  std::optional<serve::SuggestionRequest> parsed =
      serve::request_from_json(request.body);
  if (!parsed) {
    post_to_connection(conn_id, [this, keep](const ConnectionPtr& conn) {
      respond_json(
          conn, 400,
          error_body(serve::service_error_name(
                         serve::ServiceError::InvalidRequest),
                     "request body is not a valid suggestion JSON payload"),
          keep);
    });
    return;
  }
  parsed->cancel = std::move(cancel);
  serve::SuggestionResponse response = service_.suggest(*parsed);
  const int status = serve::http_status(response);
  post_to_connection(conn_id, [this, status, keep,
                               body = serve::to_json(response)](
                                  const ConnectionPtr& conn) mutable {
    respond_json(conn, status, std::move(body), keep);
  });
}

void HttpServer::handle_suggest_stream(std::uint64_t conn_id,
                                       HttpRequest request,
                                       util::CancelToken cancel) {
  const bool keep = request.keep_alive;
  std::optional<serve::SuggestionRequest> parsed =
      serve::request_from_json(request.body);
  if (!parsed) {
    post_to_connection(conn_id, [this, keep](const ConnectionPtr& conn) {
      respond_json(
          conn, 400,
          error_body(serve::service_error_name(
                         serve::ServiceError::InvalidRequest),
                     "request body is not a valid suggestion JSON payload"),
          keep);
    });
    return;
  }
  parsed->cancel = std::move(cancel);

  // The stream subscribes before the outcome is known (tokens flow during
  // decode), so the status line is 200 at subscribe time; the request's
  // outcome — including refusals — rides in the final `done` event's JSON.
  post_to_connection(conn_id, [this, keep](const ConnectionPtr& conn) {
    conn->streaming = true;
    count_status(200);
    queue_output(
        conn,
        response_head(200, serve::http_status_reason(200),
                      {{"Content-Type", "text/event-stream"},
                       {"Transfer-Encoding", "chunked"},
                       {"Cache-Control", "no-store"},
                       {"Connection", keep ? "keep-alive" : "close"}}));
  });

  // The sink runs on this worker thread; each delta is posted to the loop
  // as one SSE event in one chunk. post() preserves order, so chunks land
  // in emission order.
  serve::InferenceService::TokenSink sink = [this, conn_id](
                                                std::string_view text,
                                                bool reset) {
    post_to_connection(conn_id, [this, event = stream_event(text, reset)](
                                    const ConnectionPtr& conn) {
      h_.stream_chunks->inc();
      queue_output(conn, chunk_frame(event));
    });
  };
  serve::SuggestionResponse response =
      service_.suggest_stream(*parsed, sink);

  std::string done = "event: done\ndata: " + serve::to_json(response) + "\n\n";
  post_to_connection(conn_id, [this, keep, done = std::move(done)](
                                  const ConnectionPtr& conn) {
    h_.stream_chunks->inc();
    std::string tail = chunk_frame(done);
    tail += kLastChunk;
    queue_output(conn, std::move(tail));
    finish_response(conn, keep);
  });
}

void HttpServer::handle_drain(std::uint64_t conn_id, HttpRequest request) {
  const bool keep = request.keep_alive;
  // Blocks this worker until every in-flight request (streams included)
  // has completed; healthz flips to 503 the moment draining begins. The
  // returned exposition is the service's final metrics flush.
  std::string exposition = service_.drain();
  post_to_connection(conn_id, [this, keep,
                               body = std::move(exposition)](
                                  const ConnectionPtr& conn) mutable {
    count_status(200);
    queue_output(conn,
                 simple_response(200, serve::http_status_reason(200),
                                 "text/plain; version=0.0.4; charset=utf-8",
                                 body, keep));
    finish_response(conn, keep);
  });
}

void HttpServer::respond_error(const ConnectionPtr& conn, int status,
                               std::string_view /*reason*/,
                               std::string_view detail, bool keep_alive) {
  std::string_view error_name = "invalid-request";
  if (status == 404) error_name = "not-found";
  if (status == 405) error_name = "method-not-allowed";
  if (status == 403) error_name = "forbidden";
  respond_json(conn, status, error_body(error_name, detail), keep_alive);
}

void HttpServer::respond_json(const ConnectionPtr& conn, int status,
                              std::string body, bool keep_alive) {
  count_status(status);
  queue_output(conn, simple_response(status, serve::http_status_reason(status),
                                     "application/json", body, keep_alive));
  finish_response(conn, keep_alive);
}

void HttpServer::count_status(int status) {
  if (status < 300) h_.status_2xx->inc();
  else if (status >= 500) h_.status_5xx->inc();
  else if (status >= 400) h_.status_4xx->inc();
}

void HttpServer::finish_response(const ConnectionPtr& conn, bool keep_alive) {
  if (conn->fd < 0) return;  // already closed (slow client, disconnect)
  h_.responses->inc();
  conn->busy = false;
  conn->streaming = false;
  if (!keep_alive) conn->close_after_flush = true;
  if (conn->close_after_flush) {
    if (conn->out_offset == conn->outbuf.size()) close_connection(conn);
    // else: flush_output closes once the tail drains
  } else {
    process_input(conn);  // serve the next pipelined request, if any
  }
}

void HttpServer::queue_output(const ConnectionPtr& conn, std::string bytes) {
  if (conn->fd < 0) return;
  if (conn->outbuf.empty()) {
    conn->outbuf = std::move(bytes);
    conn->out_offset = 0;
  } else {
    conn->outbuf += bytes;
  }
  if (conn->outbuf.size() - conn->out_offset >
      options_.max_write_buffer_bytes) {
    h_.slow_client_disconnects->inc();
    close_connection(conn);
    return;
  }
  flush_output(conn);
}

void HttpServer::flush_output(const ConnectionPtr& conn) {
  if (conn->fd < 0) return;
  while (conn->out_offset < conn->outbuf.size()) {
    ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->out_offset,
                       conn->outbuf.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      h_.bytes_written->inc(static_cast<std::uint64_t>(n));
      conn->out_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        loop_.modify(conn->fd, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    close_connection(conn);
    return;
  }
  conn->outbuf.clear();
  conn->out_offset = 0;
  if (conn->want_write) {
    conn->want_write = false;
    loop_.modify(conn->fd, EPOLLIN);
  }
  if (conn->close_after_flush && !conn->busy && !conn->streaming)
    close_connection(conn);
}

void HttpServer::close_connection(const ConnectionPtr& conn) {
  // Trip the cancel source first: any decode still running for this
  // connection observes it at its next cooperative check.
  conn->cancel.cancel();
  if (conn->fd >= 0) {
    loop_.remove(conn->fd);
    ::close(conn->fd);
    conn->fd = -1;
  }
  if (connections_.erase(conn->id) > 0) {
    h_.connections_closed->inc();
    h_.connections_active->set(static_cast<double>(connections_.size()));
  }
}

}  // namespace wisdom::net
