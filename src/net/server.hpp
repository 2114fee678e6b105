// Epoll streaming HTTP front end for the inference service: the /v1 API.
//
// Threading model (see DESIGN.md for the diagram):
//
//   * One loop thread owns the EventLoop, the listen socket, and every
//     connection. It accepts, reads, parses, and writes — all
//     non-blocking, so a slow or torn client never stalls another.
//   * Model work never runs on the loop thread. A parsed /v1/suggest,
//     /v1/suggest/stream, or /v1/admin/drain request is handed to a small
//     worker pool; the worker runs the service call (admission queue,
//     deadline, fallback — the existing serving stack, unchanged) and
//     posts the finished response, or each streaming chunk, back to the
//     loop through EventLoop::post() (eventfd wakeup). Cheap endpoints
//     (healthz, metrics) answer inline on the loop thread.
//   * Connections are identified by a monotonically increasing id, never
//     by fd: a posted closure resolves the id against the live-connection
//     map, so a response for a connection that disconnected mid-request
//     (or whose fd number the kernel reused) is dropped instead of being
//     written to a stranger.
//
// Endpoints (versioned; unversioned paths are 404):
//   POST /v1/suggest         single-shot JSON (serve/wire.hpp schema)
//   POST /v1/suggest/stream  SSE over chunked transfer encoding
//   GET  /v1/metrics         Prometheus text exposition
//   GET  /v1/healthz         200 accepting / 503 draining or stopped
//   POST /v1/admin/drain     graceful drain (loopback-only by default)
//
// Streaming protocol: `Content-Type: text/event-stream`, chunked. Each
// token delta is one chunk holding one SSE event
//   data: {"text": "...", "reset": false}\n\n
// with InferenceService::suggest_stream's append/reset semantics, and the
// final chunk is
//   event: done\ndata: <single-shot response JSON>\n\n
// followed by the terminating zero chunk. Applying the append/reset
// deltas in order reproduces the single-shot snippet byte-for-byte.
//
// Error mapping is the serve/api.hpp table; per-connection buffers are
// capped (oversized bodies are refused with 413 before they buffer, slow
// clients whose unread output exceeds the write cap are disconnected).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"
#include "serve/api.hpp"
#include "serve/service.hpp"
#include "util/deadline.hpp"

namespace wisdom::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read back via port()
  // Service worker threads (model calls). Keep >= 2 so an admin drain —
  // which blocks its worker until in-flight requests finish — cannot
  // deadlock behind the streams it is waiting for.
  int worker_threads = 2;
  std::size_t max_header_bytes = 16u << 10;
  // Body cap; defaults to the wire-format cap at construction.
  std::size_t max_body_bytes = 0;
  // A connection whose unsent output exceeds this is a slow client (or a
  // stalled one): it is disconnected and counted, instead of buffering
  // without bound.
  std::size_t max_write_buffer_bytes = 4u << 20;
  // Refuse /v1/admin/drain from non-loopback peers with 403.
  bool admin_loopback_only = true;
};

class HttpServer {
 public:
  // Borrows the service (and registers wisdom_http_* metric families in
  // its registry); the service must outlive the server.
  HttpServer(serve::InferenceService& service, ServerOptions options = {});
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds, listens, and spawns the loop thread and the worker pool.
  // False when the socket could not be bound.
  bool start();
  // Closes the listener, disconnects everything, joins all threads.
  // Idempotent; called by the destructor.
  void stop();

  // The bound port (resolves option port 0 to the kernel's choice).
  std::uint16_t port() const { return port_; }

 private:
  struct Connection {
    std::uint64_t id = 0;
    int fd = -1;
    bool peer_loopback = false;
    HttpParser parser;
    std::string inbuf;   // parsed-from; keeps pipelined requests
    std::string outbuf;  // unsent response bytes
    std::size_t out_offset = 0;
    bool busy = false;        // a request is with a worker
    bool streaming = false;   // chunked response in progress
    bool close_after_flush = false;
    bool want_write = false;  // EPOLLOUT currently armed
    // Tripped on disconnect so an in-flight decode for this connection
    // cancels instead of generating tokens nobody will read.
    util::CancelSource cancel;
  };
  using ConnectionPtr = std::shared_ptr<Connection>;

  // Loop thread.
  void on_listen_ready();
  void on_connection_event(std::uint64_t id, std::uint32_t events);
  void process_input(const ConnectionPtr& conn);
  void dispatch(const ConnectionPtr& conn, HttpRequest request);
  void queue_output(const ConnectionPtr& conn, std::string bytes);
  void flush_output(const ConnectionPtr& conn);
  void finish_response(const ConnectionPtr& conn, bool keep_alive);
  void close_connection(const ConnectionPtr& conn);
  void respond_error(const ConnectionPtr& conn, int status,
                     std::string_view reason, std::string_view detail,
                     bool keep_alive);
  void respond_json(const ConnectionPtr& conn, int status, std::string body,
                    bool keep_alive);
  void count_status(int status);

  // Worker pool.
  void worker_main();
  void enqueue_job(std::function<void()> job);

  // Endpoint bodies (worker threads). The cancel token is the
  // connection's: it trips on disconnect, cancelling the decode.
  void handle_suggest(std::uint64_t conn_id, HttpRequest request,
                      util::CancelToken cancel);
  void handle_suggest_stream(std::uint64_t conn_id, HttpRequest request,
                             util::CancelToken cancel);
  void handle_drain(std::uint64_t conn_id, HttpRequest request);

  // Posts `fn(conn)` to the loop; drops it if the connection is gone.
  void post_to_connection(std::uint64_t conn_id,
                          std::function<void(const ConnectionPtr&)> fn);

  serve::InferenceService& service_;
  ServerOptions options_;
  EventLoop loop_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread loop_thread_;
  bool started_ = false;

  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, ConnectionPtr> connections_;

  std::vector<std::thread> workers_;
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<std::function<void()>> jobs_;
  bool jobs_stop_ = false;

  struct Handles {
    obs::Counter* connections_opened = nullptr;
    obs::Counter* connections_closed = nullptr;
    obs::Gauge* connections_active = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* responses = nullptr;
    obs::Counter* bad_requests = nullptr;     // parser-level refusals
    obs::Counter* status_2xx = nullptr;
    obs::Counter* status_4xx = nullptr;
    obs::Counter* status_5xx = nullptr;
    obs::Counter* stream_chunks = nullptr;
    obs::Counter* slow_client_disconnects = nullptr;
    obs::Counter* bytes_read = nullptr;
    obs::Counter* bytes_written = nullptr;
  } h_;
};

}  // namespace wisdom::net
