// Load client for the /v1 HTTP front end: opens hundreds-to-thousands of
// concurrent keep-alive connections from one epoll loop, pumps
// POST /v1/suggest (or /v1/suggest/stream with --stream) requests through
// them, and reports latency percentiles plus the shed/degraded breakdown
// the overload-resilience stack produces under pressure.
//
// Exit status is nonzero when any connection or HTTP protocol error
// occurred — CI drives the server at several times its admission capacity
// and asserts clean protocol behaviour (429s are expected and fine;
// malformed responses and dropped connections are not).
//
// Usage:
//   ./build/examples/wisdom_load --port 8080 --connections 500 --requests 5000
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.hpp"
#include "serve/wire.hpp"
#include "util/percentile.hpp"
#include "util/strings.hpp"

using namespace wisdom;

namespace {

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 8080;
  int connections = 500;
  int requests = 2000;
  double deadline_ms = 0.0;
  bool stream = false;
  std::string prompt = "Install nginx";
  std::string context;
  int indent = 0;
};

struct Stats {
  int sent = 0;
  int completed = 0;
  int connect_errors = 0;
  int protocol_errors = 0;
  int disconnects = 0;
  int shed_429 = 0;
  int degraded = 0;
  int stream_chunks = 0;
  std::map<int, int> by_status;
  std::vector<double> latencies_ms;
};

// One keep-alive connection driving sequential requests.
struct Conn {
  int fd = -1;
  bool connected = false;
  std::string outbuf;
  std::size_t out_off = 0;
  std::string inbuf;
  bool in_flight = false;
  std::chrono::steady_clock::time_point sent_at;
};

class LoadDriver {
 public:
  LoadDriver(const Options& options) : options_(options) {
    request_body_ = [&] {
      serve::SuggestionRequest request;
      request.context = options_.context;
      request.prompt = options_.prompt;
      request.indent = options_.indent;
      request.deadline_ms = options_.deadline_ms;
      return serve::to_json(request);
    }();
    const char* target =
        options_.stream ? "/v1/suggest/stream" : "/v1/suggest";
    request_bytes_ = "POST " + std::string(target) +
                     " HTTP/1.1\r\nHost: " + options_.host +
                     "\r\nContent-Type: application/json\r\nContent-Length: " +
                     std::to_string(request_body_.size()) +
                     "\r\nConnection: keep-alive\r\n\r\n" + request_body_;
  }

  Stats run() {
    for (int i = 0; i < options_.connections && stats_.sent < options_.requests;
         ++i)
      open_connection();
    if (!conns_.empty()) loop_.run();
    return stats_;
  }

 private:
  void open_connection() {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      ++stats_.connect_errors;
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    ::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr);
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      ++stats_.connect_errors;
      ::close(fd);
      return;
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->connected = rc == 0;
    conns_[fd] = conn;
    loop_.add(fd, EPOLLIN | EPOLLOUT, [this, fd](std::uint32_t events) {
      on_event(fd, events);
    });
    if (conn->connected) send_next(conn);
  }

  void close_conn(const std::shared_ptr<Conn>& conn, bool failed) {
    if (conn->fd < 0) return;
    if (failed) {
      if (conn->in_flight) ++stats_.disconnects;
    }
    loop_.remove(conn->fd);
    ::close(conn->fd);
    conns_.erase(conn->fd);
    conn->fd = -1;
    maybe_finish();
  }

  void maybe_finish() {
    // Done when every requested call has completed (or failed) and no
    // connection still has one in flight.
    bool any_in_flight = false;
    for (auto& [fd, conn] : conns_)
      if (conn->in_flight) any_in_flight = true;
    if (!any_in_flight &&
        (stats_.sent >= options_.requests || conns_.empty()))
      loop_.stop();
  }

  void send_next(const std::shared_ptr<Conn>& conn) {
    if (stats_.sent >= options_.requests) {
      close_conn(conn, false);
      return;
    }
    ++stats_.sent;
    conn->in_flight = true;
    conn->sent_at = std::chrono::steady_clock::now();
    conn->outbuf = request_bytes_;
    conn->out_off = 0;
    flush(conn);
  }

  void flush(const std::shared_ptr<Conn>& conn) {
    while (conn->out_off < conn->outbuf.size()) {
      ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->out_off,
                         conn->outbuf.size() - conn->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      close_conn(conn, true);
      return;
    }
  }

  void on_event(int fd, std::uint32_t events) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    std::shared_ptr<Conn> conn = it->second;
    if (events & (EPOLLHUP | EPOLLERR)) {
      if (!conn->connected) ++stats_.connect_errors;
      close_conn(conn, true);
      return;
    }
    if (events & EPOLLOUT) {
      if (!conn->connected) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          ++stats_.connect_errors;
          close_conn(conn, true);
          return;
        }
        conn->connected = true;
        send_next(conn);
      } else {
        flush(conn);
      }
    }
    if ((events & EPOLLIN) == 0) return;
    char buffer[16384];
    while (conn->fd >= 0) {
      ssize_t n = ::read(conn->fd, buffer, sizeof(buffer));
      if (n > 0) {
        conn->inbuf.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close_conn(conn, true);
      return;
    }
    if (conn->fd >= 0) consume_responses(conn);
  }

  // Parses complete responses out of conn->inbuf; each completed response
  // records a sample and triggers the next request on this connection.
  void consume_responses(const std::shared_ptr<Conn>& conn) {
    while (conn->in_flight) {
      std::size_t head_end = conn->inbuf.find("\r\n\r\n");
      if (head_end == std::string::npos) return;
      std::string_view head(conn->inbuf.data(), head_end);
      int status = 0;
      if (head.size() < 12 || head.substr(0, 9) != "HTTP/1.1 " ||
          std::sscanf(conn->inbuf.c_str() + 9, "%d", &status) != 1) {
        ++stats_.protocol_errors;
        close_conn(conn, true);
        return;
      }
      bool chunked = head.find("Transfer-Encoding: chunked") !=
                     std::string_view::npos;
      std::size_t body_len = 0;
      std::size_t content_length_at = head.find("Content-Length: ");
      if (content_length_at != std::string_view::npos)
        body_len = static_cast<std::size_t>(std::strtoull(
            conn->inbuf.c_str() + content_length_at + 16, nullptr, 10));
      std::string body;
      std::size_t consumed = head_end + 4;
      if (chunked) {
        // Walk chunk frames until the terminal zero chunk; incomplete →
        // wait for more bytes.
        std::size_t at = consumed;
        bool done = false;
        while (true) {
          std::size_t line_end = conn->inbuf.find("\r\n", at);
          if (line_end == std::string::npos) return;
          std::size_t size =
              std::strtoull(conn->inbuf.c_str() + at, nullptr, 16);
          std::size_t payload_at = line_end + 2;
          if (conn->inbuf.size() < payload_at + size + 2) return;
          if (size == 0) {
            consumed = payload_at + 2;  // the terminal chunk's CRLF
            done = true;
            break;
          }
          body.append(conn->inbuf, payload_at, size);
          ++stats_.stream_chunks;
          at = payload_at + size + 2;
        }
        if (!done) return;
      } else {
        if (conn->inbuf.size() < consumed + body_len) return;
        body.assign(conn->inbuf, consumed, body_len);
        consumed += body_len;
      }
      conn->inbuf.erase(0, consumed);

      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - conn->sent_at)
                      .count();
      ++stats_.completed;
      ++stats_.by_status[status];
      if (status == 429) ++stats_.shed_429;
      if (body.find("\"degraded\": true") != std::string::npos)
        ++stats_.degraded;
      if (status == 200) stats_.latencies_ms.push_back(ms);
      conn->in_flight = false;
      if (stats_.sent >= options_.requests) {
        close_conn(conn, false);
        return;
      }
      send_next(conn);
    }
  }

  Options options_;
  net::EventLoop loop_;
  std::string request_body_;
  std::string request_bytes_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  Stats stats_;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --host H           server IPv4 address (default 127.0.0.1)\n"
      "  --port N           server port, 1-65535 (default 8080)\n"
      "  --connections N    concurrent connections, >= 1 (default 500)\n"
      "  --requests N       requests in total, >= 1 (default 2000)\n"
      "  --deadline-ms MS   per-request deadline, >= 0 (0 = server's)\n"
      "  --stream           POST /v1/suggest/stream instead of /v1/suggest\n"
      "  --prompt P         the task name to complete\n"
      "  --context C        the file content before the prompt\n"
      "  --indent N         the prompt's indent, 0-%d (default 0)\n"
      "Numbers must parse whole: N is an integer, MS a finite real.\n",
      argv0, serve::kMaxWireIndent);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) std::exit(usage(argv[0]));
    return argv[++i];
  };
  // Every numeric flag must parse whole, finite and inside the range the
  // usage text documents: a wrapped port, zero connections or "4x" read as
  // 4 would load some other server, or none, and still print CLEAN.
  auto int_value = [&](int& i, int lo, int hi) {
    int value = 0;
    if (!util::parse_number(next_value(i), lo, hi, &value))
      std::exit(usage(argv[0]));
    return value;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--host") {
      options.host = next_value(i);
      in_addr parsed{};
      if (::inet_pton(AF_INET, options.host.c_str(), &parsed) != 1)
        return usage(argv[0]);
    } else if (arg == "--port")
      options.port = static_cast<std::uint16_t>(int_value(i, 1, 65535));
    else if (arg == "--connections")
      options.connections = int_value(i, 1, INT_MAX);
    else if (arg == "--requests") options.requests = int_value(i, 1, INT_MAX);
    else if (arg == "--deadline-ms") {
      if (!util::parse_number(next_value(i), 0.0,
                              std::numeric_limits<double>::max(),
                              &options.deadline_ms))
        return usage(argv[0]);
    } else if (arg == "--stream") options.stream = true;
    else if (arg == "--prompt") options.prompt = next_value(i);
    else if (arg == "--context") options.context = next_value(i);
    else if (arg == "--indent")
      options.indent = int_value(i, 0, serve::kMaxWireIndent);
    else return usage(argv[0]);
  }

  auto start = std::chrono::steady_clock::now();
  LoadDriver driver(options);
  Stats stats = driver.run();
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

  std::printf("connections: %d  requests sent: %d  completed: %d  wall: %.2fs "
              "(%.0f req/s)\n",
              options.connections, stats.sent, stats.completed, wall_s,
              wall_s > 0 ? stats.completed / wall_s : 0.0);
  std::printf("status:");
  for (const auto& [status, count] : stats.by_status)
    std::printf("  %d: %d", status, count);
  std::printf("\nshed (429): %d  degraded: %d  stream chunks: %d\n",
              stats.shed_429, stats.degraded, stats.stream_chunks);
  std::printf("errors: connect %d  protocol %d  disconnects %d\n",
              stats.connect_errors, stats.protocol_errors, stats.disconnects);
  if (!stats.latencies_ms.empty()) {
    std::printf("latency ms (200s): p50 %.1f  p95 %.1f  p99 %.1f  max %.1f\n",
                util::nearest_rank_percentile(stats.latencies_ms, 50.0),
                util::nearest_rank_percentile(stats.latencies_ms, 95.0),
                util::nearest_rank_percentile(stats.latencies_ms, 99.0),
                util::nearest_rank_percentile(stats.latencies_ms, 100.0));
  }
  bool clean = stats.connect_errors == 0 && stats.protocol_errors == 0 &&
               stats.disconnects == 0 && stats.completed == stats.sent;
  std::printf("%s\n", clean ? "CLEAN" : "ERRORS");
  return clean ? 0 : 1;
}
