#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <ctime>
#include <optional>

#include "stats.hpp"

namespace wisdom::bench {

namespace {

int connect_loopback(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string post_bytes(const char* target, const std::string& body) {
  return std::string("POST ") + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// Decodes the JSON string starting after its opening quote at `at`; the
// escapes are those serve::json_escape produces. Sets *end past the
// closing quote. False on a malformed string.
bool json_string(std::string_view s, std::size_t at, std::string* out,
                 std::size_t* end) {
  out->clear();
  for (std::size_t i = at; i < s.size(); ++i) {
    char c = s[i];
    if (c == '"') {
      *end = i + 1;
      return true;
    }
    if (c != '\\') {
      *out += c;
      continue;
    }
    if (++i >= s.size()) return false;
    switch (s[i]) {
      case '"': *out += '"'; break;
      case '\\': *out += '\\'; break;
      case '/': *out += '/'; break;
      case 'n': *out += '\n'; break;
      case 'r': *out += '\r'; break;
      case 't': *out += '\t'; break;
      case 'b': *out += '\b'; break;
      case 'f': *out += '\f'; break;
      case 'u': {
        if (i + 4 >= s.size()) return false;
        long code = std::strtol(std::string(s.substr(i + 1, 4)).c_str(),
                                nullptr, 16);
        if (code > 0x7f) return false;  // the server escapes controls only
        *out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: return false;
    }
  }
  return false;
}

// One SSE delta event: `data: {"text": "...", "reset": false}\n\n`.
bool parse_delta(std::string_view event, std::string* text, bool* reset) {
  constexpr std::string_view kHead = "data: {\"text\": \"";
  if (event.substr(0, kHead.size()) != kHead) return false;
  std::size_t end = 0;
  if (!json_string(event, kHead.size(), text, &end)) return false;
  std::string_view rest = event.substr(end);
  if (rest == ", \"reset\": true}\n\n") *reset = true;
  else if (rest == ", \"reset\": false}\n\n") *reset = false;
  else return false;
  return true;
}

}  // namespace

struct HttpClient::Conn {
  int index = 0;
  int fd = -1;
  bool busy = false;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  Exchange ex;
  Request request;                  // the request in flight
  std::optional<Request> prepared;  // closed loop: this lane's next request
  // Parse state of the response in flight.
  bool head = false;
  bool chunked = false;
  std::size_t at = 0;        // next unparsed byte (body start / next chunk)
  std::size_t body_len = 0;  // Content-Length responses
};

struct HttpClient::Run {
  bool closed = true;
  const DoneFn* done = nullptr;
  std::size_t sent = 0;
  std::size_t completed = 0;
  int in_flight = 0;
  // Closed loop.
  const std::function<Request(int)>* next = nullptr;
  bool issuing = true;
  // Open loop.
  std::vector<Request> requests;
  const std::vector<double>* due = nullptr;
  double start = 0.0;
  std::size_t next_due = 0;
  std::vector<double> released;
  std::unique_ptr<OpenLoopDispatcher> dispatcher;
  std::vector<Conn*> free_conns;

  double due_at(std::size_t id) const { return start + (*due)[id]; }
};

HttpClient::HttpClient(std::uint16_t port, int connections, bool stream)
    : port_(port), stream_(stream) {
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  connected_ = timer_fd_ >= 0 && loop_.valid();
  if (connected_) {
    loop_.add(timer_fd_, EPOLLIN, [this](std::uint32_t) {
      std::uint64_t expirations = 0;
      [[maybe_unused]] ssize_t n =
          ::read(timer_fd_, &expirations, sizeof(expirations));
      if (!run_) return;
      if (run_->closed) {
        run_->issuing = false;
        if (run_->in_flight == 0) loop_.stop();
      } else {
        dispatch_due();
      }
    });
  }
  for (int i = 0; i < connections && connected_; ++i) {
    conns_.push_back(std::make_unique<Conn>());
    conns_.back()->index = i;
    connected_ = open(*conns_.back());
  }
}

HttpClient::~HttpClient() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) {
      loop_.remove(conn->fd);
      ::close(conn->fd);
    }
  }
  if (timer_fd_ >= 0) {
    loop_.remove(timer_fd_);
    ::close(timer_fd_);
  }
}

bool HttpClient::open(Conn& conn) {
  conn.fd = connect_loopback(port_);
  if (conn.fd < 0) return false;
  // Non-blocking only after the (loopback, immediate) connect.
  ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
  Conn* c = &conn;
  loop_.add(conn.fd, EPOLLIN, [this, c](std::uint32_t events) {
    if (events & EPOLLOUT) {
      while (c->out_off < c->out.size()) {
        ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                           c->out.size() - c->out_off, MSG_NOSIGNAL);
        if (n <= 0) break;
        c->out_off += static_cast<std::size_t>(n);
      }
      if (c->out_off == c->out.size()) loop_.modify(c->fd, EPOLLIN);
    }
    if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) on_readable(*c);
  });
  return true;
}

void HttpClient::arm_timer(double at_s) {
  timespec mono{};
  ::clock_gettime(CLOCK_MONOTONIC, &mono);
  double delay = std::max(at_s - now_s(), 1e-6);
  long long ns = static_cast<long long>(mono.tv_sec) * 1000000000LL +
                 mono.tv_nsec + static_cast<long long>(delay * 1e9);
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(ns / 1000000000LL);
  spec.it_value.tv_nsec = static_cast<long>(ns % 1000000000LL);
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

// A run can end (a failed connection) with the timer still armed or
// expired unread; neither may leak into the next run.
void HttpClient::disarm_timer() {
  itimerspec off{};
  ::timerfd_settime(timer_fd_, 0, &off, nullptr);
  std::uint64_t expirations = 0;
  [[maybe_unused]] ssize_t n =
      ::read(timer_fd_, &expirations, sizeof(expirations));
}

void HttpClient::start(Conn& conn, Request request, std::size_t id,
                       double due, double released) {
  conn.busy = true;
  conn.ex = Exchange{};
  conn.ex.id = id;
  conn.head = false;
  conn.chunked = false;
  conn.at = 0;
  conn.body_len = 0;
  conn.out = post_bytes(stream_ ? "/v1/suggest/stream" : "/v1/suggest",
                        request.body);
  conn.out_off = 0;
  conn.request = std::move(request);
  ++run_->in_flight;
  ++run_->sent;
  conn.ex.sent = now_s();
  conn.ex.due = due;
  conn.ex.released = released;
  while (conn.out_off < conn.out.size()) {
    ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                       conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      loop_.modify(conn.fd, EPOLLIN | EPOLLOUT);
      break;
    } else {
      fail(conn, "send failed");
      return;
    }
  }
  // Closed loop: build this lane's next request while the server works.
  if (run_ && run_->closed && run_->issuing && !conn.prepared)
    conn.prepared = (*run_->next)(conn.index);
}

void HttpClient::on_readable(Conn& conn) {
  char buffer[16384];
  while (true) {
    ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
    if (n > 0) {
      if (conn.busy && conn.ex.first_byte < 0) conn.ex.first_byte = now_s();
      conn.in.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    fail(conn, n == 0 ? "connection closed by server" : "read failed");
    return;
  }
  if (!conn.busy) {
    if (!conn.in.empty()) fail(conn, "unsolicited bytes");
    return;
  }
  if (parse(conn)) complete(conn);
}

// Advances the response parse; true when the response is complete.
bool HttpClient::parse(Conn& conn) {
  Exchange& ex = conn.ex;
  if (!conn.head) {
    std::size_t head_end = conn.in.find("\r\n\r\n");
    if (head_end == std::string::npos) return false;
    std::string_view head(conn.in.data(), head_end);
    if (head.substr(0, 9) != "HTTP/1.1 " || head.size() < 12) {
      fail(conn, "malformed status line");
      return false;
    }
    ex.status = std::atoi(conn.in.c_str() + 9);
    conn.chunked =
        head.find("Transfer-Encoding: chunked") != std::string_view::npos;
    std::size_t length_at = head.find("Content-Length: ");
    if (length_at != std::string_view::npos)
      conn.body_len = static_cast<std::size_t>(
          std::strtoull(conn.in.c_str() + length_at + 16, nullptr, 10));
    conn.head = true;
    conn.at = head_end + 4;
  }
  if (!conn.chunked) {
    if (conn.in.size() < conn.at + conn.body_len) return false;
    ex.response.assign(conn.in, conn.at, conn.body_len);
    conn.in.erase(0, conn.at + conn.body_len);
    ex.ok = ex.status == 200;
    return true;
  }
  while (true) {
    std::size_t line_end = conn.in.find("\r\n", conn.at);
    if (line_end == std::string::npos) return false;
    std::size_t size = std::strtoull(conn.in.c_str() + conn.at, nullptr, 16);
    std::size_t payload = line_end + 2;
    if (conn.in.size() < payload + size + 2) return false;
    conn.at = payload + size + 2;
    if (size == 0) {
      conn.in.erase(0, conn.at);
      ex.ok = ex.status == 200 && !ex.response.empty();
      if (!ex.ok && ex.error.empty()) ex.error = "stream ended without done";
      return true;
    }
    std::string_view event(conn.in.data() + payload, size);
    constexpr std::string_view kDone = "event: done\ndata: ";
    if (event.substr(0, kDone.size()) == kDone) {
      std::string_view json = event.substr(kDone.size());
      while (!json.empty() && json.back() == '\n') json.remove_suffix(1);
      ex.response.assign(json);
      continue;
    }
    std::string text;
    bool reset = false;
    if (!parse_delta(event, &text, &reset)) {
      ex.error = "malformed SSE event";
      continue;
    }
    if (reset) ex.streamed = text;
    else ex.streamed += text;
    if (!text.empty()) {
      double t = now_s();
      if (ex.first_text < 0) ex.first_text = t;
      ex.delta_times.push_back(t);
    }
  }
}

void HttpClient::complete(Conn& conn) {
  Exchange ex = std::move(conn.ex);
  Request request = std::move(conn.request);
  ex.done = now_s();
  if (!ex.error.empty()) ex.ok = false;
  if (ex.first_text < 0) ex.first_text = ex.first_byte;
  if (spans) {
    long id = static_cast<long>(ex.id);
    int root = spans->add("client.request", ex.due, ex.done, -1, id);
    spans->add("client.wait", ex.due, ex.sent, root, id);
    spans->add("client.first_byte", ex.sent, ex.first_byte, root, id);
    spans->add("client.body", ex.first_byte, ex.done, root, id);
  }
  conn.busy = false;
  --run_->in_flight;
  ++run_->completed;
  Run& run = *run_;
  // Send this connection's next request before any bookkeeping.
  if (run.closed) {
    if (run.issuing && conn.fd >= 0) {
      Request next = conn.prepared ? std::move(*conn.prepared)
                                   : (*run.next)(conn.index);
      conn.prepared.reset();
      start(conn, std::move(next), run.sent, ex.done, ex.done);
    }
  } else if (conn.fd >= 0) {
    std::size_t id = run.dispatcher->on_complete();
    if (id != OpenLoopDispatcher::npos)
      start(conn, std::move(run.requests[id]), id, run.due_at(id),
            run.released[id]);
    else
      run.free_conns.push_back(&conn);
  }
  (*run.done)(std::move(ex), std::move(request));
  bool finished = run.closed ? !run.issuing && run.in_flight == 0
                             : run.completed == run.due->size();
  if (finished) loop_.stop();
}

void HttpClient::fail(Conn& conn, std::string error) {
  loop_.remove(conn.fd);
  ::close(conn.fd);
  conn.fd = -1;
  conn.in.clear();
  if (conn.busy) {
    conn.ex.error = std::move(error);
    conn.ex.ok = false;
  }
  // Reconnect so the run continues on a full set of connections; the
  // failed exchange completes (as failed) through the normal path. When
  // the server is unreachable the run ends here and the caller counts
  // every request it did not get back as failed.
  if (!open(conn)) {
    connected_ = false;
    loop_.stop();
  }
  if (conn.busy) complete(conn);
}

void HttpClient::dispatch_due() {
  Run& run = *run_;
  double now = now_s();
  while (run.next_due < run.due->size() && run.due_at(run.next_due) <= now) {
    std::size_t id = run.next_due++;
    run.released[id] = now;
    if (run.dispatcher->on_due(id)) {
      Conn* conn = run.free_conns.back();
      run.free_conns.pop_back();
      start(*conn, std::move(run.requests[id]), id, run.due_at(id), now);
    }
  }
  if (run.next_due < run.due->size()) arm_timer(run.due_at(run.next_due));
}

std::size_t HttpClient::run_closed(
    double seconds, const std::function<Request(int lane)>& next,
    const DoneFn& done) {
  Run run;
  run.next = &next;
  run.done = &done;
  run_ = &run;
  arm_timer(now_s() + seconds);
  for (auto& conn : conns_) {
    Request first = next(conn->index);
    double now = now_s();
    start(*conn, std::move(first), run.sent, now, now);
  }
  if (connected_) loop_.run();
  // Requests prepared but never sent are dropped: the next run draws
  // fresh ones.
  for (auto& conn : conns_) conn->prepared.reset();
  disarm_timer();
  run_ = nullptr;
  return run.sent;
}

void HttpClient::run_open(const std::vector<double>& due,
                          std::vector<Request> requests, const DoneFn& done) {
  if (due.empty()) return;
  Run run;
  run.closed = false;
  run.done = &done;
  run.requests = std::move(requests);
  run.due = &due;
  run.released.assign(due.size(), 0.0);
  run.dispatcher = std::make_unique<OpenLoopDispatcher>(
      static_cast<int>(conns_.size()));
  for (auto it = conns_.rbegin(); it != conns_.rend(); ++it)
    run.free_conns.push_back(it->get());
  run.start = now_s();
  run_ = &run;
  arm_timer(run.due_at(0));
  if (connected_) loop_.run();
  disarm_timer();
  run_ = nullptr;
}

int http_request(std::uint16_t port, const std::string& method,
                 const std::string& path, const std::string& body,
                 std::string* response_body) {
  int fd = connect_loopback(port);
  if (fd < 0) return 0;
  std::string request = method + " " + path +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
                        "Content-Type: application/json\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  std::size_t off = 0;
  while (off < request.size()) {
    ssize_t n = ::send(fd, request.data() + off, request.size() - off,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return 0;
    }
    off += static_cast<std::size_t>(n);
  }
  std::string in;
  char buffer[16384];
  ssize_t n = 0;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0)
    in.append(buffer, static_cast<std::size_t>(n));
  ::close(fd);
  std::size_t head_end = in.find("\r\n\r\n");
  if (in.compare(0, 9, "HTTP/1.1 ") != 0 || head_end == std::string::npos)
    return 0;
  if (response_body) *response_body = in.substr(head_end + 4);
  return std::atoi(in.c_str() + 9);
}

}  // namespace wisdom::bench
