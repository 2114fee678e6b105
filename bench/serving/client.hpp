// The load generator: one thread, one epoll loop, a fixed set of
// keep-alive connections to the in-process /v1 server. Closed loops send a
// connection's next request when its previous response completes; open
// loops send on a seeded schedule and time each request from its due time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace wisdom::bench {

// One request/response exchange. Times are now_s() seconds.
struct Exchange {
  std::size_t id = 0;  // closed loop: send order; open loop: schedule index
  // Open loop: the scheduled send. Closed loop: when the connection became
  // free (its previous answer arrived), since the next request is due then.
  double due = 0.0;
  double released = 0.0;  // when the generator noticed it was due
  double sent = 0.0;
  double first_byte = -1.0;
  double first_text = -1.0;  // stream: first non-empty delta
  double done = 0.0;
  int status = 0;
  bool ok = false;     // complete, well-formed 200 response
  std::string error;   // connection or protocol failure
  std::string response;  // response JSON (the body, or the `done` event)
  std::string streamed;  // stream: append/reset deltas applied in order
  std::vector<double> delta_times;  // stream: each non-empty delta
};

class HttpClient {
 public:
  // Receives each completed exchange with the request it answered, after
  // the connection's next request has been sent.
  using DoneFn = std::function<void(Exchange&&, Request&&)>;

  HttpClient(std::uint16_t port, int connections, bool stream);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool connected() const { return connected_; }

  // Closed loop for `seconds`: each connection sends next(lane), and
  // prepares its following request while the server answers. Requests in
  // flight at the end complete. Returns the number of requests sent.
  std::size_t run_closed(double seconds,
                         const std::function<Request(int lane)>& next,
                         const DoneFn& done);

  // Open loop: requests[i] is due `due[i]` seconds after the call.
  void run_open(const std::vector<double>& due, std::vector<Request> requests,
                const DoneFn& done);

  // When set, each completed exchange records client spans (request, wait,
  // first byte, body) here as it completes.
  SpanLog* spans = nullptr;

 private:
  struct Conn;
  struct Run;
  void start(Conn& conn, Request request, std::size_t id, double due,
             double released);
  void on_readable(Conn& conn);
  bool parse(Conn& conn);
  void complete(Conn& conn);
  void fail(Conn& conn, std::string error);
  void dispatch_due();
  void arm_timer(double at_s);
  void disarm_timer();
  bool open(Conn& conn);

  std::uint16_t port_;
  bool stream_;
  bool connected_ = false;
  net::EventLoop loop_;
  int timer_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  Run* run_ = nullptr;  // the run in progress
};

// One blocking request on a fresh connection (Connection: close); returns
// the HTTP status and fills `body`. 0 on a connection failure.
int http_request(std::uint16_t port, const std::string& method,
                 const std::string& path, const std::string& body,
                 std::string* response_body);

}  // namespace wisdom::bench
