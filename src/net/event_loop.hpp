// Single-threaded epoll reactor — the I/O core of the HTTP front end.
//
// One thread owns the loop and every registered file descriptor; all
// socket reads, writes, and timer-free state transitions happen on that
// thread, so per-connection state needs no locks. Other threads talk to
// the loop exclusively through post(), which enqueues a closure and wakes
// the loop via an eventfd — this is how service worker threads hand
// finished responses (and streaming chunks) back to the connection that
// asked for them without ever touching a socket themselves.
//
// Level-triggered epoll: handlers read/write until EAGAIN but are
// re-notified if they leave data behind, which keeps partial-read /
// partial-write handling straightforward under slow or torn clients.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace wisdom::net {

class EventLoop {
 public:
  // Invoked on the loop thread with the ready epoll event mask
  // (EPOLLIN / EPOLLOUT / EPOLLHUP / EPOLLERR bits).
  using IoCallback = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // False when epoll/eventfd creation failed (fd exhaustion).
  bool valid() const { return epoll_fd_ >= 0 && wake_fd_ >= 0; }

  // fd registration. Loop-thread only (or before run() starts). The fd is
  // borrowed: remove() deregisters but never closes it. Registrations are
  // generation-stamped so an event carried by an already-removed fd —
  // even one whose number the kernel has reused — is dropped instead of
  // being delivered to the new owner.
  bool add(int fd, std::uint32_t events, IoCallback callback);
  bool modify(int fd, std::uint32_t events);
  void remove(int fd);

  // Thread-safe: enqueues `fn` to run on the loop thread and wakes it.
  // Closures run in post order, after the I/O handlers of the wakeup's
  // epoll batch. Safe to call from handlers and from posted closures.
  void post(std::function<void()> fn);

  // Runs until stop(). Returns after draining the final posted batch.
  // A stopped loop can run again.
  void run();
  // Thread-safe; idempotent. A stop() issued before run() is reached is
  // not lost: that run() returns at once, so a loop thread that starts
  // late cannot miss it.
  void stop();

 private:
  struct Handler {
    std::uint32_t generation = 0;
    std::shared_ptr<IoCallback> callback;
  };

  void run_posted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  // stop() calls so far; never reset. run() returns once this moves past
  // the count it has already honoured.
  std::atomic<std::uint64_t> stops_{0};
  std::uint64_t stops_honoured_ = 0;  // touched only by the running thread
  std::uint32_t next_generation_ = 1;
  std::unordered_map<int, Handler> handlers_;
  std::mutex mu_;
  std::deque<std::function<void()>> posted_;
};

}  // namespace wisdom::net
