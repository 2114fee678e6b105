#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

namespace wisdom::net {

namespace {

// Packs (generation, fd) into the epoll user-data word so a stale event —
// one queued for an fd that was removed (and possibly reused) after the
// epoll_wait batch was collected — can be recognized and dropped.
std::uint64_t pack_key(std::uint32_t generation, int fd) {
  return (static_cast<std::uint64_t>(generation) << 32) |
         static_cast<std::uint32_t>(fd);
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ >= 0 && wake_fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = pack_key(0, wake_fd_);
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool EventLoop::add(int fd, std::uint32_t events, IoCallback callback) {
  if (!valid() || fd < 0) return false;
  Handler handler;
  handler.generation = next_generation_++;
  handler.callback = std::make_shared<IoCallback>(std::move(callback));
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = pack_key(handler.generation, fd);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  handlers_[fd] = std::move(handler);
  return true;
}

bool EventLoop::modify(int fd, std::uint32_t events) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return false;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = pack_key(it->second.generation, fd);
  return epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::remove(int fd) {
  if (handlers_.erase(fd) > 0)
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    posted_.push_back(std::move(fn));
  }
  std::uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the loop; other errors
  // have no recovery an I/O loop could attempt.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::run_posted() {
  // Swap the queue out under the lock, run outside it: closures may post
  // more work (which lands in the next batch) without deadlocking.
  std::deque<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::run() {
  if (!valid()) return;
  std::vector<epoll_event> events(64);
  while (stops_.load(std::memory_order_acquire) == stops_honoured_) {
    int n = epoll_wait(epoll_fd_, events.data(),
                       static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t key = events[static_cast<std::size_t>(i)].data.u64;
      const int fd = static_cast<int>(key & 0xffffffffu);
      const std::uint32_t generation = static_cast<std::uint32_t>(key >> 32);
      if (fd == wake_fd_) {
        std::uint64_t count = 0;
        while (::read(wake_fd_, &count, sizeof(count)) > 0) {
        }
        continue;
      }
      auto it = handlers_.find(fd);
      if (it == handlers_.end() || it->second.generation != generation)
        continue;  // removed (possibly re-added) after the batch was taken
      // Keep the callback alive across the call even if the handler
      // removes itself (connection close inside its own event).
      std::shared_ptr<IoCallback> callback = it->second.callback;
      (*callback)(events[static_cast<std::size_t>(i)].events);
    }
    run_posted();
  }
  run_posted();
  stops_honoured_ = stops_.load(std::memory_order_acquire);
}

void EventLoop::stop() {
  stops_.fetch_add(1, std::memory_order_release);
  post([] {});  // wake the loop so it observes the flag
}

}  // namespace wisdom::net
