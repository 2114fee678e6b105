// Bounded admission in front of the inference pool.
//
// The Lightspeed lesson: an unbounded queue under sustained overload does
// not fail, it just converts every request into a timeout — latency grows
// without bound while throughput stays pinned at capacity. A bounded
// admission count with an explicit shed policy keeps the served requests
// fast and makes the overload visible to clients as a typed, retryable
// error instead of a slow death.
//
// The queue is a counting gate, not a holding buffer: a slot is held for
// the lifetime of an admitted request and released when its response is
// produced. try_acquire is lock-free and never blocks — on a full queue the
// caller sheds immediately (reject-newest).
//
// It is the first rung of the service's one overload ladder: admission
// here (with its ShedPolicy), then the per-request deadline with its
// lint-gated salvage, then the deterministic FallbackSuggester, and drain
// when the service goes away. Nothing else refuses or short-cuts work.
#pragma once

#include <atomic>

namespace wisdom::serve {

// What to do with a request the queue cannot admit.
enum class ShedPolicy {
  // Refuse it outright with ServiceError::Overloaded (default); the
  // client recovers by retrying after a backoff.
  RejectNewest,
  // Serve it from the deterministic fallback suggester instead of the
  // model: every caller still gets a schema-checked snippet, tagged
  // degraded, at O(us) cost.
  DegradeNewest,
};

class AdmissionQueue {
 public:
  // capacity <= 0 means unbounded (admission always succeeds).
  explicit AdmissionQueue(int capacity) : capacity_(capacity) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  int capacity() const { return capacity_; }
  bool bounded() const { return capacity_ > 0; }
  int in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  // Claims a slot; false when the queue is full.
  bool try_acquire() {
    if (!bounded()) return true;
    int n = in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n <= capacity_) return true;
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }

  // Releases a slot previously claimed with a successful try_acquire.
  void release() {
    if (bounded()) in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  int capacity_;
  std::atomic<int> in_flight_{0};
};

}  // namespace wisdom::serve
