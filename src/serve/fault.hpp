// Deterministic fault injection for the serving path.
//
// Robustness behavior (deadline fallback, load shedding) is miserable to
// test with real timing: a "slow decode" produced by sleeping is flaky and
// slow, and a genuinely full queue needs racing threads. The FaultInjector
// instead forces each overload path to trigger on demand:
//
//   * slow_decode_after_tokens: requests decode under a check-count
//     deadline that expires after N cooperative checks — the decode "takes
//     too long" after exactly N tokens, on any machine, with no sleeps,
//   * force_queue_full: admission behaves as if the queue were at capacity.
//
// Both knobs are atomics so tests can flip them while worker threads serve;
// a default-constructed injector injects nothing. reset() is the single
// source of truth for the inactive values — the members are
// default-initialized in reset()'s terms, never with their own literals.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/deadline.hpp"

namespace wisdom::serve {

class FaultInjector {
 public:
  FaultInjector() { reset(); }

  // --- forced slow decode --------------------------------------------------
  // n >= 0: every subsequent request decodes under Deadline::after_checks(n)
  // (n counts prefill and generated tokens together). n < 0 disables.
  void set_slow_decode_after_tokens(std::int64_t n) {
    slow_decode_tokens_.store(n, std::memory_order_relaxed);
  }
  bool slow_decode_active() const {
    return slow_decode_tokens_.load(std::memory_order_relaxed) >= 0;
  }
  // The per-request deadline to decode under; call once per request.
  util::Deadline slow_decode_deadline() const {
    return util::Deadline::after_checks(
        slow_decode_tokens_.load(std::memory_order_relaxed));
  }

  // --- forced queue-full ---------------------------------------------------
  void set_force_queue_full(bool full) {
    force_queue_full_.store(full, std::memory_order_relaxed);
  }
  bool queue_full_forced() const {
    return force_queue_full_.load(std::memory_order_relaxed);
  }

  // The single source of truth for the inactive defaults; the constructor
  // delegates here so the literals exist exactly once.
  void reset() {
    set_slow_decode_after_tokens(-1);
    set_force_queue_full(false);
  }

 private:
  std::atomic<std::int64_t> slow_decode_tokens_;
  std::atomic<bool> force_queue_full_;
};

}  // namespace wisdom::serve
