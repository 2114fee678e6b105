// Deterministic fault injection for the serving path.
//
// Robustness behavior (deadline fallback, load shedding, circuit
// breaking) is miserable to test with real timing: a "slow decode"
// produced by sleeping is flaky and slow, and a genuinely full queue needs
// racing threads. The FaultInjector instead forces each degraded path to
// trigger on demand:
//
//   * slow_decode_after_tokens: requests decode under a check-count
//     deadline that expires after N cooperative checks — the decode "takes
//     too long" after exactly N tokens, on any machine, with no sleeps,
//   * fail_generate: generation fails on demand. Credit semantics:
//     n > 0 arms exactly n failures — each take_generate_failure() call
//     consumes one credit (CAS decrement) until the count reaches 0;
//     n < 0 means INFINITE — every call fails, no credit is consumed,
//     until reset() or set_fail_generate(0); n == 0 disables,
//   * force_queue_full: admission behaves as if the queue were at capacity,
//   * poison_breaker: the next N outcomes recorded by the service are
//     forced to count as failures in the circuit breaker's rolling window
//     regardless of the real response (same credit semantics).
//
// All knobs are atomics so tests can flip them while worker threads serve;
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

  // --- forced generate failure --------------------------------------------
  // n > 0: the next n requests fail generation (credits, consumed one per
  // take_generate_failure()). n < 0: every request fails until reset —
  // infinite credit, nothing is consumed. 0 disables.
  void set_fail_generate(std::int64_t n) {
    fail_generate_.store(n, std::memory_order_relaxed);
  }
  // Consumes one failure credit; true when this request must fail.
  bool take_generate_failure() { return take_credit(fail_generate_); }

  // --- forced queue-full ---------------------------------------------------
  void set_force_queue_full(bool full) {
    force_queue_full_.store(full, std::memory_order_relaxed);
  }
  bool queue_full_forced() const {
    return force_queue_full_.load(std::memory_order_relaxed);
  }

  // --- breaker-window poisoning -------------------------------------------
  // Same credit semantics: n > 0 forces the next n recorded outcomes to
  // count as breaker failures, n < 0 poisons every outcome, 0 disables.
  void set_poison_breaker(std::int64_t n) {
    poison_breaker_.store(n, std::memory_order_relaxed);
  }
  bool take_breaker_poison() { return take_credit(poison_breaker_); }

  // The single source of truth for the inactive defaults; the constructor
  // delegates here so the literals exist exactly once.
  void reset() {
    set_slow_decode_after_tokens(-1);
    set_fail_generate(0);
    set_force_queue_full(false);
    set_poison_breaker(0);
  }

 private:
  // Shared credit-consumption loop: n < 0 = infinite (always true, never
  // decremented), n == 0 = off, n > 0 = CAS one credit away per call.
  static bool take_credit(std::atomic<std::int64_t>& credits) {
    std::int64_t n = credits.load(std::memory_order_relaxed);
    while (true) {
      if (n < 0) return true;
      if (n == 0) return false;
      if (credits.compare_exchange_weak(n, n - 1, std::memory_order_relaxed))
        return true;
    }
  }

  std::atomic<std::int64_t> slow_decode_tokens_;
  std::atomic<std::int64_t> fail_generate_;
  std::atomic<bool> force_queue_full_;
  std::atomic<std::int64_t> poison_breaker_;
};

}  // namespace wisdom::serve
