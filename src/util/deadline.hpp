// Deadline and cooperative-cancellation primitives for the serving path.
//
// A Deadline bounds a unit of work three ways:
//   * time-based (after_ms / at): expires when the wall clock passes the
//     point — the production serving budget,
//   * check-count-based (after_checks): expires after a fixed number of
//     expired() calls — a deterministic stand-in for "the decode is too
//     slow" that lets tests and the fault injector exercise every expiry
//     path without sleeping or depending on machine speed,
//   * infinite (default): never expires.
//
// Any deadline can additionally carry a CancelToken; cancellation trips
// expired() immediately regardless of the limit kind. Deadlines are cheap
// to copy; copies of a check-limited deadline share one budget (the checks
// model one request's total cooperative-check allowance, wherever the
// checks happen).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace wisdom::util {

// Read side of a cancellation flag. Default-constructed tokens are inert
// (never cancelled).
class CancelToken {
 public:
  CancelToken() = default;

  bool cancellable() const { return flag_ != nullptr; }
  bool cancelled() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

// Write side: the owner (e.g. the editor plugin when the user keeps
// typing) flips the flag; every token handed out observes it.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }
  CancelToken token() const { return CancelToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

class Deadline {
 public:
  Deadline() = default;  // infinite

  static Deadline infinite() { return Deadline(); }
  static Deadline at(std::chrono::steady_clock::time_point when);
  // Expires once `ms` milliseconds have elapsed from now; ms <= 0 (or NaN)
  // is already expired. A budget past the clock's range, +inf included,
  // saturates at its last tick and so never expires.
  static Deadline after_ms(double ms);
  // Expires after `checks` calls to expired() have returned false (the
  // call after the budget is spent returns true). checks <= 0 is already
  // expired. Deterministic: independent of wall time.
  static Deadline after_checks(std::int64_t checks);

  // Attaches a cancellation token; cancellation overrides any limit.
  void set_token(CancelToken token) { token_ = std::move(token); }
  const CancelToken& token() const { return token_; }

  bool has_limit() const {
    return kind_ != Kind::None || token_.cancellable();
  }

  // The cooperative check. Call once per unit of work (per decoded token);
  // each call on a check-limited deadline consumes one unit of budget.
  bool expired() const;

  // Milliseconds until a time-based deadline expires (>= 0); +infinity for
  // untimed deadlines with budget left, 0 when already expired.
  double remaining_ms() const;

 private:
  enum class Kind { None, Time, Checks };

  Kind kind_ = Kind::None;
  std::chrono::steady_clock::time_point at_{};
  std::shared_ptr<std::atomic<std::int64_t>> checks_left_;
  CancelToken token_;
};

}  // namespace wisdom::util
