#include "util/deadline.hpp"

#include <limits>

namespace wisdom::util {

Deadline Deadline::at(std::chrono::steady_clock::time_point when) {
  Deadline d;
  d.kind_ = Kind::Time;
  d.at_ = when;
  return d;
}

Deadline Deadline::after_ms(double ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  if (!(ms > 0.0)) return at(now);
  // Saturate at the clock's last tick. A budget past the clock's range
  // (about 292 years of nanoseconds, or +inf) would overflow the
  // conversion to ticks, and the deadline would start out expired.
  const Clock::duration headroom = Clock::time_point::max() - now;
  const double ticks =
      std::chrono::duration<double, Clock::period>(
          std::chrono::duration<double, std::milli>(ms))
          .count();
  if (ticks >= static_cast<double>(headroom.count()))
    return at(Clock::time_point::max());
  // headroom rounds up to the nearest double, so `ticks` can still land a
  // few ticks past it.
  const Clock::duration budget(static_cast<Clock::rep>(ticks));
  return at(budget >= headroom ? Clock::time_point::max() : now + budget);
}

Deadline Deadline::after_checks(std::int64_t checks) {
  Deadline d;
  d.kind_ = Kind::Checks;
  d.checks_left_ =
      std::make_shared<std::atomic<std::int64_t>>(checks < 0 ? 0 : checks);
  return d;
}

bool Deadline::expired() const {
  if (token_.cancelled()) return true;
  switch (kind_) {
    case Kind::None:
      return false;
    case Kind::Time:
      return std::chrono::steady_clock::now() >= at_;
    case Kind::Checks:
      // fetch_sub so concurrent checkers (batched prefill lanes) each
      // consume budget exactly once; the floor at zero keeps repeated
      // calls on an expired deadline from wrapping.
      if (checks_left_->load(std::memory_order_relaxed) <= 0) return true;
      return checks_left_->fetch_sub(1, std::memory_order_relaxed) <= 0;
  }
  return false;
}

double Deadline::remaining_ms() const {
  if (token_.cancelled()) return 0.0;
  switch (kind_) {
    case Kind::None:
      return std::numeric_limits<double>::infinity();
    case Kind::Time: {
      double ms = std::chrono::duration<double, std::milli>(
                      at_ - std::chrono::steady_clock::now())
                      .count();
      return ms < 0.0 ? 0.0 : ms;
    }
    case Kind::Checks:
      return checks_left_->load(std::memory_order_relaxed) > 0
                 ? std::numeric_limits<double>::infinity()
                 : 0.0;
  }
  return 0.0;
}

}  // namespace wisdom::util
