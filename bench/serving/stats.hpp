// Statistics the serving benchmark reports: nearest-rank percentiles, the
// highest percentile a sample supports, open-loop dispatch with due-time
// accounting, and the goodput rule. Header-only and dependency-free so
// stats_test.cpp checks exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <vector>

namespace wisdom::bench {

// The nearest rank ceil(p/100 * n), clamped to [1, n]. The tolerance keeps
// p/100 * n that is an integer in exact arithmetic (99.9% of 10000) from
// rounding up past it.
inline std::size_t nearest_rank(double p, std::size_t n) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, std::max<std::size_t>(n, 1));
}

// Nearest-rank percentile, p in (0, 100]: the sample at nearest_rank(p, n)
// of the ascending order. 0 for an empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(p, values.size()) - 1];
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at
// least `min_beyond` samples above its nearest rank in a sample of n; 0
// when even the median is unsupported. A tail percentile is only reported
// as measured when this is at least as high.
inline double supported_percentile(std::size_t n, std::size_t min_beyond = 10) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (n > 0 && n - nearest_rank(p, n) >= min_beyond) return p;
  return 0.0;
}

// Open-loop dispatch over a fixed set of connections. Requests become due
// on the generator's schedule; a due request takes the first free
// connection, or waits FIFO until one frees. Each request is timed from
// its due time, never from when it was sent, so a stalled request charges
// its wait to every request queued behind it (no coordinated omission).
class OpenLoopDispatcher {
 public:
  explicit OpenLoopDispatcher(int connections)
      : free_(static_cast<std::size_t>(connections)) {}

  // Request `id` became due; true when a connection is free to send it
  // now (the caller sends it and the connection becomes busy).
  bool on_due(std::size_t id) {
    if (free_ > 0 && waiting_.empty()) {
      --free_;
      return true;
    }
    waiting_.push_back(id);
    return false;
  }

  // A connection finished its request. Returns the id the connection
  // sends next, or npos when nothing is waiting (it becomes free).
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t on_complete() {
    if (waiting_.empty()) {
      ++free_;
      return npos;
    }
    std::size_t id = waiting_.front();
    waiting_.pop_front();
    return id;
  }

 private:
  std::size_t free_;
  std::deque<std::size_t> waiting_;
};

// One rate phase of the open-loop workload, for the goodput rule.
struct PhaseResult {
  double rate = 0.0;         // offered requests per second
  double ttft_p99_ms = 0.0;  // over requests due in the phase
  int failed = 0;            // failed requests count as missing the limit
  // Requests due but not completed at the phase's start and end.
  int backlog_start = 0;
  int backlog_end = 0;
  int arrivals = 0;
};

// A phase's backlog grows when more requests are outstanding at its end
// than at its start, beyond what the connections hold in flight plus 5%
// of the phase's arrivals (Poisson bursts at a stable rate stay within).
inline bool backlog_grows(const PhaseResult& phase, int connections) {
  int slack = connections + static_cast<int>(0.05 * phase.arrivals);
  return phase.backlog_end - phase.backlog_start > slack;
}

// Goodput: the highest phase rate whose p99 TTFT meets `limit_ms` with no
// failed request and no growing backlog; 0 when no phase qualifies.
inline double goodput(const std::vector<PhaseResult>& phases, double limit_ms,
                      int connections) {
  double best = 0.0;
  for (const PhaseResult& phase : phases) {
    if (phase.failed == 0 && phase.ttft_p99_ms <= limit_ms &&
        !backlog_grows(phase, connections))
      best = std::max(best, phase.rate);
  }
  return best;
}

}  // namespace wisdom::bench
