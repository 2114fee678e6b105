// Thread-safe metrics registry: named counters, gauges, and fixed-bucket
// histograms with lock-free hot-path updates.
//
// Design:
//   * Registration (name -> metric) takes a mutex once; the returned
//     reference is stable for the registry's lifetime, so instrumented
//     code caches it and the hot path is a relaxed atomic op — no lock,
//     no lookup.
//   * Histograms use fixed upper-bound buckets (Prometheus-style "le"
//     semantics: a sample lands in the first bucket whose bound is >= the
//     value, with an implicit +Inf overflow bucket). observe() is a
//     binary search plus two relaxed atomic adds.
//   * reset() zeroes values but never unregisters — cached references
//     stay valid across test cases and benchmark repetitions.
//   * Exposition: Prometheus text format with deterministic
//     (sorted-by-name) ordering, so output is golden-stable.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wisdom::obs {

// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Point-in-time double value (queue depth, last loss, accumulated wall
// time). add() is a CAS loop: atomic<double>::fetch_add is C++20 but not
// universally lock-free; the loop is portable and contention here is low.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram. Bounds are upper bounds, strictly increasing;
// an implicit +Inf bucket catches the overflow.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  // Finite bounds only; bucket i counts samples in
  // (bounds[i-1], bounds[i]], bucket bounds.size() is the +Inf overflow.
  const std::vector<double>& bounds() const { return bounds_; }
  // Non-cumulative per-bucket count, index in [0, bounds().size()].
  std::uint64_t bucket_value(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Nearest-rank percentile estimate, p in (0, 100]: the upper bound of
  // the bucket holding the sample at rank ceil(p/100 * count). For
  // samples that sit exactly on bucket bounds this equals
  // util::nearest_rank_percentile over the raw values. Rank in the +Inf
  // bucket (or an empty histogram) reports the largest finite bound (0 if
  // none).
  double percentile(double p) const;

  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// The default bucket ladder for latency-in-milliseconds histograms:
// 1-2.5-5 decades from 5us to 10s.
const std::vector<double>& default_latency_buckets_ms();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create by name. The reference is stable for the registry's
  // lifetime. Re-requesting an existing name with a different kind throws
  // std::logic_error (a naming bug worth failing loudly on). `help` is
  // recorded on first registration only.
  Counter& counter(std::string_view name, std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view help = "");
  // Empty bounds select default_latency_buckets_ms().
  Histogram& histogram(std::string_view name,
                       std::vector<double> bounds = {},
                       std::string_view help = "");

  // Lookup without creating; nullptr when absent (or a different kind).
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  // Zeroes every value; registered metrics (and handed-out references)
  // survive.
  void reset();

  // Prometheus text exposition format, metrics sorted by name.
  std::string expose_prometheus() const;

  // Process-wide registry used by the library's built-in instrumentation
  // (thread pool, model decode, trainer, pipeline).
  static MetricsRegistry& global();

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> metrics_;
};

}  // namespace wisdom::obs
