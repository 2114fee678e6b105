#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace wisdom::util {

namespace {

thread_local bool t_in_worker = false;

// Marks the calling thread as a pool lane while alive; the previous flag
// comes back on scope exit, exceptions included.
struct LaneScope {
  bool saved = t_in_worker;
  LaneScope() { t_in_worker = true; }
  ~LaneScope() { t_in_worker = saved; }
};

// Pool metrics live in the global registry. Registered eagerly at pool
// construction so the families appear in every exposition dump; updates
// are gated on obs::enabled() (the queue-depth gauge and the per-chunk
// latency histogram read a clock / take atomics on the kernel hot path).
struct PoolMetrics {
  obs::Counter* tasks;
  obs::Gauge* queue_depth;
  obs::Histogram* task_ms;
};

PoolMetrics& pool_metrics() {
  static PoolMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::global();
    return PoolMetrics{
        &registry.counter("wisdom_pool_tasks_total",
                          "Chunks executed by parallel_for (worker lanes "
                          "and the calling thread)."),
        &registry.gauge("wisdom_pool_queue_depth",
                        "Queued chunks awaiting a worker, sampled at "
                        "enqueue time."),
        &registry.histogram("wisdom_pool_task_ms", {},
                            "Per-chunk execution latency."),
    };
  }();
  return metrics;
}

double elapsed_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::mutex& global_mu() {
  static std::mutex mu;
  return mu;
}

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

int ThreadPool::env_threads() {
  if (const char* env = std::getenv("WISDOM_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 1024)
      return static_cast<int>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool ThreadPool::in_worker() { return t_in_worker; }

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(global_mu());
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(env_threads());
  return *slot;
}

void ThreadPool::set_global_threads(int threads) {
  std::lock_guard<std::mutex> lock(global_mu());
  auto& slot = global_slot();
  slot.reset();  // join the old workers before starting new ones
  slot = std::make_unique<ThreadPool>(threads);
}

ThreadPool::ThreadPool(int threads) {
  if constexpr (obs::kCompiledIn) pool_metrics();  // register the families
  if (threads <= 0) threads = env_threads();
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (size() <= 1 || n == 1 || t_in_worker) {
    body(begin, end);
    return;
  }

  const std::int64_t chunks = std::min<std::int64_t>(size(), n);
  const std::int64_t base = n / chunks;
  const std::int64_t rem = n % chunks;
  auto chunk_begin = [&](std::int64_t c) {
    return begin + c * base + std::min(c, rem);
  };

  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    std::int64_t remaining;
    std::exception_ptr error;
  } sync;
  sync.remaining = chunks - 1;

  const bool observe = obs::enabled();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::int64_t c = 1; c < chunks; ++c) {
      const std::int64_t b = chunk_begin(c);
      const std::int64_t e = chunk_begin(c + 1);
      queue_.emplace_back([&sync, &body, b, e, observe] {
        std::exception_ptr err;
        auto task_start = observe ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
        try {
          body(b, e);
        } catch (...) {
          err = std::current_exception();
        }
        if (observe)
          pool_metrics().task_ms->observe(elapsed_ms_since(task_start));
        std::lock_guard<std::mutex> task_lock(sync.mu);
        if (err && !sync.error) sync.error = err;
        if (--sync.remaining == 0) sync.cv.notify_one();
      });
    }
    if (observe)
      pool_metrics().queue_depth->set(static_cast<double>(queue_.size()));
  }
  cv_.notify_all();
  if (observe) pool_metrics().tasks->inc(static_cast<std::uint64_t>(chunks));

  // The caller runs the first chunk as a lane, so a parallel_for nested in
  // it runs inline like one nested in a worker's chunk; its exception
  // still waits for the workers (they reference stack state) before
  // propagating.
  std::exception_ptr local;
  auto caller_start = observe ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
  try {
    LaneScope lane;
    body(chunk_begin(0), chunk_begin(1));
  } catch (...) {
    local = std::current_exception();
  }
  if (observe)
    pool_metrics().task_ms->observe(elapsed_ms_since(caller_start));
  {
    std::unique_lock<std::mutex> lock(sync.mu);
    sync.cv.wait(lock, [&sync] { return sync.remaining == 0; });
  }
  if (sync.error) std::rethrow_exception(sync.error);
  if (local) std::rethrow_exception(local);
}

}  // namespace wisdom::util
