// Fixed-size thread pool driving every parallel kernel in the library.
//
// Design constraints, in order:
//   1. Determinism. parallel_for splits an index range into at most size()
//      contiguous chunks with a fixed partition, so a kernel that writes
//      disjoint output rows per chunk produces bit-identical results at any
//      thread count (including 1). No work stealing, no atomics on data.
//   2. Nestability. A parallel_for issued from inside a pool lane runs
//      inline and sequentially on that lane. Every chunk of a parallel_for
//      runs as a lane: the workers' chunks and the caller's own first
//      chunk alike. Batched serving fans requests out across the pool and
//      the per-request kernels then must not re-enter it: from a worker
//      that would deadlock a fixed-size pool, and from the caller's chunk
//      the kernel's chunks would queue behind the other lanes' whole
//      share of the batch.
//   3. Exception safety. The first exception thrown by any chunk is
//      rethrown to the caller after all chunks finish; the pool stays
//      usable afterwards.
//
// The calling thread participates as one lane: a pool of N threads has
// N - 1 workers plus the caller, so WISDOM_THREADS=1 means zero worker
// threads and fully inline execution.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wisdom::util {

class ThreadPool {
 public:
  // threads <= 0 selects the environment default: WISDOM_THREADS if set,
  // otherwise std::thread::hardware_concurrency().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of concurrent lanes (workers + the calling thread), >= 1.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs body(chunk_begin, chunk_end) over a deterministic partition of
  // [begin, end) into at most size() contiguous chunks and blocks until
  // every chunk is done. The caller executes the first chunk itself, as a
  // lane (in_worker() is true while it runs; the flag is restored when
  // the chunk returns or throws). Called from a lane, runs body(begin,
  // end) inline instead.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>&
                        body);

  // True on a pool lane: a thread owned by a ThreadPool (any instance),
  // or a caller while it runs its own chunk of a parallel_for. Kernels
  // check it to run inline instead of dispatching to the pool.
  static bool in_worker();

  // Process-wide pool shared by the nn/model/serve layers. Built lazily
  // from env_threads() on first use.
  static ThreadPool& global();
  // Replaces the global pool with one of `threads` lanes (<= 0 restores
  // the environment default). Must not be called while work is in flight.
  static void set_global_threads(int threads);
  // WISDOM_THREADS if set and valid, else hardware_concurrency(), >= 1.
  static int env_threads();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace wisdom::util
