// Thread pool and parallel-kernel tests: pool lifecycle and exception
// safety, bit-exact sequential/parallel parity for the sharded matmul
// kernels (including shapes not divisible by the thread count), whole-model
// determinism across thread counts, and batched serving parity.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "model/config.hpp"
#include "model/transformer.hpp"
#include "nn/ops.hpp"
#include "obs/obs.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"
#include "text/bpe.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nn = wisdom::nn;
namespace wm = wisdom::model;
namespace ws = wisdom::serve;
namespace wt = wisdom::text;
using wisdom::util::Rng;
using wisdom::util::ThreadPool;

namespace {

// Forces every matmul through the pool (threshold 0) while the body runs,
// then restores the sequential-friendly default.
struct ForceParallel {
  std::size_t saved = nn::parallel_threshold();
  ForceParallel() { nn::set_parallel_threshold(0); }
  ~ForceParallel() { nn::set_parallel_threshold(saved); }
};

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v)
    x = static_cast<float>(rng.normal());
  return v;
}

}  // namespace

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(103);
  pool.parallel_for(0, 103, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i)
      hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndSingleRanges) {
  ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(7, 8, [&](std::int64_t b, std::int64_t e) {
    EXPECT_EQ(b, 7);
    EXPECT_EQ(e, 8);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  std::atomic<int> lanes_seen{0};
  pool.parallel_for(0, 4, [&](std::int64_t, std::int64_t) {
    // Every chunk, the caller's included, runs as a pool lane, and a
    // nested call runs inline as one full-range chunk (from a worker a
    // fixed-size pool would otherwise deadlock on itself; from the caller
    // it would queue behind the workers' chunks).
    EXPECT_TRUE(ThreadPool::in_worker());
    int chunks = 0;
    std::int64_t lo = -1, hi = -1;
    pool.parallel_for(0, 8, [&](std::int64_t ib, std::int64_t ie) {
      ++chunks;
      lo = ib;
      hi = ie;
      inner_calls += static_cast<int>(ie - ib);
    });
    EXPECT_EQ(chunks, 1);
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 8);
    ++lanes_seen;
  });
  EXPECT_EQ(inner_calls.load(), 4 * 8);
  EXPECT_EQ(lanes_seen.load(), 4);
  // The caller is a lane only while it runs its chunk.
  EXPECT_FALSE(ThreadPool::in_worker());
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 16,
                        [](std::int64_t b, std::int64_t) {
                          if (b >= 0) throw std::runtime_error("chunk");
                        }),
      std::runtime_error);
  // The caller's chunk threw too; it is no longer marked as a lane.
  EXPECT_FALSE(ThreadPool::in_worker());
  // Pool is still usable after an exception.
  std::atomic<int> total{0};
  pool.parallel_for(0, 16, [&](std::int64_t b, std::int64_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, CleanShutdownWithoutWork) {
  for (int i = 0; i < 8; ++i) {
    ThreadPool pool(3);
    (void)pool;
  }
  SUCCEED();
}

TEST(ThreadPool, EnvThreadsParsing) {
  ASSERT_EQ(setenv("WISDOM_THREADS", "5", 1), 0);
  EXPECT_EQ(ThreadPool::env_threads(), 5);
  ASSERT_EQ(setenv("WISDOM_THREADS", "junk", 1), 0);
  EXPECT_GE(ThreadPool::env_threads(), 1);
  ASSERT_EQ(setenv("WISDOM_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::env_threads(), 1);
  ASSERT_EQ(unsetenv("WISDOM_THREADS"), 0);
  EXPECT_GE(ThreadPool::env_threads(), 1);
}

// --- sequential vs parallel kernel parity ---------------------------------

TEST(ParallelOps, MatmulBitIdenticalAcrossThreadCounts) {
  ForceParallel force;
  // Odd shapes: m and n not divisible by any pool size under test; m == 1
  // exercises the column-sharded path, whose shards split the row kernel's
  // column blocks at arbitrary points (the served model's QKV, MLP
  // down-projection and LM-head shapes among them).
  const int shapes[][3] = {{7, 5, 9},    {1, 48, 65},  {13, 24, 7},
                           {3, 1, 11},   {1, 48, 144}, {1, 192, 48},
                           {1, 48, 512}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    auto a = random_vec(static_cast<std::size_t>(m) * k, 11);
    auto b = random_vec(static_cast<std::size_t>(k) * n, 12);
    std::vector<float> seq(static_cast<std::size_t>(m) * n);
    ThreadPool::set_global_threads(1);
    nn::matmul(a.data(), b.data(), seq.data(), m, k, n);
    for (int threads : {2, 3, 4, 8}) {
      ThreadPool::set_global_threads(threads);
      std::vector<float> par(seq.size(), -1.0f);
      nn::matmul(a.data(), b.data(), par.data(), m, k, n);
      EXPECT_EQ(0, std::memcmp(seq.data(), par.data(),
                               seq.size() * sizeof(float)))
          << "matmul " << m << "x" << k << "x" << n << " @" << threads;
    }
  }
  ThreadPool::set_global_threads(0);
}

TEST(ParallelOps, MatmulBtBitIdenticalAcrossThreadCounts) {
  ForceParallel force;
  const int shapes[][3] = {{7, 5, 9}, {1, 32, 33}, {9, 16, 5}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    auto a = random_vec(static_cast<std::size_t>(m) * k, 21);
    auto b = random_vec(static_cast<std::size_t>(n) * k, 22);
    std::vector<float> seq(static_cast<std::size_t>(m) * n);
    ThreadPool::set_global_threads(1);
    nn::matmul_bt(a.data(), b.data(), seq.data(), m, k, n);
    for (int threads : {2, 4, 8}) {
      ThreadPool::set_global_threads(threads);
      std::vector<float> par(seq.size(), -1.0f);
      nn::matmul_bt(a.data(), b.data(), par.data(), m, k, n);
      EXPECT_EQ(0, std::memcmp(seq.data(), par.data(),
                               seq.size() * sizeof(float)))
          << "matmul_bt " << m << "x" << k << "x" << n << " @" << threads;
    }
  }
  ThreadPool::set_global_threads(0);
}

TEST(ParallelOps, MatmulBackwardBitIdenticalAcrossThreadCounts) {
  ForceParallel force;
  const int shapes[][3] = {{7, 5, 9}, {1, 48, 13}, {11, 6, 3}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    auto a = random_vec(static_cast<std::size_t>(m) * k, 31);
    auto b = random_vec(static_cast<std::size_t>(k) * n, 32);
    auto dc = random_vec(static_cast<std::size_t>(m) * n, 33);
    // Non-zero seeds verify the += accumulation semantics survive sharding.
    auto da0 = random_vec(static_cast<std::size_t>(m) * k, 34);
    auto db0 = random_vec(static_cast<std::size_t>(k) * n, 35);

    std::vector<float> da_seq = da0, db_seq = db0;
    ThreadPool::set_global_threads(1);
    nn::matmul_backward(a.data(), b.data(), dc.data(), da_seq.data(),
                        db_seq.data(), m, k, n);
    for (int threads : {2, 4, 8}) {
      ThreadPool::set_global_threads(threads);
      std::vector<float> da_par = da0, db_par = db0;
      nn::matmul_backward(a.data(), b.data(), dc.data(), da_par.data(),
                          db_par.data(), m, k, n);
      EXPECT_EQ(0, std::memcmp(da_seq.data(), da_par.data(),
                               da_seq.size() * sizeof(float)))
          << "dA " << m << "x" << k << "x" << n << " @" << threads;
      EXPECT_EQ(0, std::memcmp(db_seq.data(), db_par.data(),
                               db_seq.size() * sizeof(float)))
          << "dB " << m << "x" << k << "x" << n << " @" << threads;
    }
  }
  ThreadPool::set_global_threads(0);
}

// --- whole-model determinism ----------------------------------------------

TEST(ParallelModel, LossAndGenerationIdenticalAcrossThreadCounts) {
  ForceParallel force;
  wm::ModelConfig cfg = wm::config_for(wm::SizeClass::S350M, 128, 32);
  wm::Transformer model(cfg, 5);
  Rng rng(9);
  const int batch = 3;  // odd slot count (batch * n_head = 12) still shards
  std::vector<std::int32_t> x(static_cast<std::size_t>(batch) * cfg.ctx);
  std::vector<std::int32_t> y(x.size());
  for (auto& v : x) v = static_cast<std::int32_t>(rng.uniform(cfg.vocab));
  for (auto& v : y) v = static_cast<std::int32_t>(rng.uniform(cfg.vocab));
  std::vector<std::int32_t> prompt = {3, 1, 4, 1, 5, 9, 2, 6};
  wm::Transformer::GenerateOptions gen;
  gen.max_new_tokens = 12;

  ThreadPool::set_global_threads(1);
  const float loss_seq = model.evaluate(x, y, batch, cfg.ctx);
  const auto out_seq = model.generate(prompt, gen);

  for (int threads : {2, 4, 8}) {
    ThreadPool::set_global_threads(threads);
    EXPECT_EQ(loss_seq, model.evaluate(x, y, batch, cfg.ctx))
        << "evaluate @" << threads;
    EXPECT_EQ(out_seq, model.generate(prompt, gen))
        << "generate @" << threads;
  }
  ThreadPool::set_global_threads(0);
}

// --- batched serving ------------------------------------------------------

TEST(BatchedServe, MatchesSequentialSuggest) {
  ForceParallel force;
  ThreadPool::set_global_threads(4);
  wt::BpeTokenizer tokenizer = wt::BpeTokenizer::train(
      "- name: Install nginx\n  ansible.builtin.apt:\n"
      "    name: nginx\n    state: present\n",
      280);
  wm::ModelConfig cfg;
  cfg.vocab = static_cast<std::int32_t>(tokenizer.vocab_size());
  cfg.ctx = 48;
  cfg.d_model = 24;
  cfg.n_head = 2;
  cfg.n_layer = 2;
  cfg.d_ff = 48;
  wm::Transformer model(cfg, 17);  // untrained: output is arbitrary but
                                   // deterministic under greedy decoding
  std::vector<ws::SuggestionRequest> requests(5);
  const char* prompts[] = {"Install nginx", "Start redis", "Copy a file",
                           "Install nginx", "Enable service"};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].prompt = prompts[i];
    requests[i].indent = static_cast<int>(i % 3);
  }

  ws::InferenceService sequential(model, tokenizer);
  std::vector<ws::SuggestionResponse> expected;
  for (const auto& r : requests) expected.push_back(sequential.suggest(r));

  using wisdom::testutil::pool_tasks;
  wisdom::obs::set_enabled(true);
  ws::InferenceService batched(model, tokenizer);
  const double tasks_before = pool_tasks();
  auto responses = batched.suggest_batch(requests);
  const double tasks_run = pool_tasks() - tasks_before;
  ASSERT_EQ(responses.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(responses[i].snippet, expected[i].snippet) << "request " << i;
    EXPECT_EQ(responses[i].ok, expected[i].ok);
    EXPECT_EQ(responses[i].schema_correct, expected[i].schema_correct);
    EXPECT_EQ(responses[i].generated_tokens, expected[i].generated_tokens);
  }

  using wisdom::testutil::metric_value;
  const auto& registry = batched.metrics();
  EXPECT_EQ(metric_value(registry, "wisdom_serve_requests_total"),
            requests.size());
  EXPECT_EQ(metric_value(registry, "wisdom_serve_request_ms_count"),
            requests.size());
  EXPECT_GT(metric_value(registry, "wisdom_serve_generated_tokens_total"),
            0.0);
  // A batch books its wall time exactly once.
  EXPECT_GT(metric_value(registry, "wisdom_serve_wall_ms"), 0.0);
  ThreadPool::set_global_threads(0);

  // The fan-out is one chunk per lane (4 lanes for 5 requests), and every
  // kernel nested in a lane, the caller's included, runs inline: even with
  // the threshold at 0 no other chunk reaches the pool.
  if (!wisdom::obs::kCompiledIn) GTEST_SKIP() << "built with WISDOM_OBS=OFF";
  EXPECT_EQ(tasks_run, 4.0);
}
