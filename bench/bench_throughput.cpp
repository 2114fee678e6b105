// Reproduces the paper's deployment-latency argument: "we benchmarked the
// generation throughput on single GPU for both models and found that the
// 350M model was ~1.9x faster than the 2.7B" — the reason Wisdom ships the
// small model. Here: greedy-decode and training-step throughput across the
// scaled size family, swept over 1/2/4/8 pool threads so the model-size /
// latency table can be reproduced at each parallelism level, plus batched
// serving throughput through the InferenceService.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "model/config.hpp"
#include "model/transformer.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "text/bpe.hpp"
#include "util/percentile.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace model = wisdom::model;
namespace serve = wisdom::serve;
namespace text = wisdom::text;

namespace {

// Per-service registries die with their benchmark-local service; the last
// serving benchmark stashes its exposition here so main() can print it
// next to the global (pool/model) families.
std::string g_last_service_exposition;

constexpr std::int32_t kVocab = 512;
constexpr std::int32_t kCtx = 96;

model::SizeClass size_from_index(int index) {
  switch (index) {
    case 0: return model::SizeClass::S350M;
    case 1: return model::SizeClass::M2_7B;
    case 2: return model::SizeClass::L6B;
    default: return model::SizeClass::XL175B;
  }
}

std::string label_with_threads(model::SizeClass size, int threads) {
  return model::size_label(size) + "/t" + std::to_string(threads);
}

// A counter or gauge from the service's metrics registry.
double service_metric(const serve::InferenceService& service,
                      const char* name) {
  const wisdom::obs::MetricsRegistry& registry = service.metrics();
  if (const wisdom::obs::Counter* counter = registry.find_counter(name))
    return static_cast<double>(counter->value());
  return registry.find_gauge(name)->value();
}

// Generated tokens per second of service-side wall time: a batch books
// its wall time once, so this reflects batching throughput.
double tokens_per_sec(const serve::InferenceService& service) {
  const double wall_ms = service_metric(service, "wisdom_serve_wall_ms");
  return wall_ms <= 0.0
             ? 0.0
             : service_metric(service, "wisdom_serve_generated_tokens_total") /
                   (wall_ms / 1e3);
}

// Appends the latency of every response the service answered; a
// reject-newest refusal was never served, so it has no latency sample.
void collect_latencies(const std::vector<serve::SuggestionResponse>& responses,
                       std::vector<double>* latencies_ms) {
  for (const serve::SuggestionResponse& response : responses) {
    if (response.error == serve::ServiceError::Overloaded && !response.degraded)
      continue;
    latencies_ms->push_back(response.latency_ms);
  }
}

void BM_GreedyDecode(benchmark::State& state) {
  model::SizeClass size = size_from_index(static_cast<int>(state.range(0)));
  const int threads = static_cast<int>(state.range(1));
  wisdom::util::ThreadPool::set_global_threads(threads);
  model::ModelConfig cfg = model::config_for(size, kVocab, kCtx);
  model::Transformer m(cfg, 7);
  wisdom::util::Rng rng(1);

  std::int64_t tokens = 0;
  for (auto _ : state) {
    model::Transformer::KvCache cache = m.make_cache();
    for (int i = 0; i < kCtx; ++i) {
      auto logits = m.decode_step(
          cache, static_cast<std::int32_t>(rng.uniform(kVocab)));
      benchmark::DoNotOptimize(logits.data());
      ++tokens;
    }
  }
  state.counters["tokens/s"] =
      benchmark::Counter(static_cast<double>(tokens),
                         benchmark::Counter::kIsRate);
  state.counters["params"] = static_cast<double>(m.param_count());
  state.SetLabel(label_with_threads(size, threads));
}
BENCHMARK(BM_GreedyDecode)
    ->ArgsProduct({{0, 1, 2, 3}, {1, 2, 4, 8}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The acceptance metric for the thread pool: the 350M-config forward pass
// (batch x ctx rows through every layer) at 1/2/4/8 threads. Output is
// bit-identical across thread counts; only wall time changes.
void BM_ForwardPass(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  wisdom::util::ThreadPool::set_global_threads(threads);
  model::ModelConfig cfg =
      model::config_for(model::SizeClass::S350M, kVocab, kCtx);
  model::Transformer m(cfg, 7);
  wisdom::util::Rng rng(3);
  const int batch = 8;
  std::vector<std::int32_t> x(static_cast<std::size_t>(batch) * kCtx);
  std::vector<std::int32_t> y(x.size());
  for (auto& v : x) v = static_cast<std::int32_t>(rng.uniform(kVocab));
  for (auto& v : y) v = static_cast<std::int32_t>(rng.uniform(kVocab));

  std::int64_t tokens = 0;
  for (auto _ : state) {
    float loss = m.evaluate(x, y, batch, kCtx);
    benchmark::DoNotOptimize(loss);
    tokens += batch * kCtx;
  }
  state.counters["tokens/s"] =
      benchmark::Counter(static_cast<double>(tokens),
                         benchmark::Counter::kIsRate);
  state.SetLabel(label_with_threads(model::SizeClass::S350M, threads));
}
BENCHMARK(BM_ForwardPass)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_TrainingStep(benchmark::State& state) {
  model::SizeClass size = size_from_index(static_cast<int>(state.range(0)));
  const int threads = static_cast<int>(state.range(1));
  wisdom::util::ThreadPool::set_global_threads(threads);
  model::ModelConfig cfg = model::config_for(size, kVocab, kCtx);
  model::Transformer m(cfg, 7);
  wisdom::util::Rng rng(2);
  const int batch = 4;
  std::vector<std::int32_t> x(static_cast<std::size_t>(batch) * kCtx);
  std::vector<std::int32_t> y(x.size());
  for (auto& v : x) v = static_cast<std::int32_t>(rng.uniform(kVocab));
  for (auto& v : y) v = static_cast<std::int32_t>(rng.uniform(kVocab));

  wisdom::nn::AdamW opt;
  std::int64_t tokens = 0;
  for (auto _ : state) {
    m.zero_grad();
    float loss = m.forward_backward(x, y, batch, kCtx);
    benchmark::DoNotOptimize(loss);
    m.optim_step(opt, 1e-4f, 1.0f);
    tokens += batch * kCtx;
  }
  state.counters["tokens/s"] =
      benchmark::Counter(static_cast<double>(tokens),
                         benchmark::Counter::kIsRate);
  state.SetLabel(label_with_threads(size, threads));
}
BENCHMARK(BM_TrainingStep)
    ->ArgsProduct({{0, 1}, {1, 2, 4, 8}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Batched serving through the InferenceService: N editor requests answered
// concurrently on the pool against one shared (untrained) model.
void BM_BatchedSuggest(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  wisdom::util::ThreadPool::set_global_threads(threads);
  static const text::BpeTokenizer* tokenizer = [] {
    return new text::BpeTokenizer(text::BpeTokenizer::train(
        "- name: Install nginx\n  ansible.builtin.apt:\n"
        "    name: nginx\n    state: present\n",
        300));
  }();
  model::ModelConfig cfg;
  cfg.vocab = static_cast<std::int32_t>(tokenizer->vocab_size());
  cfg.ctx = 64;
  cfg.d_model = 32;
  cfg.n_head = 4;
  cfg.n_layer = 2;
  cfg.d_ff = 128;
  model::Transformer m(cfg, 11);
  serve::ServiceOptions service_options;
  service_options.max_new_tokens = 24;
  // When CI asks for a predictions dump, serve through the strictest lint
  // policy: every dumped snippet is either repaired to schema-correct or
  // replaced by the fallback, so the dump must pass `wisdom_lint` with
  // zero errors — that is the CI lint gate.
  const char* dump_path = std::getenv("WISDOM_PREDICTIONS_DUMP");
  if (dump_path) service_options.lint_policy = serve::LintPolicy::RejectDegraded;
  serve::InferenceService service(m, *tokenizer, service_options);

  std::vector<serve::SuggestionRequest> requests(
      static_cast<std::size_t>(batch));
  for (auto& r : requests) r.prompt = "Install nginx";

  std::vector<serve::SuggestionResponse> responses;
  std::vector<double> latencies_ms;
  for (auto _ : state) {
    responses = service.suggest_batch(requests);
    benchmark::DoNotOptimize(responses.data());
    collect_latencies(responses, &latencies_ms);
  }
  if (dump_path) {
    // Concatenated served snippets form one task-list document (each
    // snippet is a top-level "- name:" task).
    if (std::FILE* dump = std::fopen(dump_path, "w")) {
      for (const auto& response : responses) {
        if (!response.ok) continue;
        std::fputs(response.snippet.c_str(), dump);
        if (!response.snippet.empty() && response.snippet.back() != '\n')
          std::fputc('\n', dump);
      }
      std::fclose(dump);
    }
  }
  state.counters["tokens/s"] = tokens_per_sec(service);
  state.counters["p95_ms"] =
      wisdom::util::nearest_rank_percentile(latencies_ms, 95.0);
  state.SetLabel("b" + std::to_string(batch) + "/t" +
                 std::to_string(threads));
  g_last_service_exposition = service.metrics().expose_prometheus();
}
BENCHMARK(BM_BatchedSuggest)
    ->ArgsProduct({{1, 4, 8}, {1, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Overload sweep: offered load at 1x/2x/4x the admission-queue capacity.
// Above 1x the bounded queue sheds the excess (reject-newest) instead of
// letting latency grow without bound, so the interesting numbers are the
// shed rate, the degraded rate, and the p99 of the requests actually
// served while saturated.
void BM_OverloadSweep(benchmark::State& state) {
  const int multiplier = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  constexpr int kCapacity = 4;
  wisdom::util::ThreadPool::set_global_threads(threads);
  static const text::BpeTokenizer* tokenizer = [] {
    return new text::BpeTokenizer(text::BpeTokenizer::train(
        "- name: Install nginx\n  ansible.builtin.apt:\n"
        "    name: nginx\n    state: present\n",
        300));
  }();
  model::ModelConfig cfg;
  cfg.vocab = static_cast<std::int32_t>(tokenizer->vocab_size());
  cfg.ctx = 64;
  cfg.d_model = 32;
  cfg.n_head = 4;
  cfg.n_layer = 2;
  cfg.d_ff = 128;
  model::Transformer m(cfg, 11);
  serve::ServiceOptions options;
  options.max_new_tokens = 24;
  options.queue_capacity = kCapacity;
  options.shed_policy = serve::ShedPolicy::RejectNewest;
  serve::InferenceService service(m, *tokenizer, options);

  std::vector<serve::SuggestionRequest> requests(
      static_cast<std::size_t>(kCapacity * multiplier));
  for (auto& r : requests) r.prompt = "Install nginx";

  std::vector<double> latencies_ms;
  for (auto _ : state) {
    auto responses = service.suggest_batch(requests);
    benchmark::DoNotOptimize(responses.data());
    collect_latencies(responses, &latencies_ms);
  }
  const double offered = service_metric(service, "wisdom_serve_offered_total");
  const double served = service_metric(service, "wisdom_serve_requests_total");
  state.counters["shed_rate"] =
      offered == 0.0
          ? 0.0
          : service_metric(service, "wisdom_serve_shed_total") / offered;
  state.counters["degraded_rate"] =
      served == 0.0
          ? 0.0
          : service_metric(service, "wisdom_serve_degraded_total") / served;
  state.counters["p99_ms"] =
      wisdom::util::nearest_rank_percentile(latencies_ms, 99.0);
  state.counters["tokens/s"] = tokens_per_sec(service);
  state.SetLabel("offered=" + std::to_string(kCapacity * multiplier) +
                 "/cap=" + std::to_string(kCapacity) + "/t" +
                 std::to_string(threads));
  g_last_service_exposition = service.metrics().expose_prometheus();
}
BENCHMARK(BM_OverloadSweep)
    ->ArgsProduct({{1, 2, 4}, {4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Prefix-cache sweep: batches whose kept prompts share ~0%/50%/90% of
// their tokens with previously served requests. Each iteration gets a
// fresh unique prompt tail (placed right after the shared span), so the
// response memo never hits and every win comes from KV-prefix reuse.
// The identical workload is replayed through a cache-off service inside
// PauseTiming, which yields the speedup counter the acceptance criterion
// reads: >=1.5x tokens/s at 90% overlap with hit_rate >= 0.8.
void BM_PrefixCacheSweep(benchmark::State& state) {
  const int overlap = static_cast<int>(state.range(0));
  const int threads = 4;
  wisdom::util::ThreadPool::set_global_threads(threads);
  static const text::BpeTokenizer* tokenizer = [] {
    return new text::BpeTokenizer(text::BpeTokenizer::train(
        "- name: Install nginx\n  ansible.builtin.apt:\n"
        "    name: nginx\n    state: present\n",
        300));
  }();
  model::ModelConfig cfg;
  cfg.vocab = static_cast<std::int32_t>(tokenizer->vocab_size());
  cfg.ctx = kCtx;
  cfg.d_model = 32;
  cfg.n_head = 4;
  cfg.n_layer = 2;
  cfg.d_ff = 128;
  model::Transformer m(cfg, 11);

  // Shared context + unique-tail padding sized (in tokens of the trained
  // tokenizer) so shared/kept lands near the nominal overlap while the
  // whole kept prompt stays inside the left-truncation budget
  // (ctx - max_new_tokens = 72 tokens).
  std::string context;
  std::string pad;
  if (overlap == 50) {
    context = "- name: Install nginx\n";
    pad = " zq jw xk pv";
  } else if (overlap == 90) {
    context =
        "- name: Install nginx\n  ansible.builtin.apt:\n"
        "    name: nginx\n    state: present\n";
  } else {
    pad = " zq jw xk pv bd fg hm ln";
  }

  serve::ServiceOptions warm_options;
  warm_options.max_new_tokens = 24;
  warm_options.prefix_cache_enabled = true;
  serve::InferenceService warm(m, *tokenizer, warm_options);
  serve::ServiceOptions cold_options;
  cold_options.max_new_tokens = 24;
  serve::InferenceService cold(m, *tokenizer, cold_options);

  constexpr int kBatch = 8;
  std::uint64_t epoch = 0;
  auto make_batch = [&](std::uint64_t e) {
    std::vector<serve::SuggestionRequest> requests(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      requests[static_cast<std::size_t>(i)].context = context;
      requests[static_cast<std::size_t>(i)].prompt =
          "v" + std::to_string(e) + "r" + std::to_string(i) + pad;
    }
    return requests;
  };

  std::int64_t warm_tokens = 0;
  std::int64_t cold_tokens = 0;
  double warm_seconds = 0.0;
  double cold_seconds = 0.0;
  for (auto _ : state) {
    auto requests = make_batch(epoch++);
    auto t0 = std::chrono::steady_clock::now();
    auto responses = warm.suggest_batch(requests);
    warm_seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    benchmark::DoNotOptimize(responses.data());
    for (const auto& response : responses)
      warm_tokens += response.generated_tokens;

    // Cache-off baseline over the very same requests, outside the timed
    // region so the reported ms stay the cached service's.
    state.PauseTiming();
    t0 = std::chrono::steady_clock::now();
    auto baseline = cold.suggest_batch(requests);
    cold_seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    benchmark::DoNotOptimize(baseline.data());
    for (const auto& response : baseline)
      cold_tokens += response.generated_tokens;
    state.ResumeTiming();
  }

  const serve::PrefixCacheStats cache = warm.prefix_cache_stats();
  const double warm_rate =
      warm_seconds > 0.0 ? static_cast<double>(warm_tokens) / warm_seconds : 0.0;
  const double cold_rate =
      cold_seconds > 0.0 ? static_cast<double>(cold_tokens) / cold_seconds : 0.0;
  state.counters["tokens/s"] = warm_rate;
  state.counters["baseline_tok/s"] = cold_rate;
  state.counters["speedup"] = cold_rate > 0.0 ? warm_rate / cold_rate : 0.0;
  state.counters["hit_rate"] = cache.hit_rate();
  state.counters["prefill_saved"] = static_cast<double>(cache.tokens_reused);
  state.SetLabel("overlap=" + std::to_string(overlap) + "%/t" +
                 std::to_string(threads));
  g_last_service_exposition = warm.metrics().expose_prometheus();
}
BENCHMARK(BM_PrefixCacheSweep)
    ->Arg(0)->Arg(50)->Arg(90)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: stamps the build type into the benchmark context (the
// regression check refuses to compare different ones), then after the
// benchmarks dumps the global registry (pool + model decode families) and
// the last serving benchmark's per-service registry so the CI smoke job
// can grep the expected metric families.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("wisdom_build_type", WISDOM_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("\n--- metrics exposition (global registry) ---\n%s",
              wisdom::obs::MetricsRegistry::global().expose_prometheus().c_str());
  if (!g_last_service_exposition.empty()) {
    std::printf("\n--- metrics exposition (last service registry) ---\n%s",
                g_last_service_exposition.c_str());
  }
  return 0;
}
