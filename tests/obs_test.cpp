// Observability layer: metrics registry exactness under concurrency,
// histogram percentiles vs the nearest-rank definition, golden exposition
// output, deterministic request tracing (fault-injected, no sleeps), the
// service's registry ledger, and the runtime kill switch.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "serve/fault.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"
#include "text/bpe.hpp"
#include "util/percentile.hpp"
#include "util/thread_pool.hpp"

namespace obs = wisdom::obs;
namespace wm = wisdom::model;
namespace ws = wisdom::serve;
namespace wt = wisdom::text;
using wisdom::testutil::metric_value;

namespace {

// Untrained micro-model: tracing and metrics tests exercise the serving
// path's structure, not suggestion quality, so skipping training keeps the
// suite fast.
struct Fixture {
  wt::BpeTokenizer tokenizer;
  wm::Transformer model;

  Fixture()
      : tokenizer(wt::BpeTokenizer::train(
            "- name: Install nginx\n  ansible.builtin.apt:\n"
            "    name: nginx\n    state: present\n",
            300)),
        model(config(), 7) {}

  wm::ModelConfig config() const {
    wm::ModelConfig cfg;
    cfg.vocab = static_cast<int>(tokenizer.vocab_size());
    cfg.ctx = 48;
    cfg.d_model = 24;
    cfg.n_head = 2;
    cfg.n_layer = 2;
    cfg.d_ff = 48;
    return cfg;
  }

  ws::ServiceOptions options() const {
    ws::ServiceOptions o;
    o.max_new_tokens = 8;
    return o;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

std::vector<std::pair<std::string, int>> span_shape(const obs::Trace& t) {
  std::vector<std::pair<std::string, int>> shape;
  for (const obs::Span& s : t.spans) shape.emplace_back(s.name, s.depth);
  return shape;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry

TEST(Metrics, CounterConcurrentIncrementsAreExact) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("t_hits_total");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Metrics, HistogramConcurrentObservesAreExact) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("t_lat_ms", {1.0, 10.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      // 1.0 is exactly representable: kThreads*kPerThread of them sum
      // exactly even under concurrent CAS adds.
      for (int i = 0; i < kPerThread; ++i) h.observe(1.0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads * kPerThread));
  EXPECT_EQ(h.bucket_value(0), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h.bucket_value(1), 0u);
  EXPECT_EQ(h.bucket_value(2), 0u);  // +Inf overflow
}

TEST(Metrics, HistogramBucketUpperBoundSemantics) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("t_le_ms", {1.0, 5.0});
  h.observe(1.0);   // on the bound -> le="1"
  h.observe(1.001); // above -> le="5"
  h.observe(7.0);   // overflow -> +Inf
  EXPECT_EQ(h.bucket_value(0), 1u);
  EXPECT_EQ(h.bucket_value(1), 1u);
  EXPECT_EQ(h.bucket_value(2), 1u);
}

TEST(Metrics, HistogramPercentileMatchesLegacyNearestRankOnBucketBounds) {
  // Samples placed exactly on bucket bounds: the histogram's
  // bucket-upper-bound percentile and the exact nearest-rank over raw
  // samples are the same number.
  const std::vector<double> bounds = {1.0, 2.0, 5.0, 10.0};
  const std::vector<double> samples = {1.0, 2.0, 2.0, 5.0, 10.0};

  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("t_pct_ms", bounds);
  for (double s : samples) h.observe(s);
  for (double p : {10.0, 50.0, 80.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p),
                     wisdom::util::nearest_rank_percentile(samples, p))
        << "p=" << p;
  }
}

TEST(Metrics, KindMismatchThrows) {
  obs::MetricsRegistry registry;
  registry.counter("t_name");
  EXPECT_THROW(registry.gauge("t_name"), std::logic_error);
  EXPECT_THROW(registry.histogram("t_name"), std::logic_error);
  EXPECT_EQ(registry.find_gauge("t_name"), nullptr);
  EXPECT_NE(registry.find_counter("t_name"), nullptr);
}

TEST(Metrics, ResetZeroesButKeepsReferences) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("t_total");
  obs::Histogram& h = registry.histogram("t_ms", {1.0});
  c.inc(5);
  h.observe(0.5);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  c.inc();  // cached reference still live
  EXPECT_EQ(registry.find_counter("t_total")->value(), 1u);
}

TEST(Metrics, PrometheusExpositionIsGoldenStable) {
  obs::MetricsRegistry registry;
  registry.counter("t_requests_total", "Total requests.").inc(3);
  registry.gauge("t_depth").set(2.0);
  obs::Histogram& h = registry.histogram("t_latency_ms", {1.0, 5.0}, "Latency.");
  h.observe(0.5);
  h.observe(3.0);
  h.observe(7.0);

  const std::string expected =
      "# TYPE t_depth gauge\n"
      "t_depth 2\n"
      "# HELP t_latency_ms Latency.\n"
      "# TYPE t_latency_ms histogram\n"
      "t_latency_ms_bucket{le=\"1\"} 1\n"
      "t_latency_ms_bucket{le=\"5\"} 2\n"
      "t_latency_ms_bucket{le=\"+Inf\"} 3\n"
      "t_latency_ms_sum 10.5\n"
      "t_latency_ms_count 3\n"
      "# HELP t_requests_total Total requests.\n"
      "# TYPE t_requests_total counter\n"
      "t_requests_total 3\n";
  EXPECT_EQ(registry.expose_prometheus(), expected);
  // Exposing twice without updates is bit-identical.
  EXPECT_EQ(registry.expose_prometheus(), expected);
}

// ---------------------------------------------------------------------------
// Tracing

TEST(Trace, DeterministicIds) {
  EXPECT_EQ(obs::trace_id(0, "Install nginx"),
            obs::trace_id(0, "Install nginx"));
  EXPECT_NE(obs::trace_id(0, "Install nginx"),
            obs::trace_id(1, "Install nginx"));
  EXPECT_NE(obs::trace_id(0, "Install nginx"),
            obs::trace_id(0, "Install redis"));
  std::string hex = obs::trace_id_hex(obs::trace_id(0, "x"));
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(Trace, InertContextRecordsNothing) {
  obs::TraceContext inert;
  EXPECT_FALSE(inert.active());
  {
    auto s = inert.span("anything");
  }
  obs::Trace sink;
  obs::TraceContext null_sink(nullptr, 1);
  EXPECT_FALSE(null_sink.active());
  EXPECT_TRUE(sink.empty());
}

TEST(Trace, SpanNestingIsDeterministicUnderInjectedSlowDecode) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with WISDOM_OBS=OFF";
  obs::set_enabled(true);
  auto& f = fixture();
  // Deadline expires on the first cooperative check — inside prefill,
  // before any decode step — so the span sequence is exactly the same on
  // every machine, with no sleeps.
  ws::FaultInjector faults;
  faults.set_slow_decode_after_tokens(0);
  ws::ServiceOptions options = f.options();
  options.faults = &faults;

  auto serve_once = [&] {
    ws::InferenceService service(f.model, f.tokenizer, options);
    ws::SuggestionRequest request;
    request.prompt = "Install nginx";
    obs::Trace trace;
    request.trace = &trace;
    ws::SuggestionResponse response = service.suggest(request);
    return std::make_pair(trace, response);
  };

  auto [trace, response] = serve_once();
  EXPECT_EQ(response.error, ws::ServiceError::DeadlineExceeded);
  EXPECT_TRUE(response.degraded);

  const std::vector<std::pair<std::string, int>> expected = {
      {"request", 0},  {"admission", 1},   {"tokenize", 1}, {"generate", 1},
      {"prefill", 2},  {"postprocess", 1}, {"fallback", 1},
  };
  EXPECT_EQ(span_shape(trace), expected);

  // A fresh service serving the same request produces the identical span
  // shape and the identical (sequence, prompt)-derived trace id.
  auto [trace2, response2] = serve_once();
  EXPECT_EQ(span_shape(trace2), expected);
  EXPECT_EQ(trace.id, trace2.id);
  EXPECT_EQ(response.trace_id, response2.trace_id);
  EXPECT_EQ(response.trace_id, obs::trace_id_hex(trace.id));
}

TEST(Trace, FullDecodeRecordsPerTokenSpansAndTimings) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with WISDOM_OBS=OFF";
  obs::set_enabled(true);
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer, f.options());
  ws::SuggestionRequest request;
  request.prompt = "Install nginx";
  obs::Trace trace;
  request.trace = &trace;
  ws::SuggestionResponse response = service.suggest(request);

  ASSERT_FALSE(trace.spans.empty());
  EXPECT_EQ(trace.spans[0].name, "request");
  EXPECT_EQ(trace.spans[0].depth, 0);

  int decode_spans = 0;
  double child_ms = 0.0;
  for (const obs::Span& s : trace.spans) {
    if (s.name == "decode") {
      EXPECT_EQ(s.depth, 2);
      ++decode_spans;
    }
    if (s.depth == 1) child_ms += s.duration_ms;
    EXPECT_GE(s.duration_ms, 0.0);
    EXPECT_GE(s.start_ms, 0.0);
  }
  EXPECT_EQ(decode_spans, response.generated_tokens);
  // Depth-1 stages cannot exceed the root span they nest under.
  EXPECT_LE(child_ms, trace.total_ms() + 1e-6);

  // Wire-facing per-stage totals mirror the trace.
  EXPECT_EQ(response.trace_id, obs::trace_id_hex(trace.id));
  for (const char* stage :
       {"request", "admission", "tokenize", "generate", "prefill",
        "postprocess"}) {
    EXPECT_TRUE(response.server_timing_ms.count(stage)) << stage;
  }
  EXPECT_DOUBLE_EQ(response.server_timing_ms.at("decode"),
                   trace.stage_ms("decode"));
  EXPECT_FALSE(trace.timeline().empty());

  // Per-stage histograms saw the request: one decode sample per token.
  const obs::Histogram* decode_ms =
      service.metrics().find_histogram("wisdom_serve_stage_decode_ms");
  ASSERT_NE(decode_ms, nullptr);
  EXPECT_EQ(decode_ms->count(),
            static_cast<std::uint64_t>(response.generated_tokens));
}

TEST(Trace, ClientTraceIdIsEchoed) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with WISDOM_OBS=OFF";
  obs::set_enabled(true);
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer, f.options());
  ws::SuggestionRequest request;
  request.prompt = "Install nginx";
  request.trace_id = "editor-4217";
  EXPECT_EQ(service.suggest(request).trace_id, "editor-4217");
}

// ---------------------------------------------------------------------------
// Service ledger + kill switch

// The registry is the service's one ledger: after mixed traffic (queue
// sheds, deadline degradations, a drain refusal) its counters balance,
// read from the registry alone.
TEST(ServiceObs, LedgerBalancesUnderEachShedPolicy) {
  auto& f = fixture();
  for (ws::ShedPolicy policy :
       {ws::ShedPolicy::RejectNewest, ws::ShedPolicy::DegradeNewest}) {
    const bool reject = policy == ws::ShedPolicy::RejectNewest;
    SCOPED_TRACE(reject ? "reject-newest" : "degrade-newest");
    ws::FaultInjector faults;
    ws::ServiceOptions options = f.options();
    options.faults = &faults;
    options.queue_capacity = 2;
    options.shed_policy = policy;
    ws::InferenceService service(f.model, f.tokenizer, options);
    ws::SuggestionRequest request;
    request.prompt = "Install nginx";

    // Three times the queue capacity in one batch: four arrivals shed.
    std::vector<ws::SuggestionResponse> responses =
        service.suggest_batch(std::vector<ws::SuggestionRequest>(6, request));
    // Two arrivals hit their deadline and degrade to the fallback.
    faults.set_slow_decode_after_tokens(0);
    for (int i = 0; i < 2; ++i) responses.push_back(service.suggest(request));
    faults.reset();
    for (int i = 0; i < 2; ++i) responses.push_back(service.suggest(request));
    service.begin_drain();
    responses.push_back(service.suggest(request));

    const obs::MetricsRegistry& registry = service.metrics();
    const double offered = metric_value(registry, "wisdom_serve_offered_total");
    const double requests =
        metric_value(registry, "wisdom_serve_requests_total");
    const double shed = metric_value(registry, "wisdom_serve_shed_total");
    const double drain_rejected =
        metric_value(registry, "wisdom_drain_rejected_total");
    EXPECT_EQ(offered, static_cast<double>(responses.size()));
    EXPECT_GT(shed, 0.0);
    EXPECT_EQ(metric_value(registry, "wisdom_serve_deadline_expired_total"),
              2.0);
    EXPECT_EQ(drain_rejected, 1.0);
    if (reject) {
      EXPECT_EQ(offered, requests + drain_rejected + shed);
    } else {
      EXPECT_EQ(offered, requests + drain_rejected);
    }
    EXPECT_EQ(metric_value(registry, "wisdom_serve_request_ms_count"),
              requests);
    int generated = 0;
    for (const ws::SuggestionResponse& response : responses)
      generated += response.generated_tokens;
    EXPECT_GT(generated, 0);
    EXPECT_EQ(metric_value(registry, "wisdom_serve_generated_tokens_total"),
              generated);

    // The exposition prints the same ledger.
    const std::string text = registry.expose_prometheus();
    const std::string count =
        std::to_string(static_cast<std::uint64_t>(requests));
    EXPECT_NE(text.find("wisdom_serve_requests_total " + count),
              std::string::npos);
    EXPECT_NE(text.find("wisdom_serve_request_ms_count " + count),
              std::string::npos);
  }
}

TEST(ServiceObs, RuntimeKillSwitchDisablesTracingButNotStats) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with WISDOM_OBS=OFF";
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer, f.options());
  obs::set_enabled(false);
  ws::SuggestionRequest request;
  request.prompt = "Install nginx";
  obs::Trace trace;
  request.trace = &trace;
  ws::SuggestionResponse response = service.suggest(request);
  obs::set_enabled(true);

  // Disabled: no spans, no trace id, no Server-Timing on the wire.
  EXPECT_TRUE(trace.empty());
  EXPECT_TRUE(response.trace_id.empty());
  EXPECT_TRUE(response.server_timing_ms.empty());
  // The ledger still counts: it is not instrumentation.
  EXPECT_EQ(metric_value(service.metrics(), "wisdom_serve_requests_total"), 1);
  EXPECT_EQ(metric_value(service.metrics(), "wisdom_serve_offered_total"), 1);
}

TEST(ServiceObs, ThreadPoolFamiliesRegisteredEagerly) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with WISDOM_OBS=OFF";
  obs::set_enabled(true);
  // Touching the pool (ctor) registers the families even before any task
  // runs, so exposition always shows them.
  std::atomic<int> sum{0};
  wisdom::util::ThreadPool::global().parallel_for(
      0, 64, [&](std::int64_t b, std::int64_t e) {
        sum.fetch_add(static_cast<int>(e - b));
      });
  EXPECT_EQ(sum.load(), 64);
  auto& global = obs::MetricsRegistry::global();
  EXPECT_NE(global.find_counter("wisdom_pool_tasks_total"), nullptr);
  EXPECT_NE(global.find_gauge("wisdom_pool_queue_depth"), nullptr);
  EXPECT_NE(global.find_histogram("wisdom_pool_task_ms"), nullptr);
}
