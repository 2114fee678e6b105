// Robustness suite for the deadline-aware serving path: cancellation,
// admission control, graceful degradation, drain, checkpoint corruption,
// and wire-format hardening. Every degraded path is driven
// deterministically (check-count deadlines, fault injection) — no
// wall-clock sleeps, no timing assumptions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "metrics/schema_correct.hpp"
#include "model/checkpoint.hpp"
#include "model/transformer.hpp"
#include "serve/fallback.hpp"
#include "serve/fault.hpp"
#include "serve/queue.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "test_util.hpp"
#include "text/bpe.hpp"
#include "util/deadline.hpp"

namespace wm = wisdom::model;
namespace ws = wisdom::serve;
namespace wt = wisdom::text;
namespace wu = wisdom::util;
using wisdom::testutil::metric_value;

namespace {

// Untrained micro-model: robustness behavior (deadlines, shedding,
// fallback, retries) must not depend on what the model decodes, so an
// untrained network is the honest fixture — and construction is instant.
struct Fixture {
  wt::BpeTokenizer tokenizer;
  wm::Transformer model;

  Fixture() : tokenizer(make_tokenizer()), model(config(), /*seed=*/7) {}

  static wt::BpeTokenizer make_tokenizer() {
    return wt::BpeTokenizer::train(
        "- name: Install nginx\n"
        "  ansible.builtin.apt:\n"
        "    name: nginx\n"
        "    state: present\n",
        300);
  }
  wm::ModelConfig config() const {
    wm::ModelConfig cfg;
    cfg.vocab = static_cast<int>(tokenizer.vocab_size());
    cfg.ctx = 64;
    cfg.d_model = 16;
    cfg.n_head = 2;
    cfg.n_layer = 1;
    cfg.d_ff = 32;
    return cfg;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

ws::SuggestionRequest install_request() {
  ws::SuggestionRequest request;
  request.prompt = "Install nginx";
  request.indent = 0;
  return request;
}

}  // namespace

// ---------------------------------------------------------------------------
// util::Deadline + cancellation

TEST(Deadline, DefaultNeverExpires) {
  wu::Deadline d;
  EXPECT_FALSE(d.has_limit());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_ms(), std::numeric_limits<double>::infinity());
}

TEST(Deadline, CheckBudgetIsExact) {
  wu::Deadline d = wu::Deadline::after_checks(3);
  EXPECT_TRUE(d.has_limit());
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(d.expired());
  EXPECT_TRUE(d.expired());  // stays expired
  EXPECT_EQ(d.remaining_ms(), 0.0);
}

TEST(Deadline, NonPositiveCheckBudgetAlreadyExpired) {
  EXPECT_TRUE(wu::Deadline::after_checks(0).expired());
  EXPECT_TRUE(wu::Deadline::after_checks(-5).expired());
}

TEST(Deadline, CopiesShareOneCheckBudget) {
  wu::Deadline a = wu::Deadline::after_checks(4);
  wu::Deadline b = a;  // one request's allowance, wherever the checks happen
  EXPECT_FALSE(a.expired());
  EXPECT_FALSE(b.expired());
  EXPECT_FALSE(a.expired());
  EXPECT_FALSE(b.expired());
  EXPECT_TRUE(a.expired());
  EXPECT_TRUE(b.expired());
}

TEST(Deadline, NonPositiveTimeBudgetAlreadyExpired) {
  EXPECT_TRUE(wu::Deadline::after_ms(0.0).expired());
  EXPECT_TRUE(wu::Deadline::after_ms(-10.0).expired());
}

TEST(Deadline, DistantTimeDeadlineNotExpired) {
  wu::Deadline d = wu::Deadline::after_ms(1e9);
  EXPECT_TRUE(d.has_limit());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 0.0);
}

TEST(Deadline, BudgetPastTheClockRangeSaturatesInsteadOfExpiring) {
  // 1e13 ms is about 317 years, past what steady_clock's nanosecond ticks
  // can count from now: such budgets (the wire accepts any finite one)
  // must saturate, not overflow into a deadline that starts out expired.
  for (double ms : {1e13, 1e300, std::numeric_limits<double>::infinity()}) {
    wu::Deadline d = wu::Deadline::after_ms(ms);
    EXPECT_TRUE(d.has_limit()) << ms;
    EXPECT_FALSE(d.expired()) << ms;
    EXPECT_GT(d.remaining_ms(), 0.0) << ms;
  }
}

TEST(Deadline, CancellationOverridesAnyLimit) {
  wu::CancelSource source;
  wu::Deadline d;  // no limit at all
  d.set_token(source.token());
  EXPECT_TRUE(d.has_limit());
  EXPECT_FALSE(d.expired());
  source.cancel();
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0.0);

  // Cancellation also trips a deadline with plenty of budget left.
  wu::Deadline checks = wu::Deadline::after_checks(1000);
  checks.set_token(source.token());
  EXPECT_TRUE(checks.expired());
}

TEST(Deadline, DefaultTokenIsInert) {
  wu::CancelToken token;
  EXPECT_FALSE(token.cancellable());
  EXPECT_FALSE(token.cancelled());
}

// ---------------------------------------------------------------------------
// AdmissionQueue

TEST(AdmissionQueue, UnboundedAlwaysAdmits) {
  ws::AdmissionQueue queue(0);
  EXPECT_FALSE(queue.bounded());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(queue.try_acquire());
}

TEST(AdmissionQueue, CapacityIsEnforced) {
  ws::AdmissionQueue queue(2);
  EXPECT_TRUE(queue.try_acquire());
  EXPECT_TRUE(queue.try_acquire());
  EXPECT_FALSE(queue.try_acquire());  // full: shed
  EXPECT_EQ(queue.in_flight(), 2);
  queue.release();
  EXPECT_TRUE(queue.try_acquire());  // slot freed
}

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjector, ResetRestoresInactiveDefaults) {
  ws::FaultInjector faults;
  EXPECT_FALSE(faults.slow_decode_active());  // default injects nothing
  EXPECT_FALSE(faults.queue_full_forced());
  faults.set_slow_decode_after_tokens(3);
  faults.set_force_queue_full(true);
  EXPECT_TRUE(faults.slow_decode_active());
  EXPECT_TRUE(faults.queue_full_forced());
  faults.reset();
  EXPECT_FALSE(faults.slow_decode_active());
  EXPECT_FALSE(faults.queue_full_forced());
}

TEST(FaultInjector, SlowDecodeDeadlineHasRequestedBudget) {
  ws::FaultInjector faults;
  faults.set_slow_decode_after_tokens(2);
  ASSERT_TRUE(faults.slow_decode_active());
  wu::Deadline d = faults.slow_decode_deadline();
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(d.expired());
}

// ---------------------------------------------------------------------------
// Transformer decode under a deadline

TEST(TransformerDeadline, ExpiredBeforePrefillReturnsEmpty) {
  auto& f = fixture();
  auto ids = f.tokenizer.encode("- name: Install nginx\n");
  wm::Transformer::GenerateOptions gen;
  gen.max_new_tokens = 8;
  gen.deadline = wu::Deadline::after_checks(0);
  wm::Transformer::GenerateStatus status;
  gen.status = &status;
  auto out = f.model.generate(ids, gen);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(status.deadline_expired);
  EXPECT_EQ(status.steps_taken, 0);
}

TEST(TransformerDeadline, PartialDecodeStopsAtBudget) {
  auto& f = fixture();
  auto ids = f.tokenizer.encode("- name: Install nginx\n");
  const std::int64_t budget = static_cast<std::int64_t>(ids.size()) + 3;
  wm::Transformer::GenerateOptions gen;
  gen.max_new_tokens = 32;
  gen.deadline = wu::Deadline::after_checks(budget);
  wm::Transformer::GenerateStatus status;
  gen.status = &status;
  auto out = f.model.generate(ids, gen);
  EXPECT_TRUE(status.deadline_expired);
  // Prefill consumed ids.size() checks; at most 3 tokens decoded after.
  EXPECT_LE(static_cast<std::int64_t>(out.size()), 3);
  EXPECT_LE(status.steps_taken, budget);
}

TEST(TransformerDeadline, NoDeadlineDecodesInFull) {
  auto& f = fixture();
  auto ids = f.tokenizer.encode("- name: Install nginx\n");
  wm::Transformer::GenerateOptions gen;
  gen.max_new_tokens = 8;
  wm::Transformer::GenerateStatus status;
  gen.status = &status;
  f.model.generate(ids, gen);
  EXPECT_FALSE(status.deadline_expired);
  EXPECT_GE(status.steps_taken, static_cast<int>(ids.size()));
}

// ---------------------------------------------------------------------------
// FallbackSuggester

TEST(Fallback, PackagePromptYieldsCatalogBackedPackageTask) {
  ws::FallbackSuggester fb;
  std::string body = fb.suggest_body("Install nginx", 0);
  EXPECT_NE(body.find("ansible.builtin.package:"), std::string::npos);
  EXPECT_NE(body.find("name: nginx"), std::string::npos);
  EXPECT_NE(body.find("state: present"), std::string::npos);
}

TEST(Fallback, RemovalFlipsPackageState) {
  ws::FallbackSuggester fb;
  std::string body = fb.suggest_body("Remove the redis package", 0);
  EXPECT_NE(body.find("state: absent"), std::string::npos);
  EXPECT_NE(body.find("name: redis"), std::string::npos);
}

TEST(Fallback, ServicePromptPicksServiceTemplate) {
  ws::FallbackSuggester fb;
  std::string body = fb.suggest_body("Restart the nginx service", 0);
  EXPECT_NE(body.find("ansible.builtin.service:"), std::string::npos);
  EXPECT_NE(body.find("state: restarted"), std::string::npos);
}

TEST(Fallback, UnmatchedPromptFallsBackToDebug) {
  ws::FallbackSuggester fb;
  std::string body = fb.suggest_body("Frobnicate the widget", 0);
  EXPECT_NE(body.find("ansible.builtin.debug:"), std::string::npos);
  EXPECT_NE(body.find("msg: \"Frobnicate the widget\""), std::string::npos);
}

TEST(Fallback, EveryTemplateIsSchemaCorrect) {
  ws::FallbackSuggester fb;
  const char* prompts[] = {
      "Install nginx",
      "Stop the redis service",
      "Copy the haproxy config",
      "Create the log directory",
      "Do something entirely unrecognized: \"quotes\" and \\slashes\\",
  };
  for (const char* prompt : prompts) {
    std::string snippet =
        std::string("- name: ") + prompt + "\n" + fb.suggest_body(prompt, 0);
    EXPECT_TRUE(wisdom::metrics::schema_correct(snippet)) << snippet;
  }
}

TEST(Fallback, RespectsIndentation) {
  ws::FallbackSuggester fb;
  std::string body = fb.suggest_body("Install nginx", 4);
  EXPECT_EQ(body.rfind("      ansible.builtin.package:", 0), 0u);
  EXPECT_NE(body.find("        name: nginx"), std::string::npos);
}

// ---------------------------------------------------------------------------
// InferenceService: deadline expiry, fault injection, degradation

TEST(ServiceRobustness, SlowDecodeFallsBackWithinBudget) {
  // ISSUE acceptance: under a fault-injected slow decode the service must
  // return a degraded, schema-correct fallback — deterministically.
  auto& f = fixture();
  ws::FaultInjector faults;
  faults.set_slow_decode_after_tokens(0);  // decode "too slow" immediately
  ws::ServiceOptions options;
  options.faults = &faults;
  ws::InferenceService service(f.model, f.tokenizer, options);

  auto response = service.suggest(install_request());
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.degraded);
  EXPECT_TRUE(response.schema_correct) << response.snippet;
  EXPECT_EQ(response.error, ws::ServiceError::DeadlineExceeded);
  EXPECT_NE(response.snippet.find("- name: Install nginx"),
            std::string::npos);
  EXPECT_NE(response.snippet.find("ansible.builtin.package"),
            std::string::npos);

  const auto& registry = service.metrics();
  EXPECT_EQ(metric_value(registry, "wisdom_serve_requests_total"), 1);
  EXPECT_EQ(metric_value(registry, "wisdom_serve_degraded_total"), 1);
  EXPECT_EQ(metric_value(registry, "wisdom_serve_deadline_expired_total"), 1);
  EXPECT_EQ(metric_value(registry, "wisdom_serve_shed_total"), 0);
}

TEST(ServiceRobustness, SlowDecodeMidGenerationStillDegrades) {
  auto& f = fixture();
  ws::FaultInjector faults;
  // Enough budget to finish prefill and decode a few tokens, then expire.
  auto ids = f.tokenizer.encode("- name: Install nginx\n");
  faults.set_slow_decode_after_tokens(static_cast<std::int64_t>(ids.size()) +
                                      2);
  ws::ServiceOptions options;
  options.faults = &faults;
  ws::InferenceService service(f.model, f.tokenizer, options);

  auto response = service.suggest(install_request());
  // Partial salvage or fallback — either way: a usable degraded response.
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.degraded);
  EXPECT_TRUE(response.schema_correct) << response.snippet;
  EXPECT_EQ(response.error, ws::ServiceError::DeadlineExceeded);
}

TEST(ServiceRobustness, FallbackCanBeDisabled) {
  auto& f = fixture();
  ws::FaultInjector faults;
  faults.set_slow_decode_after_tokens(0);  // nothing decodes, nothing salvaged
  ws::ServiceOptions options;
  options.faults = &faults;
  options.fallback_enabled = false;
  ws::InferenceService service(f.model, f.tokenizer, options);

  auto response = service.suggest(install_request());
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.error, ws::ServiceError::DeadlineExceeded);
  EXPECT_TRUE(response.snippet.empty());
}

TEST(ServiceRobustness, CancelledRequestDegradesImmediately) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer, ws::ServiceOptions{});
  wu::CancelSource source;
  source.cancel();  // the user kept typing before we even started
  ws::SuggestionRequest request = install_request();
  request.cancel = source.token();

  auto response = service.suggest(request);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.error, ws::ServiceError::DeadlineExceeded);
  EXPECT_TRUE(response.ok);  // fallback still answers
}

TEST(ServiceRobustness, PerRequestDeadlineOverridesDefault) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer, ws::ServiceOptions{});
  ws::SuggestionRequest request = install_request();
  request.deadline_ms = 1e-7;  // expired by the first cooperative check

  auto response = service.suggest(request);
  EXPECT_EQ(response.error, ws::ServiceError::DeadlineExceeded);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(metric_value(service.metrics(),
                         "wisdom_serve_deadline_expired_total"),
            1);
}

TEST(ServiceRobustness, HugeWireDeadlineServesLikeNoDeadline) {
  // A finite deadline_ms the wire accepts, but far past the clock's range:
  // it must serve the full decode, not start out expired.
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer, ws::ServiceOptions{});
  auto huge = ws::request_from_json(
      R"({"prompt": "Install nginx", "deadline_ms": 1e300})");
  auto none = ws::request_from_json(R"({"prompt": "Install nginx"})");
  ASSERT_TRUE(huge.has_value());
  ASSERT_TRUE(none.has_value());
  ASSERT_GT(huge->deadline_ms, 1e13);

  auto with_deadline = service.suggest(*huge);
  auto without = service.suggest(*none);
  EXPECT_EQ(with_deadline.error, ws::ServiceError::None);
  EXPECT_FALSE(with_deadline.degraded);
  EXPECT_EQ(with_deadline.ok, without.ok);
  EXPECT_EQ(with_deadline.snippet, without.snippet);
  EXPECT_EQ(with_deadline.generated_tokens, without.generated_tokens);
  EXPECT_EQ(metric_value(service.metrics(),
                         "wisdom_serve_deadline_expired_total"),
            0);
}

TEST(ServiceRobustness, InvalidRequestIsTyped) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer, ws::ServiceOptions{});
  ws::SuggestionRequest request;  // empty prompt
  auto response = service.suggest(request);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, ws::ServiceError::InvalidRequest);
}

// ---------------------------------------------------------------------------
// InferenceService: admission control and load shedding

TEST(ServiceRobustness, ForcedQueueFullShedsWithOverloaded) {
  auto& f = fixture();
  ws::FaultInjector faults;
  faults.set_force_queue_full(true);
  ws::ServiceOptions options;
  options.faults = &faults;
  options.queue_capacity = 8;  // plenty — the fault forces the shed
  ws::InferenceService service(f.model, f.tokenizer, options);

  auto response = service.suggest(install_request());
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, ws::ServiceError::Overloaded);
  const auto& registry = service.metrics();
  EXPECT_EQ(metric_value(registry, "wisdom_serve_offered_total"), 1);
  EXPECT_EQ(metric_value(registry, "wisdom_serve_shed_total"), 1);
  // Reject-newest sheds never enter the pipeline: no latency sample.
  EXPECT_EQ(metric_value(registry, "wisdom_serve_requests_total"), 0);
  EXPECT_EQ(metric_value(registry, "wisdom_serve_request_ms_count"), 0);

  faults.set_force_queue_full(false);
  EXPECT_EQ(service.suggest(install_request()).error,
            ws::ServiceError::None);
}

TEST(ServiceRobustness, BatchOverloadShedsDeterministically) {
  // ISSUE acceptance: a batch of 4x queue capacity on an idle service must
  // shed exactly offered - capacity requests with ServiceError::Overloaded,
  // and admission is decided in arrival order.
  auto& f = fixture();
  constexpr int kCapacity = 2;
  constexpr int kOffered = 4 * kCapacity;
  ws::ServiceOptions options;
  options.queue_capacity = kCapacity;
  options.max_new_tokens = 4;  // keep the admitted decodes quick
  ws::InferenceService service(f.model, f.tokenizer, options);

  std::vector<ws::SuggestionRequest> requests(kOffered, install_request());
  auto responses = service.suggest_batch(requests);
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kOffered));

  int shed = 0;
  for (int i = 0; i < kOffered; ++i) {
    if (i < kCapacity) {
      EXPECT_NE(responses[i].error, ws::ServiceError::Overloaded)
          << "arrival " << i << " should have been admitted";
    } else {
      EXPECT_EQ(responses[i].error, ws::ServiceError::Overloaded)
          << "arrival " << i << " should have been shed";
      EXPECT_FALSE(responses[i].ok);
      ++shed;
    }
  }
  EXPECT_EQ(shed, kOffered - kCapacity);

  const auto& registry = service.metrics();
  const double offered = metric_value(registry, "wisdom_serve_offered_total");
  EXPECT_EQ(offered, kOffered);
  EXPECT_EQ(metric_value(registry, "wisdom_serve_shed_total"),
            kOffered - kCapacity);
  EXPECT_EQ(metric_value(registry, "wisdom_serve_requests_total"), kCapacity);
  EXPECT_DOUBLE_EQ(metric_value(registry, "wisdom_serve_shed_total") / offered,
                   0.75);
}

TEST(ServiceRobustness, DegradeNewestServesShedRequestsFromFallback) {
  auto& f = fixture();
  ws::ServiceOptions options;
  options.queue_capacity = 1;
  options.shed_policy = ws::ShedPolicy::DegradeNewest;
  options.max_new_tokens = 4;
  ws::InferenceService service(f.model, f.tokenizer, options);

  std::vector<ws::SuggestionRequest> requests(3, install_request());
  auto responses = service.suggest_batch(requests);
  ASSERT_EQ(responses.size(), 3u);
  for (int i = 1; i < 3; ++i) {
    EXPECT_TRUE(responses[i].ok) << "degraded-shed still answers";
    EXPECT_TRUE(responses[i].degraded);
    EXPECT_TRUE(responses[i].schema_correct) << responses[i].snippet;
    EXPECT_EQ(responses[i].error, ws::ServiceError::Overloaded);
  }

  const auto& registry = service.metrics();
  EXPECT_EQ(metric_value(registry, "wisdom_serve_offered_total"), 3);
  EXPECT_EQ(metric_value(registry, "wisdom_serve_shed_total"), 2);
  // Degraded sheds are served requests: they carry latency samples.
  EXPECT_EQ(metric_value(registry, "wisdom_serve_requests_total"), 3);
  EXPECT_GE(metric_value(registry, "wisdom_serve_degraded_total"), 2);
}

TEST(ServiceRobustness, SequentialSuggestNeverShedsWithinCapacity) {
  auto& f = fixture();
  ws::ServiceOptions options;
  options.queue_capacity = 1;  // sequential calls hold one slot at a time
  options.max_new_tokens = 4;
  ws::InferenceService service(f.model, f.tokenizer, options);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(service.suggest(install_request()).error,
              ws::ServiceError::Overloaded);
  }
  EXPECT_EQ(metric_value(service.metrics(), "wisdom_serve_shed_total"), 0);
}

// ---------------------------------------------------------------------------
// Graceful drain

TEST(Drain, LifecycleRefusesNewWorkAfterBeginDrain) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer);
  EXPECT_EQ(service.state(), ws::InferenceService::State::Accepting);
  auto served = service.suggest(install_request());
  EXPECT_NE(served.error, ws::ServiceError::Draining);

  service.begin_drain();
  EXPECT_EQ(service.state(), ws::InferenceService::State::Draining);
  auto refused = service.suggest(install_request());
  EXPECT_FALSE(refused.ok);
  EXPECT_FALSE(refused.degraded);  // a typed refusal, not a fallback
  EXPECT_TRUE(refused.snippet.empty());
  EXPECT_EQ(refused.error, ws::ServiceError::Draining);

  std::vector<ws::SuggestionRequest> requests(3, install_request());
  for (const auto& response : service.suggest_batch(requests))
    EXPECT_EQ(response.error, ws::ServiceError::Draining);
  EXPECT_EQ(metric_value(service.metrics(), "wisdom_drain_rejected_total"), 4);
}

TEST(Drain, DrainReturnsFinalMetricsFlushAndStops) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer);
  service.suggest(install_request());
  const std::string exposition = service.drain();
  EXPECT_EQ(service.state(), ws::InferenceService::State::Stopped);
  // The flush is the complete exposition: served counters and the drain
  // families themselves are present, with the terminal lifecycle state.
  EXPECT_NE(exposition.find("wisdom_serve_requests_total 1"),
            std::string::npos);
  EXPECT_NE(exposition.find("wisdom_drain_completed_total 1"),
            std::string::npos);
  EXPECT_NE(exposition.find("wisdom_drain_state 2"), std::string::npos);
  // Idempotent: a second drain is an immediate no-op flush.
  EXPECT_EQ(service.drain(), exposition);
  // A stopped service refuses exactly like a draining one.
  EXPECT_EQ(service.suggest(install_request()).error,
            ws::ServiceError::Draining);
}

TEST(Drain, RacesConcurrentBatchCallersToCompletion) {
  auto& f = fixture();
  ws::ServiceOptions options;
  options.max_new_tokens = 8;
  ws::InferenceService service(f.model, f.tokenizer, options);

  // Callers hammer suggest/suggest_batch while the main thread drains.
  // Every response must be terminal: either fully served (the call
  // entered before the drain) or a typed Draining refusal — never a torn
  // half-response. TSan runs this test in CI.
  std::atomic<int> served{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < 3; ++i) {
        if (t % 2 == 0) {
          auto response = service.suggest(install_request());
          if (response.error == ws::ServiceError::Draining) {
            EXPECT_FALSE(response.ok);
            ++refused;
          } else {
            ++served;
          }
        } else {
          std::vector<ws::SuggestionRequest> batch(2, install_request());
          for (const auto& response : service.suggest_batch(batch)) {
            if (response.error == ws::ServiceError::Draining) {
              EXPECT_FALSE(response.ok);
              ++refused;
            } else {
              EXPECT_TRUE(response.ok || !response.snippet.empty() ||
                          response.error != ws::ServiceError::None);
              ++served;
            }
          }
        }
      }
    });
  }
  const std::string exposition = service.drain();
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(service.state(), ws::InferenceService::State::Stopped);
  EXPECT_EQ(served.load() + refused.load(), 2 * 3 + 2 * 3 * 2);
  // drain() waited for in-flight calls: whatever was being served when the
  // flush happened has fully completed by join time, and late arrivals
  // were refused with the typed error.
  EXPECT_NE(exposition.find("wisdom_drain_state"), std::string::npos);
  EXPECT_EQ(service.suggest(install_request()).error,
            ws::ServiceError::Draining);
}

// ---------------------------------------------------------------------------
// Checkpoint corruption

namespace {

std::string saved_checkpoint() {
  auto& f = fixture();
  return wm::save_checkpoint(f.model, f.tokenizer.serialize());
}

}  // namespace

TEST(CheckpointRobustness, RoundTripCarriesTokenizer) {
  auto& f = fixture();
  std::string blob = saved_checkpoint();
  wm::LoadResult result = wm::load_checkpoint_ex(blob);
  ASSERT_TRUE(result.ok()) << result.message;
  EXPECT_EQ(result.status, wm::LoadStatus::Ok);
  EXPECT_TRUE(result.message.empty());
  EXPECT_EQ(result.tokenizer, f.tokenizer.serialize());
  EXPECT_EQ(result.model->config().d_model, f.model.config().d_model);
}

TEST(CheckpointRobustness, TruncationAtEveryRegionIsTyped) {
  std::string blob = saved_checkpoint();
  // Cut inside the magic, the header, just past the header, mid-payload,
  // and one byte short of complete.
  const std::size_t cuts[] = {0, 2, 10, 16, 20, blob.size() / 2,
                              blob.size() - 1};
  for (std::size_t cut : cuts) {
    wm::LoadResult result = wm::load_checkpoint_ex(blob.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_NE(result.status, wm::LoadStatus::Ok);
    EXPECT_FALSE(result.message.empty()) << "cut at " << cut;
  }
  // Truncations that keep the header intact are checksum mismatches.
  EXPECT_EQ(wm::load_checkpoint_ex(blob.substr(0, blob.size() - 1)).status,
            wm::LoadStatus::ChecksumMismatch);
  EXPECT_EQ(wm::load_checkpoint_ex(blob.substr(0, blob.size() / 2)).status,
            wm::LoadStatus::ChecksumMismatch);
  // Truncations inside the header cannot even be identified.
  EXPECT_EQ(wm::load_checkpoint_ex(blob.substr(0, 2)).status,
            wm::LoadStatus::BadMagic);
}

TEST(CheckpointRobustness, SingleByteFlipsAreDetected) {
  const std::string blob = saved_checkpoint();
  // Magic, version, checksum, config, tokenizer/tensor payload, last byte.
  const std::size_t offsets[] = {0,  5,  12, 18,
                                 blob.size() / 3, blob.size() - 1};
  for (std::size_t offset : offsets) {
    std::string corrupt = blob;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x40);
    wm::LoadResult result = wm::load_checkpoint_ex(corrupt);
    EXPECT_FALSE(result.ok()) << "flip at " << offset;
    EXPECT_FALSE(result.message.empty()) << "flip at " << offset;
  }
  // Specific regions produce specific statuses.
  auto flip = [&](std::size_t offset) {
    std::string corrupt = blob;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x40);
    return wm::load_checkpoint_ex(corrupt).status;
  };
  EXPECT_EQ(flip(0), wm::LoadStatus::BadMagic);
  EXPECT_EQ(flip(5), wm::LoadStatus::UnsupportedVersion);
  EXPECT_EQ(flip(12), wm::LoadStatus::ChecksumMismatch);   // stored checksum
  EXPECT_EQ(flip(blob.size() - 1), wm::LoadStatus::ChecksumMismatch);
}

TEST(CheckpointRobustness, AppendedGarbageIsDetected) {
  std::string blob = saved_checkpoint() + "extra";
  EXPECT_EQ(wm::load_checkpoint_ex(blob).status,
            wm::LoadStatus::ChecksumMismatch);
}

TEST(CheckpointRobustness, PreVersionedFilesGetRegenerateMessage) {
  // A v1 header: right magic, old version number where v2 expects 2.
  std::string blob = saved_checkpoint();
  blob[4] = 1;  // little-endian version 1
  wm::LoadResult result = wm::load_checkpoint_ex(blob);
  EXPECT_EQ(result.status, wm::LoadStatus::UnsupportedVersion);
  EXPECT_NE(result.message.find("version 1 is not supported"),
            std::string::npos)
      << result.message;
  EXPECT_NE(result.message.find("regenerated"), std::string::npos)
      << result.message;
}

TEST(CheckpointRobustness, GarbageBlobIsBadMagic) {
  EXPECT_EQ(wm::load_checkpoint_ex("not a checkpoint at all, sorry").status,
            wm::LoadStatus::BadMagic);
  EXPECT_EQ(wm::load_checkpoint_ex("").status, wm::LoadStatus::BadMagic);
}

TEST(CheckpointRobustness, MissingFileIsTyped) {
  wm::LoadResult result =
      wm::load_checkpoint_file_ex("/nonexistent/dir/model.ckpt");
  EXPECT_EQ(result.status, wm::LoadStatus::FileNotFound);
  EXPECT_NE(result.message.find("/nonexistent/dir/model.ckpt"),
            std::string::npos);
}

TEST(CheckpointRobustness, LegacyWrapperCollapsesToNullopt) {
  std::string blob = saved_checkpoint();
  std::string tokenizer_blob;
  EXPECT_TRUE(wm::load_checkpoint(blob, &tokenizer_blob).has_value());
  EXPECT_FALSE(tokenizer_blob.empty());
  EXPECT_FALSE(
      wm::load_checkpoint(blob.substr(0, blob.size() / 2), nullptr)
          .has_value());
}

TEST(CheckpointRobustness, StatusNamesAreStable) {
  EXPECT_STREQ(wm::load_status_name(wm::LoadStatus::Ok), "ok");
  EXPECT_STREQ(wm::load_status_name(wm::LoadStatus::ChecksumMismatch),
               "checksum-mismatch");
  EXPECT_STREQ(wm::load_status_name(wm::LoadStatus::UnsupportedVersion),
               "unsupported-version");
}

// ---------------------------------------------------------------------------
// Wire-format hardening

TEST(WireRobustness, OversizedPayloadRefusedBeforeParsing) {
  std::string big = "{\"prompt\": \"";
  big += std::string(ws::kMaxWireBytes, 'a');
  big += "\"}";
  EXPECT_FALSE(ws::request_from_json(big).has_value());
  EXPECT_FALSE(ws::response_from_json(big).has_value());
}

TEST(WireRobustness, NonFiniteNumbersRejected) {
  // 1e999 overflows double to infinity; NaN spellings do not parse at all.
  EXPECT_FALSE(
      ws::request_from_json(R"({"prompt": "x", "indent": 1e999})"));
  EXPECT_FALSE(
      ws::request_from_json(R"({"prompt": "x", "deadline_ms": 1e999})"));
  EXPECT_FALSE(ws::response_from_json(
      R"({"ok": true, "snippet": "s", "latency_ms": 1e999})"));
  EXPECT_FALSE(ws::response_from_json(
      R"({"ok": true, "snippet": "s", "latency_ms": nan})"));
}

TEST(WireRobustness, IndentMustBeSmallWholeNonNegative) {
  EXPECT_TRUE(ws::request_from_json(R"({"prompt": "x", "indent": 8})"));
  EXPECT_FALSE(ws::request_from_json(R"({"prompt": "x", "indent": -1})"));
  EXPECT_FALSE(ws::request_from_json(R"({"prompt": "x", "indent": 2.5})"));
  EXPECT_FALSE(
      ws::request_from_json(R"({"prompt": "x", "indent": 1000000})"));
}

TEST(WireRobustness, NegativeDeadlineRejected) {
  EXPECT_FALSE(
      ws::request_from_json(R"({"prompt": "x", "deadline_ms": -5.0})"));
}

TEST(WireRobustness, TruncatedEscapesFailCleanly) {
  EXPECT_FALSE(ws::request_from_json("{\"prompt\": \"a\\u12"));
  EXPECT_FALSE(ws::request_from_json("{\"prompt\": \"a\\"));
  EXPECT_FALSE(ws::request_from_json("{\"prompt\": \"a\\u123"));
  EXPECT_TRUE(ws::request_from_json("{\"prompt\": \"a\\u0041\"}"));
}

TEST(WireRobustness, ResponseCountsAndErrorsValidated) {
  EXPECT_FALSE(ws::response_from_json(
      R"({"ok": true, "snippet": "s", "generated_tokens": -3})"));
  EXPECT_FALSE(ws::response_from_json(
      R"({"ok": true, "snippet": "s", "generated_tokens": 2.5})"));
  EXPECT_FALSE(ws::response_from_json(
      R"({"ok": true, "snippet": "s", "latency_ms": -1.0})"));
  EXPECT_FALSE(ws::response_from_json(
      R"({"ok": true, "snippet": "s", "error": "made-up-error"})"));
  auto ok = ws::response_from_json(
      R"({"ok": true, "snippet": "s", "error": "overloaded"})");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->error, ws::ServiceError::Overloaded);
}

TEST(WireRobustness, RequestRoundTripKeepsDeadline) {
  ws::SuggestionRequest request;
  request.context = "- hosts: web\n";
  request.prompt = "Install nginx";
  request.indent = 4;
  request.deadline_ms = 75.5;
  auto parsed = ws::request_from_json(ws::to_json(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->prompt, request.prompt);
  EXPECT_EQ(parsed->context, request.context);
  EXPECT_EQ(parsed->indent, request.indent);
  EXPECT_DOUBLE_EQ(parsed->deadline_ms, request.deadline_ms);
}

TEST(WireRobustness, ResponseRoundTripKeepsDegradedAndError) {
  ws::SuggestionResponse response;
  response.ok = true;
  response.snippet = "- name: x\n  ansible.builtin.debug:\n    msg: \"x\"\n";
  response.schema_correct = true;
  response.latency_ms = 1.25;
  response.generated_tokens = 0;
  response.degraded = true;
  response.error = ws::ServiceError::DeadlineExceeded;
  auto parsed = ws::response_from_json(ws::to_json(response));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->degraded);
  EXPECT_EQ(parsed->error, ws::ServiceError::DeadlineExceeded);
  EXPECT_EQ(parsed->snippet, response.snippet);
}

TEST(WireRobustness, ErrorNamesRoundTrip) {
  for (ws::ServiceError e :
       {ws::ServiceError::None, ws::ServiceError::InvalidRequest,
        ws::ServiceError::Overloaded, ws::ServiceError::DeadlineExceeded,
        ws::ServiceError::LintRejected, ws::ServiceError::Draining}) {
    ws::ServiceError parsed;
    ASSERT_TRUE(
        ws::service_error_from_name(ws::service_error_name(e), &parsed));
    EXPECT_EQ(parsed, e);
  }
  ws::ServiceError unused;
  EXPECT_FALSE(ws::service_error_from_name("bogus", &unused));
}
