#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/postprocess.hpp"
#include "core/trainer.hpp"
#include "data/packing.hpp"
#include "model/checkpoint.hpp"
#include "serve/fault.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"
#include "text/bpe.hpp"
#include "util/thread_pool.hpp"

namespace wc = wisdom::core;
namespace wd = wisdom::data;
namespace wm = wisdom::model;
namespace ws = wisdom::serve;
namespace wt = wisdom::text;
using wisdom::testutil::metric_value;

namespace {

// One trained micro-model shared by the suite (training takes ~2s).
struct Fixture {
  wt::BpeTokenizer tokenizer;
  wm::Transformer model;

  Fixture()
      : tokenizer(wt::BpeTokenizer::train(corpus(), 300)),
        model(config(), 21) {
    // Varied samples (different packages, lengths) so windows do not align
    // and the model cannot overfit absolute positions.
    std::vector<std::string> texts;
    const char* pkgs[] = {"nginx", "redis", "git", "curl", "vim",
                          "htop", "jq", "wget"};
    for (int rep = 0; rep < 12; ++rep) {
      for (const char* pkg : pkgs) {
        texts.push_back(std::string("- name: Install ") + pkg +
                        "\n  ansible.builtin.apt:\n    name: " + pkg +
                        "\n    state: present\n");
      }
    }
    auto set = wd::pack_samples(tokenizer, texts, 48);
    wc::TrainConfig tc;
    tc.epochs = 30;
    tc.micro_batch = 4;
    tc.grad_accum = 1;  // small set: more optimizer steps per epoch
    tc.lr = 3e-3f;
    wc::train_model(model, set, nullptr, tc);
  }

  static std::string corpus() {
    return "- name: Install nginx\n"
           "  ansible.builtin.apt:\n"
           "    name: nginx\n"
           "    state: present\n";
  }
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
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

}  // namespace

TEST(Service, SuggestsTrainedCompletion) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer);
  ws::SuggestionRequest request;
  request.prompt = "Install nginx";
  request.indent = 0;
  auto response = service.suggest(request);
  ASSERT_TRUE(response.ok);
  EXPECT_NE(response.snippet.find("- name: Install nginx"),
            std::string::npos);
  EXPECT_NE(response.snippet.find("ansible.builtin.apt"), std::string::npos);
  EXPECT_TRUE(response.schema_correct) << response.snippet;
  EXPECT_GT(response.latency_ms, 0.0);
  EXPECT_GT(response.generated_tokens, 0);
}

TEST(Service, EmptyPromptRejected) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer);
  ws::SuggestionRequest request;
  request.prompt = "";
  auto response = service.suggest(request);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(metric_value(service.metrics(), "wisdom_serve_requests_total"), 1);
}

TEST(Service, NegativeIndentRejected) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer);
  ws::SuggestionRequest request;
  request.prompt = "Install nginx";
  request.indent = -1;
  EXPECT_FALSE(service.suggest(request).ok);
}

TEST(Service, IndentedSuggestionForPlaybookContext) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer);
  ws::SuggestionRequest request;
  request.context =
      "- hosts: web\n"
      "  tasks:\n";
  request.prompt = "Install nginx";
  request.indent = 4;
  auto response = service.suggest(request);
  EXPECT_NE(response.snippet.find("    - name: Install nginx"),
            std::string::npos);
}

TEST(Service, StatsAccumulate) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer);
  ws::SuggestionRequest request;
  request.prompt = "Install nginx";
  service.suggest(request);
  service.suggest(request);
  service.record_accept();
  service.record_reject();
  service.record_accept();
  const auto& registry = service.metrics();
  EXPECT_EQ(metric_value(registry, "wisdom_serve_requests_total"), 2);
  EXPECT_EQ(metric_value(registry, "wisdom_serve_accepted_total"), 2);
  EXPECT_EQ(metric_value(registry, "wisdom_serve_rejected_total"), 1);
  EXPECT_GT(metric_value(registry, "wisdom_serve_request_ms_sum"), 0.0);
}

TEST(Service, EmptyStats) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer);
  const auto& registry = service.metrics();
  EXPECT_EQ(metric_value(registry, "wisdom_serve_accepted_total"), 0);
  EXPECT_EQ(metric_value(registry, "wisdom_serve_rejected_total"), 0);
  EXPECT_EQ(metric_value(registry, "wisdom_serve_request_ms_count"), 0);
  EXPECT_EQ(metric_value(registry, "wisdom_serve_request_ms_sum"), 0.0);
}

// --- lint policy matrix -------------------------------------------------------

TEST(LintPolicy, ValidSuggestionsPassEveryPolicyUnchanged) {
  auto& f = fixture();
  ws::InferenceService off(f.model, f.tokenizer);
  ws::SuggestionRequest request;
  request.prompt = "Install nginx";
  auto baseline = off.suggest(request);
  ASSERT_TRUE(baseline.ok);
  ASSERT_TRUE(baseline.schema_correct);
  EXPECT_TRUE(baseline.diagnostics.empty());
  EXPECT_FALSE(baseline.repaired);

  for (ws::LintPolicy policy :
       {ws::LintPolicy::Annotate, ws::LintPolicy::Repair,
        ws::LintPolicy::RejectDegraded}) {
    ws::ServiceOptions options;
    options.lint_policy = policy;
    ws::InferenceService service(f.model, f.tokenizer, options);
    auto response = service.suggest(request);
    ASSERT_TRUE(response.ok) << ws::lint_policy_name(policy);
    // Greedy decoding + an already-valid snippet: every policy returns
    // the exact same bytes (Exact Match is untouched).
    EXPECT_EQ(response.snippet, baseline.snippet)
        << ws::lint_policy_name(policy);
    EXPECT_TRUE(response.schema_correct);
    EXPECT_FALSE(response.repaired);
    EXPECT_FALSE(response.degraded);
    EXPECT_TRUE(response.diagnostics.empty());
  }
}

TEST(LintPolicy, RejectDegradedFallsBackWhenNothingIsSalvaged) {
  auto& f = fixture();
  ws::FaultInjector faults;
  ws::ServiceOptions options;
  options.lint_policy = ws::LintPolicy::RejectDegraded;
  options.faults = &faults;
  ws::InferenceService service(f.model, f.tokenizer, options);
  // The deadline expires before the first token: no partial to salvage.
  faults.set_slow_decode_after_tokens(0);
  ws::SuggestionRequest request;
  request.prompt = "Install nginx";
  auto response = service.suggest(request);
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.generated_tokens, 0);
  EXPECT_EQ(response.error, ws::ServiceError::DeadlineExceeded);
  EXPECT_TRUE(response.schema_correct);
}

TEST(LintPolicy, RejectDegradedWithoutFallbackRefuses) {
  auto& f = fixture();
  // An untrained model generates junk or nothing; under reject-degraded
  // with the fallback disabled the request is refused outright rather
  // than answered with a snippet that fails the lint gate.
  wm::Transformer untrained(f.config(), 99);
  ws::ServiceOptions options;
  options.lint_policy = ws::LintPolicy::RejectDegraded;
  options.fallback_enabled = false;
  ws::InferenceService service(untrained, f.tokenizer, options);
  ws::SuggestionRequest request;
  request.prompt = "Install nginx";
  auto response = service.suggest(request);
  if (!response.schema_correct) {
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, ws::ServiceError::LintRejected);
  }
}

TEST(LintPolicy, RejectDegradedWithFallbackAlwaysServesSchemaCorrect) {
  auto& f = fixture();
  wm::Transformer untrained(f.config(), 99);
  ws::ServiceOptions options;
  options.lint_policy = ws::LintPolicy::RejectDegraded;
  ws::InferenceService service(untrained, f.tokenizer, options);
  ws::SuggestionRequest request;
  request.prompt = "Install nginx";
  auto response = service.suggest(request);
  // The policy's contract: whatever the model produced, the served
  // snippet is schema-correct (repaired, or replaced by the fallback).
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.schema_correct);
}

TEST(LintPolicy, LintCounterFamiliesPreRegistered) {
  auto& f = fixture();
  ws::ServiceOptions options;
  options.lint_policy = ws::LintPolicy::Annotate;
  ws::InferenceService service(f.model, f.tokenizer, options);
  std::string exposition = service.metrics().expose_prometheus();
  for (const char* family :
       {"wisdom_lint_diagnostics_total", "wisdom_lint_errors_total",
        "wisdom_lint_warnings_total", "wisdom_lint_repaired_total",
        "wisdom_lint_rejected_total", "wisdom_lint_rule_fqcn_total",
        "wisdom_lint_rule_duplicate_key_total",
        "wisdom_lint_rule_old_style_args_total"}) {
    EXPECT_NE(exposition.find(family), std::string::npos) << family;
  }
}

// --- batch serving ----------------------------------------------------------

namespace {

std::vector<ws::SuggestionRequest> batch_requests() {
  std::vector<ws::SuggestionRequest> requests(7);
  const char* prompts[] = {"Install nginx",  "Start redis",
                           "Copy a file",    "Install nginx",
                           "Enable service", "Install nginx",
                           "Remove package"};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].prompt = prompts[i];
    requests[i].indent = static_cast<int>(i % 3);
  }
  return requests;
}

void expect_same_payload(const ws::SuggestionResponse& a,
                         const ws::SuggestionResponse& b, std::size_t i) {
  EXPECT_EQ(a.snippet, b.snippet) << "request " << i;
  EXPECT_EQ(a.ok, b.ok) << "request " << i;
  EXPECT_EQ(a.schema_correct, b.schema_correct) << "request " << i;
  EXPECT_EQ(a.generated_tokens, b.generated_tokens) << "request " << i;
  EXPECT_EQ(a.degraded, b.degraded) << "request " << i;
  EXPECT_EQ(a.error, b.error) << "request " << i;
}

// N sequential suggest() calls on a fresh service: the reference every
// suggest_batch() response must match.
std::vector<ws::SuggestionResponse> sequential_reference(
    const wm::Transformer& model, const wt::BpeTokenizer& tokenizer,
    const ws::ServiceOptions& options,
    const std::vector<ws::SuggestionRequest>& requests) {
  ws::InferenceService service(model, tokenizer, options);
  std::vector<ws::SuggestionResponse> responses;
  for (const auto& r : requests) responses.push_back(service.suggest(r));
  return responses;
}

}  // namespace

// At pool widths 1, 3 and 4, with the caches on and off, a batch serves
// exactly what sequential suggest() calls serve. The batch sizes cover no
// request, one, fewer requests than lanes, and a count that is no multiple
// of the lanes, so the lanes claim requests unevenly.
TEST(ServiceBatch, MatchesSequentialWithCachesOnAndOff) {
  const wt::BpeTokenizer tokenizer = wisdom::testutil::serving_tokenizer();
  const wm::Transformer model = wisdom::testutil::serving_model(tokenizer);
  const auto all_requests = batch_requests();
  for (int threads : {1, 3, 4}) {
    wisdom::util::ThreadPool::set_global_threads(threads);
    for (std::size_t size : {0, 1, 2, 7}) {
      const std::vector<ws::SuggestionRequest> requests(
          all_requests.begin(),
          all_requests.begin() + static_cast<std::ptrdiff_t>(size));
      for (bool caches_on : {false, true}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " size=" + std::to_string(size) +
                     " caches_on=" + std::to_string(caches_on));
        ws::ServiceOptions options;
        options.prefix_cache_enabled = caches_on;
        options.response_cache_enabled = caches_on;
        const auto expected =
            sequential_reference(model, tokenizer, options, requests);

        ws::InferenceService batched(model, tokenizer, options);
        const auto responses = batched.suggest_batch(requests);
        ASSERT_EQ(responses.size(), requests.size());
        for (std::size_t i = 0; i < requests.size(); ++i)
          expect_same_payload(responses[i], expected[i], i);
        const auto& registry = batched.metrics();
        EXPECT_EQ(metric_value(registry, "wisdom_serve_requests_total"),
                  requests.size());
        EXPECT_EQ(metric_value(registry, "wisdom_serve_request_ms_count"),
                  requests.size());
        if (size > 0) {
          EXPECT_GT(metric_value(registry, "wisdom_serve_wall_ms"), 0.0);
        }
      }
    }
  }
  wisdom::util::ThreadPool::set_global_threads(0);
}

// A batch served from inside a pool chunk runs inline on that chunk's
// thread (every chunk is a lane) and still serves what sequential calls
// serve.
TEST(ServiceBatch, FromInsidePoolChunkRunsInline) {
  const wt::BpeTokenizer tokenizer = wisdom::testutil::serving_tokenizer();
  const wm::Transformer model = wisdom::testutil::serving_model(tokenizer);
  const auto requests = batch_requests();
  const auto expected =
      sequential_reference(model, tokenizer, ws::ServiceOptions{}, requests);
  wisdom::util::ThreadPool::set_global_threads(4);
  wisdom::util::ThreadPool& pool = wisdom::util::ThreadPool::global();
  std::vector<std::vector<ws::SuggestionResponse>> served(4);
  wisdom::obs::set_enabled(true);
  const double tasks_before = wisdom::testutil::pool_tasks();
  pool.parallel_for(0, 4, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      ws::InferenceService service(model, tokenizer);
      served[static_cast<std::size_t>(c)] = service.suggest_batch(requests);
    }
  });
  const double tasks_run = wisdom::testutil::pool_tasks() - tasks_before;
  for (const auto& responses : served) {
    ASSERT_EQ(responses.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i)
      expect_same_payload(responses[i], expected[i], i);
  }
  // Only the outer fan-out's four chunks reached the pool.
  if (wisdom::obs::kCompiledIn) EXPECT_EQ(tasks_run, 4.0);
  wisdom::util::ThreadPool::set_global_threads(0);
}

TEST(ServiceBatch, FaultInjectionMatchesSequential) {
  const wt::BpeTokenizer tokenizer = wisdom::testutil::serving_tokenizer();
  const wm::Transformer model = wisdom::testutil::serving_model(tokenizer);
  const auto requests = batch_requests();

  // Every request decodes under a tight check-count budget.
  ws::FaultInjector faults;
  ws::ServiceOptions options;
  options.faults = &faults;
  faults.set_slow_decode_after_tokens(6);
  const auto expected =
      sequential_reference(model, tokenizer, options, requests);

  ws::FaultInjector batch_faults;
  ws::ServiceOptions batch_options = options;
  batch_options.faults = &batch_faults;
  ws::InferenceService batched(model, tokenizer, batch_options);
  batch_faults.set_slow_decode_after_tokens(6);
  const auto responses = batched.suggest_batch(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_same_payload(responses[i], expected[i], i);
    EXPECT_EQ(responses[i].error, ws::ServiceError::DeadlineExceeded);
  }
}

namespace {

// What a stream delivers: (text, reset) per sink call.
using Chunks = std::vector<std::pair<std::string, bool>>;

// The stream computed the slow way: the same greedy decode the service
// runs, with the stable prefix (trim + truncate over every token decoded
// so far) recomputed after every token, then settled against the final
// snippet as suggest_stream's finish() settles it.
Chunks per_token_reference(const wm::Transformer& model,
                           const wt::BpeTokenizer& tokenizer,
                           const ws::SuggestionRequest& request,
                           int max_new_tokens,
                           const wisdom::util::Deadline& deadline,
                           const std::string& final_snippet) {
  const auto indent = static_cast<std::size_t>(request.indent);
  const std::string name_line =
      std::string(indent, ' ') + "- name: " + request.prompt + "\n";
  Chunks chunks;
  std::string emitted;
  std::vector<std::int32_t> ids;
  wm::Transformer::GenerateOptions gen;
  gen.max_new_tokens = max_new_tokens;
  gen.stop_token = wt::BpeTokenizer::kEndOfText;
  gen.deadline = deadline;
  gen.on_token = [&](std::int32_t token) {
    ids.push_back(token);
    const std::string stable =
        name_line + wc::truncate_to_first_task(
                        wc::trim_generation(tokenizer.decode(ids)), indent);
    if (stable.size() > emitted.size() &&
        stable.compare(0, emitted.size(), emitted) == 0) {
      chunks.emplace_back(stable.substr(emitted.size()), false);
      emitted = stable;
    }
  };
  model.generate(tokenizer.encode(request.context + name_line), gen);
  if (final_snippet.size() >= emitted.size() &&
      final_snippet.compare(0, emitted.size(), emitted) == 0) {
    if (final_snippet.size() > emitted.size())
      chunks.emplace_back(final_snippet.substr(emitted.size()), false);
  } else {
    chunks.emplace_back(final_snippet, true);
  }
  return chunks;
}

}  // namespace

// The emitter recomputes its stable prefix only on the first token and on
// tokens whose bytes hold a '\n'. Its chunk texts and reset flags must
// equal a recomputation after every token: over the serving benchmark's
// checkpoint and an untrained model, lint repair on and off, and deadline
// cuts (fallback and salvage settle with resets).
TEST(Stream, ChunksMatchPerTokenRecomputation) {
  auto checkpoint = wm::load_checkpoint_file_ex(WISDOM_SERVED_CKPT);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.message;
  const auto served_tokenizer =
      wt::BpeTokenizer::deserialize(checkpoint.tokenizer);
  ASSERT_TRUE(served_tokenizer.has_value());
  const wt::BpeTokenizer untrained_tokenizer =
      wisdom::testutil::serving_tokenizer();
  const wm::Transformer untrained =
      wisdom::testutil::serving_model(untrained_tokenizer);
  struct Served {
    const wm::Transformer& model;
    const wt::BpeTokenizer& tokenizer;
  };
  const Served served[] = {{*checkpoint.model, *served_tokenizer},
                           {untrained, untrained_tokenizer}};
  std::size_t multi_line_streams = 0, resets = 0;
  for (const Served& s : served) {
    for (ws::LintPolicy policy :
         {ws::LintPolicy::Off, ws::LintPolicy::Repair}) {
      for (int extra_checks : {-1, 4, 14}) {
        for (const char* prompt : {"Install nginx", "Install redis",
                                   "Start the git service"}) {
          for (int indent : {0, 4}) {
            ws::SuggestionRequest request;
            request.prompt = prompt;
            request.indent = indent;
            if (indent > 0) request.context = "- hosts: all\n  tasks:\n";
            ws::FaultInjector faults;
            ws::ServiceOptions options;
            options.lint_policy = policy;
            options.faults = &faults;
            // A check budget of the prompt's prefill plus a few decode
            // steps: deterministic deadline cuts.
            const std::string name_line = std::string(indent, ' ') +
                                          "- name: " + prompt + "\n";
            const auto prompt_tokens = static_cast<std::int64_t>(
                s.tokenizer.encode(request.context + name_line).size());
            if (extra_checks >= 0)
              faults.set_slow_decode_after_tokens(prompt_tokens +
                                                  extra_checks);
            const wisdom::util::Deadline deadline =
                faults.slow_decode_active() ? faults.slow_decode_deadline()
                                            : wisdom::util::Deadline();
            ws::InferenceService service(s.model, s.tokenizer, options);
            Chunks chunks;
            const auto response = service.suggest_stream(
                request, [&](std::string_view text, bool reset) {
                  chunks.emplace_back(std::string(text), reset);
                });
            EXPECT_EQ(chunks, per_token_reference(s.model, s.tokenizer,
                                                  request,
                                                  options.max_new_tokens,
                                                  deadline, response.snippet))
                << prompt << " indent " << indent << " checks "
                << extra_checks;
            std::size_t lines = 0;
            for (const auto& chunk : chunks) {
              resets += chunk.second;
              if (!chunk.second) ++lines;
            }
            multi_line_streams += lines >= 3;
          }
        }
      }
    }
  }
  // Both settling paths ran: streams of several deltas, and resets.
  EXPECT_GT(multi_line_streams, 0u);
  EXPECT_GT(resets, 0u);
}
