// Cross-feature differential parity harness for speculative decoding.
//
// The speculative contract is byte-identity: with a draft model configured
// and speculative_k > 0, every served response must equal the
// speculative-off response bit for bit — same snippet, same token count,
// same degraded/error classification — because greedy verification commits
// exactly the tokens sequential decode would have produced, and deadline
// checks are spent one-per-committed-token in the same order.
//
// One table drives the matrix: each case configures both services
// identically except for the speculative knobs, runs the same scenario
// against both, and compares payloads (excluding per-request bookkeeping:
// latency_ms, trace_id, server_timing_ms — speculative decoding changes
// span shapes, never bytes). The matrix crosses every serving feature that
// interacts with the decode loop:
//
//   { greedy, beam-fallback, streaming, warm prefix-cache,
//     batch, deadline salvage }  x  WISDOM_THREADS {1, 4}
//
// plus direct model-level checks of generate_speculative() against
// generate() on trained and untrained model pairs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "model/checkpoint.hpp"
#include "model/config.hpp"
#include "model/speculative.hpp"
#include "model/transformer.hpp"
#include "serve/fault.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"
#include "text/bpe.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wm = wisdom::model;
namespace ws = wisdom::serve;
namespace wt = wisdom::text;
namespace wu = wisdom::util;
using wisdom::testutil::ForceParallel;
using wisdom::testutil::random_prompt;
using wisdom::testutil::serving_draft;
using wisdom::testutil::serving_model;
using wisdom::testutil::serving_tokenizer;
using wisdom::testutil::trained_tiny;

namespace {

// Fields that must be identical between speculative and baseline serving.
// Excluded: latency_ms, server_timing_ms (span shapes differ: draft/verify
// vs per-token decode), trace_id (sequence numbering), cached.
void expect_same_payload(const ws::SuggestionResponse& a,
                         const ws::SuggestionResponse& b,
                         const std::string& label) {
  EXPECT_EQ(a.ok, b.ok) << label;
  EXPECT_EQ(a.snippet, b.snippet) << label;
  EXPECT_EQ(a.schema_correct, b.schema_correct) << label;
  EXPECT_EQ(a.generated_tokens, b.generated_tokens) << label;
  EXPECT_EQ(a.degraded, b.degraded) << label;
  EXPECT_EQ(a.repaired, b.repaired) << label;
  EXPECT_EQ(a.error, b.error) << label;
  EXPECT_EQ(a.diagnostics.size(), b.diagnostics.size()) << label;
}

// --- model-level parity ------------------------------------------------------

// generate_speculative() must return generate()'s exact tokens and status
// for any prompt and any k — trained pair (high draft agreement, long
// accepted runs) and untrained pair (near-zero agreement, constant
// rejection resync) both.
TEST(SpeculativeModel, MatchesSequentialGreedyTrainedPair) {
  auto& f = trained_tiny();
  const auto prompts = {"- name: Install nginx\n", "- name: Install redis\n",
                        "- name: Start vim\n"};
  for (const char* text : prompts) {
    auto ids = f.tokenizer.encode(text);
    for (int k : {1, 2, 4, 7}) {
      wm::Transformer::GenerateOptions gen;
      gen.max_new_tokens = 24;
      gen.stop_token = wt::BpeTokenizer::kEndOfText;
      wm::Transformer::GenerateStatus base_status;
      gen.status = &base_status;
      auto expected = f.model.generate(ids, gen);

      wm::Transformer::GenerateStatus spec_status;
      gen.status = &spec_status;
      wm::SpeculativeOptions spec;
      spec.draft = &f.draft;
      spec.k = k;
      wm::SpeculativeStats stats;
      spec.stats = &stats;
      auto actual = wm::generate_speculative(f.model, ids, gen, spec);

      EXPECT_EQ(actual, expected) << "prompt=" << text << " k=" << k;
      EXPECT_EQ(spec_status.steps_taken, base_status.steps_taken)
          << "prompt=" << text << " k=" << k;
      EXPECT_EQ(spec_status.deadline_expired, base_status.deadline_expired);
      EXPECT_EQ(stats.committed,
                static_cast<std::int64_t>(expected.size()));
      // The trained pair agrees on schema tokens: speculation must
      // actually commit draft proposals, not just fall through.
      EXPECT_GT(stats.accepted, 0) << "prompt=" << text << " k=" << k;
    }
  }
}

TEST(SpeculativeModel, MatchesSequentialOnRandomPromptsUntrainedPair) {
  ForceParallel force;
  const auto tokenizer = serving_tokenizer();
  const wm::Transformer model = serving_model(tokenizer);
  const wm::Transformer draft = serving_draft(tokenizer);
  wu::Rng rng(7);
  const auto vocab = static_cast<std::int32_t>(tokenizer.vocab_size());
  for (int round = 0; round < 12; ++round) {
    const auto prompt = random_prompt(rng, 1, 12, vocab);
    const int k = rng.uniform_int(1, 6);
    wm::Transformer::GenerateOptions gen;
    gen.max_new_tokens = rng.uniform_int(1, 20);
    wm::Transformer::GenerateStatus base_status;
    gen.status = &base_status;
    auto expected = model.generate(prompt, gen);

    wm::Transformer::GenerateStatus spec_status;
    gen.status = &spec_status;
    wm::SpeculativeOptions spec;
    spec.draft = &draft;
    spec.k = k;
    auto actual = wm::generate_speculative(model, prompt, gen, spec);
    EXPECT_EQ(actual, expected) << "round=" << round << " k=" << k;
    EXPECT_EQ(spec_status.steps_taken, base_status.steps_taken)
        << "round=" << round << " k=" << k;
  }
}

// Check-count deadlines: speculation spends exactly one check per
// committed token in commit order, so a budget that cuts sequential
// decode after N tokens cuts speculative decode after the same N.
TEST(SpeculativeModel, DeadlineCutsAtTheSameToken) {
  auto& f = trained_tiny();
  auto ids = f.tokenizer.encode("- name: Install nginx\n");
  const auto kept = f.model.kept_prompt(ids, 24);
  for (std::int64_t cut_after : {0, 1, 3, 5, 9}) {
    // Check-limited deadlines share their budget across copies, so each
    // run gets a freshly minted one with the identical allowance.
    const std::int64_t budget =
        static_cast<std::int64_t>(kept.size()) + cut_after;
    wm::Transformer::GenerateOptions gen;
    gen.max_new_tokens = 24;
    gen.stop_token = wt::BpeTokenizer::kEndOfText;
    gen.deadline = wu::Deadline::after_checks(budget);
    wm::Transformer::GenerateStatus base_status;
    gen.status = &base_status;
    auto expected = f.model.generate(ids, gen);

    gen.deadline = wu::Deadline::after_checks(budget);
    wm::Transformer::GenerateStatus spec_status;
    gen.status = &spec_status;
    wm::SpeculativeOptions spec;
    spec.draft = &f.draft;
    spec.k = 4;
    auto actual = wm::generate_speculative(f.model, ids, gen, spec);
    EXPECT_EQ(actual, expected) << "cut_after=" << cut_after;
    EXPECT_EQ(spec_status.deadline_expired, base_status.deadline_expired)
        << "cut_after=" << cut_after;
    EXPECT_EQ(spec_status.steps_taken, base_status.steps_taken)
        << "cut_after=" << cut_after;
  }
}

// Streaming hook parity: on_token fires once per committed token with the
// same values in the same order — never for drafted-but-unverified tokens.
TEST(SpeculativeModel, OnTokenSeesOnlyVerifiedTokensInOrder) {
  auto& f = trained_tiny();
  auto ids = f.tokenizer.encode("- name: Install redis\n");
  wm::Transformer::GenerateOptions gen;
  gen.max_new_tokens = 20;
  gen.stop_token = wt::BpeTokenizer::kEndOfText;
  std::vector<std::int32_t> base_seen;
  gen.on_token = [&](std::int32_t t) { base_seen.push_back(t); };
  auto expected = f.model.generate(ids, gen);

  std::vector<std::int32_t> spec_seen;
  gen.on_token = [&](std::int32_t t) { spec_seen.push_back(t); };
  wm::SpeculativeOptions spec;
  spec.draft = &f.draft;
  spec.k = 4;
  auto actual = wm::generate_speculative(f.model, ids, gen, spec);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(spec_seen, base_seen);
  EXPECT_EQ(spec_seen, actual);
}

// Warm prefix-cache interop at the model level: a snapshot taken by a
// speculative run warms a later speculative run, with the same bytes a
// cold sequential run produces.
TEST(SpeculativeModel, WarmCacheRoundTripMatchesCold) {
  auto& f = trained_tiny();
  auto ids = f.tokenizer.encode("- name: Install curl\n");
  wm::Transformer::GenerateOptions gen;
  gen.max_new_tokens = 16;
  gen.stop_token = wt::BpeTokenizer::kEndOfText;
  auto cold = f.model.generate(ids, gen);

  wm::SpeculativeOptions spec;
  spec.draft = &f.draft;
  spec.k = 3;
  wm::Transformer::KvCache snapshot;
  wm::Transformer::GenerateOptions snap_gen = gen;
  snap_gen.prompt_snapshot = &snapshot;
  EXPECT_EQ(wm::generate_speculative(f.model, ids, snap_gen, spec), cold);
  ASSERT_GT(snapshot.length, 0);

  wm::Transformer::KvCache warm = snapshot.clone(snapshot.length / 2);
  wm::Transformer::GenerateOptions warm_gen = gen;
  warm_gen.warm_cache = &warm;
  EXPECT_EQ(wm::generate_speculative(f.model, ids, warm_gen, spec), cold);
}

// The applicability gate: sampled decoding never speculates (greedy
// verification would change the RNG stream), and generate_speculative
// falls back to generate() bit-for-bit.
TEST(SpeculativeModel, SampledDecodingFallsBackExactly) {
  auto& f = trained_tiny();
  auto ids = f.tokenizer.encode("- name: Install git\n");
  wm::Transformer::GenerateOptions gen;
  gen.max_new_tokens = 16;
  gen.temperature = 0.8f;
  gen.top_k = 8;
  gen.sample_seed = 42;
  auto expected = f.model.generate(ids, gen);

  wm::SpeculativeOptions spec;
  spec.draft = &f.draft;
  spec.k = 4;
  EXPECT_FALSE(wm::speculation_applicable(f.model, spec, gen));
  wm::SpeculativeStats stats;
  spec.stats = &stats;
  EXPECT_EQ(wm::generate_speculative(f.model, ids, gen, spec), expected);
  EXPECT_EQ(stats.proposed, 0);
}

// --- service-level matrix ----------------------------------------------------

// One scenario of the matrix: `configure` mutates the shared options
// (applied to baseline and speculative service alike); `run` executes the
// scenario and returns the responses plus any streamed bytes.
struct CaseResult {
  std::vector<ws::SuggestionResponse> responses;
  std::vector<std::string> streams;
};

struct ParityCase {
  const char* name;
  void (*configure)(ws::ServiceOptions&);
  CaseResult (*run)(ws::InferenceService&, ws::FaultInjector&);
};

ws::SuggestionRequest make_request(const char* prompt) {
  ws::SuggestionRequest request;
  request.prompt = prompt;
  return request;
}

CaseResult run_singles(ws::InferenceService& service, ws::FaultInjector&) {
  CaseResult result;
  for (const char* p : {"Install nginx", "Start redis", "Install nginx",
                        "Remove package"})
    result.responses.push_back(service.suggest(make_request(p)));
  return result;
}

CaseResult run_streaming(ws::InferenceService& service, ws::FaultInjector&) {
  CaseResult result;
  for (const char* p : {"Install nginx", "Copy a file"}) {
    std::string accumulated;
    auto response = service.suggest_stream(
        make_request(p), [&](std::string_view text, bool reset) {
          if (reset) accumulated.clear();
          accumulated.append(text);
        });
    // The stream invariant holds per service; cross-service equality of
    // `streams` then proves chunking parity.
    EXPECT_EQ(accumulated, response.snippet) << "stream prompt=" << p;
    result.streams.push_back(std::move(accumulated));
    result.responses.push_back(std::move(response));
  }
  return result;
}

CaseResult run_warm_prefix(ws::InferenceService& service, ws::FaultInjector&) {
  CaseResult result;
  // Same prompt family: the second and third share a kept-prompt prefix
  // with the first, so they decode from a warm cache.
  for (const char* p : {"Install nginx", "Install redis", "Install nginx"})
    result.responses.push_back(service.suggest(make_request(p)));
  EXPECT_GT(service.prefix_cache_stats().hits, 0u);
  return result;
}

CaseResult run_batch(ws::InferenceService& service, ws::FaultInjector&) {
  CaseResult result;
  std::vector<ws::SuggestionRequest> requests;
  for (const char* p : {"Install nginx", "Start redis", "Copy a file",
                        "Install nginx", "Enable service", "Remove package",
                        "Install wget"})
    requests.push_back(make_request(p));
  result.responses = service.suggest_batch(requests);
  return result;
}

CaseResult run_deadline_salvage(ws::InferenceService& service,
                                ws::FaultInjector& faults) {
  auto& f = trained_tiny();
  CaseResult result;
  // Budget the check-count deadline to cut mid-decode: prefill costs one
  // check per kept-prompt token, then one per committed token.
  auto request = make_request("Install redis");
  auto ids = f.tokenizer.encode("- name: " + request.prompt + "\n");
  const auto kept = f.model.kept_prompt(ids, service.options().max_new_tokens);
  faults.set_slow_decode_after_tokens(
      static_cast<std::int64_t>(kept.size()) + 4);
  auto response = service.suggest(request);
  EXPECT_EQ(response.error, ws::ServiceError::DeadlineExceeded);
  EXPECT_TRUE(response.degraded);
  result.responses.push_back(std::move(response));
  return result;
}

constexpr ParityCase kMatrix[] = {
    {"greedy", [](ws::ServiceOptions&) {}, run_singles},
    {"beam_fallback",
     [](ws::ServiceOptions& o) { o.beam_width = 3; }, run_singles},
    {"streaming", [](ws::ServiceOptions&) {}, run_streaming},
    {"warm_prefix_cache",
     [](ws::ServiceOptions& o) { o.prefix_cache_enabled = true; },
     run_warm_prefix},
    {"batch", [](ws::ServiceOptions&) {}, run_batch},
    {"deadline_salvage", [](ws::ServiceOptions&) {}, run_deadline_salvage},
};

std::uint64_t spec_counter(const ws::InferenceService& service,
                           const char* name) {
  const auto* counter = service.metrics().find_counter(name);
  return counter != nullptr ? counter->value() : 0u;
}

// The tentpole test: every matrix case, at 1 and 4 threads, serves
// byte-identical payloads with speculation on and off — and the
// speculative service provably speculated (except under beam decoding,
// where the gate must keep it off).
TEST(SpeculativeParity, MatrixMatchesBaselineAcrossThreads) {
  auto& f = trained_tiny();
  for (int threads : {1, 4}) {
    wu::ThreadPool::set_global_threads(threads);
    for (const auto& parity_case : kMatrix) {
      const std::string label = std::string(parity_case.name) +
                                " threads=" + std::to_string(threads);
      ws::FaultInjector base_faults;
      ws::ServiceOptions base;
      base.max_new_tokens = 24;
      base.faults = &base_faults;
      parity_case.configure(base);

      ws::ServiceOptions spec = base;
      ws::FaultInjector spec_faults;
      spec.faults = &spec_faults;
      spec.speculative_k = 3;
      spec.draft_model = &f.draft;

      ws::InferenceService baseline(f.model, f.tokenizer, base);
      ws::InferenceService speculative(f.model, f.tokenizer, spec);
      ASSERT_EQ(speculative.options().speculative_k, 3) << label;

      CaseResult expected = parity_case.run(baseline, base_faults);
      CaseResult actual = parity_case.run(speculative, spec_faults);

      ASSERT_EQ(actual.responses.size(), expected.responses.size()) << label;
      for (std::size_t i = 0; i < expected.responses.size(); ++i)
        expect_same_payload(actual.responses[i], expected.responses[i],
                            label + " request=" + std::to_string(i));
      EXPECT_EQ(actual.streams, expected.streams) << label;

      const std::uint64_t proposed =
          spec_counter(speculative, "wisdom_spec_proposed_total");
      if (std::string(parity_case.name) == "beam_fallback") {
        EXPECT_EQ(proposed, 0u) << label << ": beam must not speculate";
      } else {
        EXPECT_GT(proposed, 0u) << label << ": speculation never engaged";
        EXPECT_GT(spec_counter(speculative, "wisdom_spec_accepted_total"), 0u)
            << label;
      }
      EXPECT_EQ(spec_counter(baseline, "wisdom_spec_proposed_total"), 0u)
          << label;
    }
  }
  wu::ThreadPool::set_global_threads(0);
}

// Same matrix driven through an owned draft loaded from a checkpoint file
// — the deployment path (draft_checkpoint) must behave exactly like the
// borrowed-pointer path. One representative case keeps runtime bounded.
TEST(SpeculativeParity, CheckpointDraftMatchesBorrowedDraft) {
  auto& f = trained_tiny();
  const std::string path = ::testing::TempDir() + "wisdom_parity_draft.ckpt";
  ASSERT_TRUE(wm::save_checkpoint_file(path, f.draft, ""));

  ws::ServiceOptions borrowed;
  borrowed.max_new_tokens = 24;
  borrowed.speculative_k = 3;
  borrowed.draft_model = &f.draft;

  ws::ServiceOptions from_file = borrowed;
  from_file.draft_model = nullptr;
  from_file.draft_checkpoint = path;

  ws::InferenceService a(f.model, f.tokenizer, borrowed);
  ws::InferenceService b(f.model, f.tokenizer, from_file);
  ASSERT_EQ(b.options().speculative_k, 3)
      << "checkpoint draft failed to load";
  for (const char* p : {"Install nginx", "Start redis"}) {
    auto ra = a.suggest(make_request(p));
    auto rb = b.suggest(make_request(p));
    expect_same_payload(ra, rb, std::string("checkpoint draft prompt=") + p);
  }
  EXPECT_GT(spec_counter(b, "wisdom_spec_accepted_total"), 0u);
  std::remove(path.c_str());
}

// An incompatible draft (vocab mismatch) must disable speculation, not
// fail construction or change bytes.
TEST(SpeculativeParity, IncompatibleDraftDisablesSpeculation) {
  auto& f = trained_tiny();
  wm::ModelConfig bad_cfg = wisdom::testutil::tiny_draft_config();
  bad_cfg.vocab = static_cast<std::int32_t>(f.tokenizer.vocab_size()) + 1;
  const wm::Transformer bad_draft(bad_cfg, 5);

  ws::ServiceOptions options;
  options.max_new_tokens = 24;
  options.speculative_k = 3;
  options.draft_model = &bad_draft;
  ws::InferenceService service(f.model, f.tokenizer, options);
  EXPECT_EQ(service.options().speculative_k, 0);

  ws::ServiceOptions off;
  off.max_new_tokens = 24;
  ws::InferenceService baseline(f.model, f.tokenizer, off);
  auto a = service.suggest(make_request("Install nginx"));
  auto b = baseline.suggest(make_request("Install nginx"));
  expect_same_payload(a, b, "incompatible draft");
  EXPECT_EQ(spec_counter(service, "wisdom_spec_proposed_total"), 0u);
}

}  // namespace
