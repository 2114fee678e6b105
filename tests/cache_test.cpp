// Prefix KV cache + response memo: unit tests for the cache structures,
// byte-identity property tests (cache-on serving must equal cache-off
// serving bit for bit, across thread counts, beam search and
// deadline-salvaged partials), and a multi-threaded eviction stress test
// whose counters must reconcile exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "data/packing.hpp"
#include "serve/prefix_cache.hpp"
#include "serve/response_cache.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"
#include "text/bpe.hpp"
#include "util/thread_pool.hpp"

namespace wc = wisdom::core;
namespace wd = wisdom::data;
namespace wm = wisdom::model;
namespace ws = wisdom::serve;
namespace wt = wisdom::text;
namespace wu = wisdom::util;

namespace {

// One trained micro-model shared by the suite (training takes ~2s);
// the builder lives in test_util.hpp, shared with the other suites.
wisdom::testutil::TrainedMicroModel& fixture() {
  return wisdom::testutil::trained_tiny();
}

// Synthetic snapshot for structure-level tests: 2 layers, 8-wide rows.
// byte_size() = (2 * L*8 + 2 * L*8) * 4 + 16 * 4 = 128 * L + 64.
wm::Transformer::KvCache fake_snapshot(int length) {
  wm::Transformer::KvCache cache;
  cache.row_width = 8;
  cache.capacity = 64;
  cache.length = length;
  cache.keys.assign(2, std::vector<float>(
                           static_cast<std::size_t>(length) * 8, 1.0f));
  cache.values.assign(2, std::vector<float>(
                             static_cast<std::size_t>(length) * 8, 2.0f));
  cache.logits.assign(16, 0.25f);
  return cache;
}

std::vector<std::int32_t> seq(std::initializer_list<std::int32_t> tokens) {
  return tokens;
}

// Fields that must be identical between cached and uncached serving. The
// explicitly excluded fields are per-request bookkeeping: latency_ms,
// trace_id, server_timing_ms, and the `cached` flag itself.
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
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size()) << label;
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i) {
    EXPECT_EQ(a.diagnostics[i].rule, b.diagnostics[i].rule) << label;
    EXPECT_EQ(a.diagnostics[i].message, b.diagnostics[i].message) << label;
  }
}

// A playbook-editing session: growing shared context, varied prompts, and
// exact repeats of earlier requests (the memo's bread and butter).
std::vector<ws::SuggestionRequest> workload() {
  const char* pkgs[] = {"nginx", "redis", "git", "curl"};
  std::vector<ws::SuggestionRequest> requests;
  std::string context;
  for (const char* pkg : pkgs) {
    ws::SuggestionRequest request;
    request.context = context;
    request.prompt = std::string("Install ") + pkg;
    request.indent = 0;
    requests.push_back(request);
    context += std::string("- name: Install ") + pkg +
               "\n  ansible.builtin.apt:\n    name: " + pkg +
               "\n    state: present\n";
  }
  // Exact repeats, out of order.
  requests.push_back(requests[2]);
  requests.push_back(requests[0]);
  requests.push_back(requests[3]);
  requests.push_back(requests[1]);
  requests.push_back(requests[2]);
  return requests;
}

ws::ServiceOptions cached_options() {
  ws::ServiceOptions options;
  options.max_new_tokens = 24;
  options.prefix_cache_enabled = true;
  options.response_cache_enabled = true;
  return options;
}

}  // namespace

// --- KvCache clone ---------------------------------------------------------

TEST(KvCache, CloneCompactsAndKeepsLogitsOnlyAtFullLength) {
  wm::Transformer::KvCache cache = fake_snapshot(10);
  wm::Transformer::KvCache full = cache.clone();
  EXPECT_EQ(full.length, 10);
  EXPECT_EQ(full.keys[0].size(), 80u);  // compact: exactly length * width
  EXPECT_EQ(full.logits.size(), 16u);
  EXPECT_EQ(full.byte_size(), cache.byte_size());

  wm::Transformer::KvCache half = cache.clone(5);
  EXPECT_EQ(half.length, 5);
  EXPECT_EQ(half.keys[0].size(), 40u);
  EXPECT_TRUE(half.logits.empty()) << "partial clone must drop logits";
  EXPECT_LT(half.byte_size(), cache.byte_size());
}

// --- PrefixKvCache structure ------------------------------------------------

TEST(PrefixCache, ExactHitCarriesLogits) {
  ws::PrefixKvCache cache;
  auto tokens = seq({1, 2, 3});
  EXPECT_EQ(cache.insert(tokens, fake_snapshot(3)),
            ws::PrefixKvCache::InsertOutcome::Stored);
  auto hit = cache.lookup(tokens);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->exact);
  EXPECT_EQ(hit->reused_tokens, 3);
  EXPECT_EQ(hit->cache.length, 3);
  EXPECT_FALSE(hit->cache.logits.empty());
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.tokens_reused, 3u);
}

TEST(PrefixCache, DivergentRequestReusesSharedSpan) {
  ws::PrefixKvCache cache;
  cache.insert(seq({1, 2, 3, 4, 5}), fake_snapshot(5));

  // Diverges after 3 tokens: the snapshot's first 3 rows are reusable.
  auto hit = cache.lookup(seq({1, 2, 3, 9}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->exact);
  EXPECT_EQ(hit->reused_tokens, 3);
  EXPECT_EQ(hit->cache.length, 3);
  EXPECT_TRUE(hit->cache.logits.empty())
      << "truncated reuse must drop the stale logits";

  // A strict prefix of the cached sequence: the walk covers the whole
  // request, so one row is held back to re-decode the last prompt token.
  auto prefix_hit = cache.lookup(seq({1, 2}));
  ASSERT_TRUE(prefix_hit.has_value());
  EXPECT_EQ(prefix_hit->reused_tokens, 1);
  EXPECT_FALSE(prefix_hit->exact);

  // Longer request: the on-path snapshot covers its first 5 tokens.
  auto longer = cache.lookup(seq({1, 2, 3, 4, 5, 6, 7}));
  ASSERT_TRUE(longer.has_value());
  EXPECT_EQ(longer->reused_tokens, 5);
  EXPECT_FALSE(longer->exact);

  EXPECT_FALSE(cache.lookup(seq({9, 9, 9})).has_value());
}

// Paths share trie nodes only up to where they branch: inserting splits
// edges, and dropping entries merges the leftover pass-through nodes back.
// Lookups must see the same spans either way.
TEST(PrefixCache, EdgeSplitsAndMergesKeepLookupsExact) {
  // Entry bytes are 148 * L + 192 for L tokens (snapshot plus path
  // overhead). The three entries below take 932 + 932 + 488 = 2352;
  // beside the 8-token entry inserted later (1376) the budget keeps only
  // one of them.
  ws::PrefixCacheOptions options;
  options.byte_budget = 2400;
  ws::PrefixKvCache cache(options);
  const auto a = seq({1, 2, 3, 4, 5});
  cache.insert(a, fake_snapshot(5));
  cache.insert(seq({1, 2, 3, 7, 8}), fake_snapshot(5));  // splits after 3
  cache.insert(seq({1, 2}), fake_snapshot(2));           // splits after 2

  auto deep = cache.lookup(seq({1, 2, 3, 7, 9}));  // diverges inside {7, 8}
  ASSERT_TRUE(deep.has_value());
  EXPECT_EQ(deep->reused_tokens, 4);
  auto on_path = cache.lookup(seq({1, 2, 6}));  // {1, 2} sits on the path
  ASSERT_TRUE(on_path.has_value());
  EXPECT_EQ(on_path->reused_tokens, 2);

  // `a` becomes the most recently used; an unrelated insert then evicts
  // the other two, least recently used first, and their nodes merge.
  auto hit = cache.lookup(a);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->exact);
  cache.insert(std::vector<std::int32_t>(8, 9), fake_snapshot(8));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  auto after = cache.lookup(seq({1, 2, 3, 7}));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->reused_tokens, 3);
  auto prefix = cache.lookup(seq({1, 2}));  // ends inside the merged edge
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->reused_tokens, 1);
  EXPECT_TRUE(cache.lookup(a)->exact);
}

TEST(PrefixCache, InsertOutcomes) {
  ws::PrefixCacheOptions options;
  options.byte_budget = 4096;
  ws::PrefixKvCache cache(options);
  EXPECT_EQ(cache.insert(seq({1, 2}), fake_snapshot(2)),
            ws::PrefixKvCache::InsertOutcome::Stored);
  EXPECT_EQ(cache.insert(seq({1, 2}), fake_snapshot(2)),
            ws::PrefixKvCache::InsertOutcome::Refreshed);
  // A snapshot larger than the whole budget can never fit.
  EXPECT_EQ(cache.insert(std::vector<std::int32_t>(30, 7),
                         fake_snapshot(30)),
            ws::PrefixKvCache::InsertOutcome::Rejected);
  EXPECT_EQ(cache.insert({}, fake_snapshot(0)),
            ws::PrefixKvCache::InsertOutcome::Rejected);
  auto stats = cache.stats();
  EXPECT_EQ(stats.stored, 1u);
  EXPECT_EQ(stats.refreshed, 1u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PrefixCache, LruEvictionHonorsByteBudget) {
  // fake_snapshot(8) is 128 * 8 + 64 = 1088 bytes + ~288 path overhead:
  // budget 3000 fits two entries, never three.
  ws::PrefixCacheOptions options;
  options.byte_budget = 3000;
  ws::PrefixKvCache cache(options);
  std::vector<std::int32_t> a(8, 1), b(8, 2), c(8, 3);
  cache.insert(a, fake_snapshot(8));
  cache.insert(b, fake_snapshot(8));
  EXPECT_LE(cache.bytes_held(), options.byte_budget);
  EXPECT_EQ(cache.stats().entries, 2u);

  cache.lookup(a);  // A is now most recently used
  cache.insert(c, fake_snapshot(8));
  EXPECT_LE(cache.bytes_held(), options.byte_budget);
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_TRUE(cache.lookup(a).has_value()) << "recently used survives";
  EXPECT_FALSE(cache.lookup(b).has_value()) << "LRU entry was evicted";
  EXPECT_TRUE(cache.lookup(c).has_value());
}

TEST(PrefixCache, ClearAndCounterIdentities) {
  ws::PrefixKvCache cache;
  cache.insert(seq({1}), fake_snapshot(1));
  cache.insert(seq({1, 2}), fake_snapshot(2));
  cache.lookup(seq({1, 2}));
  cache.lookup(seq({5}));
  cache.clear();
  auto stats = cache.stats();
  EXPECT_EQ(stats.cleared, 2u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(cache.bytes_held(), 0u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_EQ(stats.entries, stats.stored - stats.evictions - stats.cleared);
  // Cleared trie state is really gone, not just uncounted.
  EXPECT_FALSE(cache.lookup(seq({1, 2})).has_value());
}

// --- ResponseCache structure ------------------------------------------------

TEST(ResponseCache, HitReplaysSanitizedResponse) {
  ws::ResponseCache cache;
  ws::ResponseCache::Key key{"ctx", "prompt", 0, 24, 0};
  ws::SuggestionResponse response;
  response.ok = true;
  response.snippet = "- name: prompt\n  ansible.builtin.apt:\n";
  response.schema_correct = true;
  response.generated_tokens = 7;
  response.latency_ms = 12.5;
  response.trace_id = "f00d";
  response.server_timing_ms["decode"] = 9.0;
  cache.insert(key, response);

  auto memo = cache.lookup(key);
  ASSERT_TRUE(memo.has_value());
  EXPECT_TRUE(memo->cached);
  EXPECT_EQ(memo->snippet, response.snippet);
  EXPECT_EQ(memo->generated_tokens, 7);
  EXPECT_EQ(memo->latency_ms, 0.0) << "per-request fields are re-stamped";
  EXPECT_TRUE(memo->trace_id.empty());
  EXPECT_TRUE(memo->server_timing_ms.empty());

  ws::ResponseCache::Key other = key;
  other.max_new_tokens = 48;
  EXPECT_FALSE(cache.lookup(other).has_value())
      << "generation options are part of the key";
}

TEST(ResponseCache, NeverMemoizesDegradedResponses) {
  ws::ResponseCache cache;
  ws::ResponseCache::Key key{"", "p", 0, 24, 0};
  ws::SuggestionResponse degraded;
  degraded.ok = true;
  degraded.degraded = true;
  degraded.snippet = "fallback";
  cache.insert(key, degraded);
  ws::SuggestionResponse failed;
  failed.ok = false;
  failed.error = ws::ServiceError::DeadlineExceeded;
  cache.insert(key, failed);
  EXPECT_EQ(cache.stats().stored, 0u);
  // lookup() above the two rejected inserts: still a miss.
  EXPECT_FALSE(cache.lookup(key).has_value());
}

TEST(ResponseCache, EntryCapEvictsLru) {
  ws::ResponseCacheOptions options;
  options.max_entries = 2;
  ws::ResponseCache cache(options);
  ws::SuggestionResponse response;
  response.ok = true;
  response.snippet = "s";
  for (int i = 0; i < 3; ++i)
    cache.insert({"", "p" + std::to_string(i), 0, 24, 0}, response);
  auto stats = cache.stats();
  EXPECT_EQ(stats.stored, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_FALSE(cache.lookup({"", "p0", 0, 24, 0}).has_value());
  EXPECT_TRUE(cache.lookup({"", "p2", 0, 24, 0}).has_value());
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
}

// --- byte-identity properties ----------------------------------------------

// The tentpole invariant: serving with both cache levels enabled produces
// byte-identical responses to serving with them disabled, at 1 and 4
// threads, over single and batched paths.
TEST(CacheIdentity, CachedServingMatchesUncachedAcrossThreads) {
  auto& f = fixture();
  auto requests = workload();
  for (int threads : {1, 4}) {
    wu::ThreadPool::set_global_threads(threads);
    ws::ServiceOptions off;
    off.max_new_tokens = 24;
    ws::InferenceService cold(f.model, f.tokenizer, off);
    ws::InferenceService warm(f.model, f.tokenizer, cached_options());

    for (std::size_t i = 0; i < requests.size(); ++i) {
      auto a = cold.suggest(requests[i]);
      auto b = warm.suggest(requests[i]);
      expect_same_payload(a, b,
                          "suggest threads=" + std::to_string(threads) +
                              " request=" + std::to_string(i));
    }
    // The identity must hold because the caches were exercised, not
    // because they sat idle.
    EXPECT_GT(warm.prefix_cache_stats().hits, 0u);
    EXPECT_GT(warm.response_cache_stats().hits, 0u);

    // Batched path, fresh services: concurrent requests race on the
    // caches; bytes must not depend on who wins.
    ws::InferenceService cold_batch(f.model, f.tokenizer, off);
    ws::InferenceService warm_batch(f.model, f.tokenizer, cached_options());
    auto a = cold_batch.suggest_batch(requests);
    auto b = warm_batch.suggest_batch(requests);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      expect_same_payload(a[i], b[i],
                          "batch threads=" + std::to_string(threads) +
                              " request=" + std::to_string(i));
  }
  wu::ThreadPool::set_global_threads(0);
}

// Beam search under a warm cache (full and partial prefix) returns the
// same hypothesis as a cold run.
TEST(CacheIdentity, BeamSearchWarmMatchesCold) {
  auto& f = fixture();
  auto ids = f.tokenizer.encode("- name: Install nginx\n");
  wm::Transformer::BeamOptions options;
  options.beam_width = 3;
  options.max_new_tokens = 16;
  options.stop_token = wt::BpeTokenizer::kEndOfText;
  wm::Transformer::KvCache snapshot;
  options.prompt_snapshot = &snapshot;
  auto cold = f.model.generate_beam(ids, options);
  ASSERT_GT(snapshot.length, 0);

  wm::Transformer::BeamOptions warm_options = options;
  warm_options.prompt_snapshot = nullptr;
  warm_options.warm_cache = &snapshot;
  EXPECT_EQ(f.model.generate_beam(ids, warm_options), cold);

  wm::Transformer::KvCache partial = snapshot.clone(snapshot.length / 2);
  warm_options.warm_cache = &partial;
  EXPECT_EQ(f.model.generate_beam(ids, warm_options), cold);
}

// Greedy generation warmed with another prompt's shared prefix matches a
// cold run on the target prompt.
TEST(CacheIdentity, GreedyPartialPrefixWarmMatchesCold) {
  auto& f = fixture();
  // Short prompts: both must survive left-truncation whole, or the kept
  // spans start at different offsets and share nothing.
  auto ids_a = f.tokenizer.encode("- name: Install nginx\n");
  auto ids_b = f.tokenizer.encode("- name: Install redis\n");

  wm::Transformer::GenerateOptions options;
  options.max_new_tokens = 16;
  options.stop_token = wt::BpeTokenizer::kEndOfText;
  wm::Transformer::KvCache snapshot;
  wm::Transformer::GenerateOptions snap_options = options;
  snap_options.prompt_snapshot = &snapshot;
  f.model.generate(ids_a, snap_options);
  ASSERT_GT(snapshot.length, 0);

  auto cold = f.model.generate(ids_b, options);

  auto kept_a = f.model.kept_prompt(ids_a, options.max_new_tokens);
  auto kept_b = f.model.kept_prompt(ids_b, options.max_new_tokens);
  std::size_t shared = 0;
  while (shared < kept_a.size() && shared < kept_b.size() &&
         kept_a[shared] == kept_b[shared])
    ++shared;
  ASSERT_GT(shared, 0u);
  ASSERT_LT(shared, kept_b.size());

  wm::Transformer::KvCache warm = snapshot.clone(static_cast<int>(shared));
  wm::Transformer::GenerateOptions warm_options = options;
  warm_options.warm_cache = &warm;
  wm::Transformer::GenerateStatus status;
  warm_options.status = &status;
  EXPECT_EQ(f.model.generate(ids_b, warm_options), cold);
  EXPECT_EQ(status.prefill_tokens_reused, static_cast<int>(shared));
}

// Deadline-salvaged partials: with check-count deadlines budgeted so the
// cut lands on the same generated-token index, the warm run's salvaged
// (or fallback) response is byte-identical to the cold run's, and both are
// classified as degraded deadline misses — at pool widths 1 and 4.
TEST(CacheIdentity, DeadlineSalvagedPartialMatches) {
  auto& f = fixture();
  ws::ServiceOptions base;
  base.max_new_tokens = 24;

  ws::SuggestionRequest first;
  first.prompt = "Install nginx";
  ws::SuggestionRequest second;
  second.prompt = "Install redis";

  // Kept-prompt lengths and the shared token span decide the per-run
  // check budgets: cold prefill costs |kept| checks, warm prefill costs
  // |kept| - shared.
  auto encode_kept = [&](const ws::SuggestionRequest& r) {
    auto ids = f.tokenizer.encode(r.context + "- name: " + r.prompt + "\n");
    auto kept = f.model.kept_prompt(ids, base.max_new_tokens);
    return std::vector<std::int32_t>(kept.begin(), kept.end());
  };
  auto kept_first = encode_kept(first);
  auto kept_second = encode_kept(second);
  std::size_t shared = 0;
  while (shared < kept_first.size() && shared < kept_second.size() &&
         kept_first[shared] == kept_second[shared])
    ++shared;
  ASSERT_GT(shared, 0u);
  const std::int64_t cut_after = 4;  // generated tokens before the cut

  auto run = [&](bool cached) {
    ws::FaultInjector faults;
    ws::ServiceOptions options = base;
    options.faults = &faults;
    if (cached) {
      options.prefix_cache_enabled = true;  // memo off: isolate level 1
    }
    ws::InferenceService service(f.model, f.tokenizer, options);
    // Request 1 runs deadline-free and (when caching) seeds the cache.
    auto warmup = service.suggest(first);
    EXPECT_TRUE(warmup.ok);
    const std::int64_t prefill_checks =
        static_cast<std::int64_t>(kept_second.size()) -
        (cached ? static_cast<std::int64_t>(shared) : 0);
    faults.set_slow_decode_after_tokens(prefill_checks + cut_after);
    auto response = service.suggest(second);
    EXPECT_EQ(response.error, ws::ServiceError::DeadlineExceeded);
    EXPECT_TRUE(response.degraded);
    if (cached) EXPECT_GT(service.prefix_cache_stats().hits, 0u);
    return response;
  };

  for (int threads : {1, 4}) {
    wu::ThreadPool::set_global_threads(threads);
    auto cold = run(false);
    auto warm = run(true);
    expect_same_payload(cold, warm,
                        "deadline salvage threads=" + std::to_string(threads));
  }
  wu::ThreadPool::set_global_threads(0);
}

// --- service integration ----------------------------------------------------

TEST(CacheService, ExactRepeatIsServedFromMemoWithCachedFlag) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer, cached_options());
  ws::SuggestionRequest request;
  request.prompt = "Install nginx";
  auto miss = service.suggest(request);
  ASSERT_TRUE(miss.ok);
  EXPECT_FALSE(miss.cached);
  auto hit = service.suggest(request);
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.snippet, miss.snippet);
  EXPECT_EQ(service.response_cache_stats().hits, 1u);
  // The memo answered before the model ran: no new prefill, no decode.
  EXPECT_EQ(service.prefix_cache_stats().lookups, 1u);
}

TEST(CacheService, PrefixHitMarksResponseCached) {
  auto& f = fixture();
  ws::ServiceOptions options = cached_options();
  options.response_cache_enabled = false;
  ws::InferenceService service(f.model, f.tokenizer, options);
  ws::SuggestionRequest request;
  request.prompt = "Install nginx";
  auto first = service.suggest(request);
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.cached);
  auto second = service.suggest(request);
  EXPECT_TRUE(second.cached) << "prefill was served from the prefix cache";
  EXPECT_EQ(second.snippet, first.snippet);
  EXPECT_GT(service.prefix_cache_stats().tokens_reused, 0u);
}

TEST(CacheService, InvalidateCachesDropsBothLevels) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer, cached_options());
  ws::SuggestionRequest request;
  request.prompt = "Install redis";
  service.suggest(request);
  EXPECT_GT(service.prefix_cache_stats().entries, 0u);
  EXPECT_GT(service.response_cache_stats().entries, 0u);
  service.invalidate_caches();
  EXPECT_EQ(service.prefix_cache_stats().entries, 0u);
  EXPECT_EQ(service.response_cache_stats().entries, 0u);
  auto after = service.suggest(request);
  EXPECT_FALSE(after.cached) << "cleared caches cannot serve the repeat";
}

TEST(CacheService, TraceRecordsCacheStage) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer, cached_options());
  ws::SuggestionRequest request;
  request.prompt = "Install git";
  auto response = service.suggest(request);
  if (!response.server_timing_ms.empty())
    EXPECT_TRUE(response.server_timing_ms.count("cache"))
        << "cache stage missing from server timing";
}

TEST(CacheService, MetricFamiliesExposedEvenWhenDisabled) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer, {});
  std::string text = service.metrics().expose_prometheus();
  for (const char* family :
       {"wisdom_cache_prefix_hits_total", "wisdom_cache_prefix_misses_total",
        "wisdom_cache_prefix_inserts_total",
        "wisdom_cache_prefix_evictions_total", "wisdom_cache_prefix_bytes",
        "wisdom_cache_prefix_entries",
        "wisdom_cache_prefill_tokens_saved_total",
        "wisdom_cache_prefix_hit_tokens", "wisdom_cache_response_hits_total",
        "wisdom_cache_response_misses_total",
        "wisdom_cache_response_inserts_total",
        "wisdom_cache_response_evictions_total",
        "wisdom_cache_response_entries", "wisdom_serve_stage_cache_ms"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
}

TEST(CacheService, MetricsMirrorCacheActivity) {
  auto& f = fixture();
  ws::InferenceService service(f.model, f.tokenizer, cached_options());
  ws::SuggestionRequest request;
  request.prompt = "Install curl";
  service.suggest(request);
  service.suggest(request);
  std::string text = service.metrics().expose_prometheus();
  EXPECT_NE(text.find("wisdom_cache_response_hits_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wisdom_cache_prefix_inserts_total 1"),
            std::string::npos)
      << text;
}

// --- eviction stress --------------------------------------------------------

// Drives the prefix cache far past its byte budget from multiple threads.
// The budget must hold at every observation point and the monotone
// counters must reconcile exactly afterwards. Run under TSan in CI.
TEST(CacheStress, ConcurrentInsertsNeverExceedBudget) {
  ws::PrefixCacheOptions options;
  options.byte_budget = 16 * 1024;  // a handful of entries
  ws::PrefixKvCache cache(options);
  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::atomic<bool> budget_violated{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Distinct per-(thread, iteration mod 29) sequences with shared
        // short prefixes, lengths 4..11: plenty of budget pressure and
        // trie sharing.
        int length = 4 + (t + i) % 8;
        std::vector<std::int32_t> tokens;
        tokens.reserve(static_cast<std::size_t>(length));
        for (int k = 0; k < length; ++k)
          tokens.push_back((t * 1000 + (i % 29) * 31 + k) % 97);
        if (i % 3 == 0) {
          cache.lookup(tokens);
        } else {
          cache.insert(tokens, fake_snapshot(length));
        }
        if (cache.bytes_held() > options.byte_budget)
          budget_violated.store(true);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(budget_violated.load());

  auto stats = cache.stats();
  EXPECT_LE(stats.bytes, options.byte_budget);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_EQ(stats.entries, stats.stored - stats.evictions - stats.cleared);
  EXPECT_GT(stats.evictions, 0u) << "the stress never exceeded the budget";

  cache.clear();
  auto cleared = cache.stats();
  EXPECT_EQ(cleared.entries, 0u);
  EXPECT_EQ(cleared.entries,
            cleared.stored - cleared.evictions - cleared.cleared);
}
