#include "model/speculative.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"

namespace wisdom::model {
namespace {

using KvCache = Transformer::KvCache;
using SpanFeed = Transformer::SpanFeed;

// Rows per fused feed — bounds the forward-pass workspace, not semantics.
constexpr int kFeedChunk = 32;

// Feeds `tokens` into `cache` in fused chunks, running sequential
// generate()'s per-token deadline checks (one expired() per token, same
// order) up front for each chunk. Returns the number of tokens fed; on
// expiry the tokens whose checks passed are still fed, matching the state
// a sequential prefill leaves behind.
int checked_feed(const Transformer& model, KvCache& cache,
                 std::span<const std::int32_t> tokens,
                 const util::Deadline& deadline, bool* expired) {
  int fed = 0;
  const int total = static_cast<int>(tokens.size());
  while (fed < total && !*expired) {
    const int chunk = std::min(kFeedChunk, total - fed);
    int ok = 0;
    for (; ok < chunk; ++ok) {
      if (deadline.expired()) {
        *expired = true;
        break;
      }
    }
    if (ok > 0) {
      const SpanFeed feed{&cache, tokens.subspan(static_cast<std::size_t>(fed),
                                                 static_cast<std::size_t>(ok))};
      model.verify_step_batch(std::span<const SpanFeed>(&feed, 1));
      fed += ok;
    }
  }
  return fed;
}

// Unchecked fused feed (draft catch-up — draft work consumes no deadline
// checks, or check-count parity with sequential decode would break).
void plain_feed(const Transformer& model, KvCache& cache,
                std::span<const std::int32_t> tokens) {
  int fed = 0;
  const int total = static_cast<int>(tokens.size());
  while (fed < total) {
    const int chunk = std::min(kFeedChunk, total - fed);
    const SpanFeed feed{&cache, tokens.subspan(static_cast<std::size_t>(fed),
                                               static_cast<std::size_t>(chunk))};
    model.verify_step_batch(std::span<const SpanFeed>(&feed, 1));
    fed += chunk;
  }
}

}  // namespace

bool speculation_applicable(const Transformer& model,
                            const SpeculativeOptions& spec,
                            const Transformer::GenerateOptions& options) {
  return spec.draft != nullptr && spec.k > 0 &&
         options.temperature <= 0.0f &&
         spec.draft->config().vocab == model.config().vocab &&
         spec.draft->config().ctx >= model.config().ctx;
}

std::vector<std::int32_t> generate_speculative(
    const Transformer& model, std::span<const std::int32_t> prompt,
    const Transformer::GenerateOptions& options,
    const SpeculativeOptions& spec) {
  if (!speculation_applicable(model, spec, options))
    return model.generate(prompt, options);

  const Transformer& draft_model = *spec.draft;
  const int ctx = model.config().ctx;
  const int vocab = model.config().vocab;
  const int max_new = options.max_new_tokens;
  const int k = spec.k;
  std::span<const std::int32_t> kept = model.kept_prompt(prompt, max_new);

  Transformer::GenerateStatus local_status;
  Transformer::GenerateStatus& status =
      options.status ? *options.status : local_status;
  status = Transformer::GenerateStatus{};

  obs::TraceContext inert_trace;
  obs::TraceContext& trace = options.trace ? *options.trace : inert_trace;

  // Working cache: same warm-start contract as generate().
  KvCache local_cache;
  KvCache* cache_ptr = options.warm_cache;
  if (cache_ptr) {
    assert(cache_ptr->length <= static_cast<int>(kept.size()));
    assert(cache_ptr->length < static_cast<int>(kept.size()) ||
           !cache_ptr->logits.empty());
  } else {
    local_cache = model.make_cache();
    cache_ptr = &local_cache;
  }
  KvCache& cache = *cache_ptr;
  const int skip = cache.length;
  status.prefill_tokens_reused = skip;

  std::vector<std::int32_t> out;
  {
    auto prefill_span = trace.span("prefill");
    bool expired = false;
    const int fed = checked_feed(
        model, cache, kept.subspan(static_cast<std::size_t>(skip)),
        options.deadline, &expired);
    status.steps_taken += fed;
    if (expired) {
      status.deadline_expired = true;
      return out;  // nothing decoded yet: empty partial result
    }
  }
  if (kept.empty()) return out;
  if (options.prompt_snapshot)
    *options.prompt_snapshot = cache.clone(static_cast<int>(kept.size()));

  // Draft cache holds a fed prefix of the committed sequence kept ++ out.
  KvCache draft_cache = draft_model.make_cache();
  int draft_fed = 0;  // committed tokens currently fed into draft_cache

  std::vector<std::int32_t> candidates, pending;
  std::vector<float> row_logits;
  bool finished = false;

  while (!finished && static_cast<int>(out.size()) < max_new &&
         cache.length < ctx) {
    if (options.deadline.expired()) {
      status.deadline_expired = true;
      break;
    }
    // The round's anchor token: the verifier's own next token, committed
    // exactly as sequential decode would (argmax -> stop check -> emit).
    const std::int32_t c0 = model.argmax_token(cache.logits);
    if (c0 == options.stop_token) break;
    out.push_back(c0);
    if (options.on_token) options.on_token(c0);

    // --- draft: catch up on committed tokens, then guess up to k more.
    candidates.clear();
    candidates.push_back(c0);
    int guess_fed = 0;
    {
      auto draft_span = trace.span("draft");
      const int target = static_cast<int>(kept.size() + out.size());
      pending.clear();
      for (int i = draft_fed; i < target; ++i)
        pending.push_back(i < static_cast<int>(kept.size())
                              ? kept[static_cast<std::size_t>(i)]
                              : out[static_cast<std::size_t>(i) -
                                    kept.size()]);
      plain_feed(draft_model, draft_cache, pending);
      draft_fed = target;
      if (spec.stats)
        spec.stats->draft_steps += static_cast<std::int64_t>(pending.size());
      for (int j = 1; j <= k; ++j) {
        const std::int32_t g = draft_model.argmax_token(draft_cache.logits);
        candidates.push_back(g);
        if (g == options.stop_token) break;
        if (draft_cache.length >= draft_model.config().ctx) break;
        if (j < k) {
          draft_model.decode_step(draft_cache, g);
          ++guess_fed;
          if (spec.stats) ++spec.stats->draft_steps;
        }
      }
    }

    // --- verify: one fused pass over c0 + the drafted chain, clamped so
    // every fed row is a row sequential decode would also have fed.
    {
      auto verify_span = trace.span("verify");
      const int L0 = cache.length;
      const int feed_n =
          std::min({static_cast<int>(candidates.size()),
                    1 + (max_new - static_cast<int>(out.size())), ctx - L0});
      const SpanFeed feed{
          &cache, std::span<const std::int32_t>(
                      candidates.data(), static_cast<std::size_t>(feed_n))};
      model.verify_step_batch(std::span<const SpanFeed>(&feed, 1),
                              &row_logits);
      if (spec.stats) {
        ++spec.stats->verify_steps;
        spec.stats->proposed += feed_n - 1;
      }
      int accepted_round = 0;
      int kept_rows = feed_n;
      for (int j = 1; j < feed_n; ++j) {
        // Logits after feeding candidates[0..j-1]: sequential's state when
        // it would pick token number j of this round.
        std::span<const float> row(
            row_logits.data() + static_cast<std::size_t>(j - 1) * vocab,
            static_cast<std::size_t>(vocab));
        const std::int32_t true_t = model.argmax_token(row);
        if (true_t != candidates[static_cast<std::size_t>(j)]) {
          // Verifier disagrees: drop the speculated suffix and restore the
          // pre-divergence logits. true_t's commit is deferred to the next
          // round, where the restored logits re-derive it — so its
          // deadline check runs there, and this row consumes none.
          cache.truncate(L0 + j);
          cache.logits.assign(row.begin(), row.end());
          kept_rows = j;
          break;
        }
        if (options.deadline.expired()) {
          status.deadline_expired = true;
          cache.truncate(L0 + j);
          cache.logits.assign(row.begin(), row.end());
          kept_rows = j;
          finished = true;
          break;
        }
        if (true_t == options.stop_token) {
          cache.truncate(L0 + j);
          cache.logits.assign(row.begin(), row.end());
          kept_rows = j;
          finished = true;
          break;
        }
        out.push_back(true_t);
        if (options.on_token) options.on_token(true_t);
        ++accepted_round;
      }
      status.steps_taken += kept_rows;
      if (spec.stats) {
        spec.stats->accepted += accepted_round;
        spec.stats->rejected += (feed_n - 1) - accepted_round;
      }
      // Resync the draft to the committed prefix: accepted guesses stay
      // fed, everything past them is forgotten (truncate drops the draft
      // logits; the next catch-up feed regenerates them).
      const int draft_keep = draft_fed + std::min(guess_fed, accepted_round);
      draft_cache.truncate(draft_keep);
      draft_fed = draft_keep;
    }
  }
  if (spec.stats)
    spec.stats->committed += static_cast<std::int64_t>(out.size());
  return out;
}

}  // namespace wisdom::model
