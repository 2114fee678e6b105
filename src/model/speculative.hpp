// Speculative decoding: a small draft config proposes k tokens from its
// own KV cache, the served model verifies them in one fused
// verify_step_batch pass, and mismatch falls back to the verifier's own
// token with draft-cache truncation/resync.
//
// Verification is greedy-only: a drafted token is accepted iff it equals
// the verifier's argmax at that position, and the fused verify pass is
// bit-identical to sequential decode_step calls (row-independent kernels,
// causal attention). Every emitted token is therefore exactly the token
// sequential greedy decode would emit — speculation changes latency, never
// output — which is what lets the golden/fuzz/cache-parity harness gate
// the feature byte-for-byte.
//
// Deadline parity: sequential generate() consumes exactly one
// Deadline::expired() call per prompt token and one per committed token,
// in order. The speculative path preserves that count and order exactly
// (mismatched drafts consume no check: the verifier token's commit is
// deferred to the next round, where its check runs), so check-counted
// deadlines (util::Deadline::after_checks) cut generation at the same
// token either way. Wall-clock deadlines see slightly coarser granularity
// (checks for a fused chunk run up front).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/transformer.hpp"

namespace wisdom::model {

// Counters accumulated across generate_speculative calls (the caller
// aggregates into wisdom_spec_* metric families).
struct SpeculativeStats {
  std::int64_t proposed = 0;      // draft tokens fed to the verifier
  std::int64_t accepted = 0;      // draft tokens committed verbatim
  std::int64_t rejected = 0;      // draft tokens discarded
  std::int64_t verify_steps = 0;  // fused verify passes
  std::int64_t draft_steps = 0;   // tokens fed through the draft model
  std::int64_t committed = 0;     // tokens emitted
};

struct SpeculativeOptions {
  // Draft model (borrowed; must outlive the call). Must share the
  // verifier's vocab and have a context window at least as large.
  const Transformer* draft = nullptr;
  // Tokens drafted per verify round (>= 1).
  int k = 4;
  SpeculativeStats* stats = nullptr;  // optional accumulator
};

// Whether generate_speculative would actually speculate for this request:
// a draft is configured, decoding is greedy (temperature 0 — sampled
// decode cannot be verified bit-exactly), and the configs are compatible.
bool speculation_applicable(const Transformer& model,
                            const SpeculativeOptions& spec,
                            const Transformer::GenerateOptions& options);

// Drop-in replacement for model.generate(): same options contract
// (deadline/status/trace/warm_cache/prompt_snapshot/on_token — on_token
// still fires once per committed token, in order, so streaming only ever
// sees verified-stable tokens), byte-identical output. Falls back to
// model.generate() when speculation is not applicable. The trace records
// "prefill" plus per-round "draft" and "verify" spans instead of
// per-token "decode" spans.
std::vector<std::int32_t> generate_speculative(
    const Transformer& model, std::span<const std::int32_t> prompt,
    const Transformer::GenerateOptions& options,
    const SpeculativeOptions& spec);

}  // namespace wisdom::model
