// Decoder-only transformer with hand-written backpropagation.
//
// Architecture (CodeGen-style): token embedding, N pre-LN residual blocks
// of {causal multi-head self-attention with rotary position embeddings,
// GELU MLP}, final layernorm and an untied LM head. No dropout (the tiny
// models underfit, not overfit, at this scale). Gradients accumulate
// across forward_backward calls until zero_grad(), which is what gives the
// paper's effective batch size of 32 via gradient accumulation.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "model/config.hpp"
#include "nn/adamw.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"
#include "obs/trace.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace wisdom::model {

class Transformer {
 public:
  Transformer(const ModelConfig& config, std::uint64_t seed);

  const ModelConfig& config() const { return config_; }
  std::int64_t param_count() const;

  // Changes the runtime context window. Weights are position-independent
  // (rotary embeddings), so the same checkpoint can train or decode at any
  // window size — which is how the context-window ablation (512/1024/2048
  // in Table V) reuses one pre-trained model. Rebuilds the rotary angle
  // table for the new window.
  void set_context_window(std::int32_t ctx);

  // Runs a training micro-batch: inputs x[B*T], next-token targets
  // y[B*T] (ignore_index = -1 for padding). Returns the mean loss and
  // accumulates gradients. T must be <= ctx.
  float forward_backward(std::span<const std::int32_t> x,
                         std::span<const std::int32_t> y, int batch, int t);

  // Forward-only mean loss (validation).
  float evaluate(std::span<const std::int32_t> x,
                 std::span<const std::int32_t> y, int batch, int t);

  void zero_grad();
  // Scales accumulated gradients (1/num_micro_batches), clips to
  // `clip_norm` if positive, and applies one AdamW step at `lr`.
  void optim_step(nn::AdamW& opt, float lr, float grad_scale,
                  float clip_norm = 1.0f);

  // --- greedy decoding with a KV cache ------------------------------------
  struct KvCache {
    // Per layer: rotated keys and values, [ctx x d_model] each (or fewer
    // rows for a compacted clone; decode_step grows them back on demand).
    std::vector<nn::Vec> keys;
    std::vector<nn::Vec> values;
    // Next-token logits of the last decode_step. Living in the cache (not
    // the model) keeps decoding re-entrant: batched serving runs many
    // caches against one shared model concurrently.
    nn::Vec logits;
    int length = 0;
    // Geometry stamped by make_cache(): row width (d_model) and capacity
    // (context window), so clone()/byte_size() need no model reference.
    int row_width = 0;
    int capacity = 0;

    // Deep copy truncated to the first `new_length` tokens (default: all),
    // keys/values compacted to exactly that many rows — the form the
    // prefix cache stores. The logits survive only a full-length clone
    // (they describe the last decoded position).
    KvCache clone(int new_length = -1) const;
    // Heap bytes held: keys, values and logits.
    std::size_t byte_size() const;
  };
  KvCache make_cache() const;
  // Appends `token` at the cache's current position and returns the logits
  // for the next position (valid until the next call on the same cache).
  // Cache length must be < ctx. Thread-safe across distinct caches.
  std::span<const float> decode_step(KvCache& cache, std::int32_t token) const;
  // Multi-row step: appends tokens[i] to caches[i] for every row in one
  // fused forward pass (batched layernorm/matmul rows, per-row attention
  // against each cache). Every kernel is row-independent, so each cache's
  // logits are bit-identical to a sequential decode_step(caches[i],
  // tokens[i]) — at any WISDOM_THREADS. Serving decodes one row per
  // request through decode_step; this form backs the serving benchmark's
  // per-width step trace and the batch parity tests. Caches must be
  // distinct; each length must be < ctx.
  void decode_step_batch(std::span<KvCache* const> caches,
                         std::span<const std::int32_t> tokens) const;

  // Filled by generate()/generate_beam() when a caller passes a status
  // pointer: whether decoding ran to completion or was cut short by its
  // deadline (the returned tokens are then the partial result).
  struct GenerateStatus {
    bool deadline_expired = false;
    // Tokens actually decoded (prompt prefill + generation) before the cut.
    // Prompt tokens served from a warm cache are not decoded and do not
    // count here.
    int steps_taken = 0;
    // Prompt tokens whose prefill was skipped thanks to a warm cache.
    int prefill_tokens_reused = 0;
  };

  // The prompt suffix generate()/generate_beam() would actually feed the
  // model: left-truncated so prompt + generation fits the context window,
  // reserving at most half the window for generation (none for a
  // non-positive budget), so the span never exceeds the window. Callers
  // that key a prefix cache must key on exactly this span.
  std::span<const std::int32_t> kept_prompt(
      std::span<const std::int32_t> prompt, int max_new_tokens) const;

  struct GenerateOptions {
    int max_new_tokens = 64;
    std::int32_t stop_token = -1;  // stop when emitted (not included)
    // Decoding strategy. The paper evaluates with greedy decoding and notes
    // "we would expect some improvement by using random sampling"; set
    // temperature > 0 for top-k temperature sampling.
    float temperature = 0.0f;  // 0 = greedy
    int top_k = 0;             // 0 = full distribution
    std::uint64_t sample_seed = 1;
    // Cooperative cancellation: checked once per decode step (prompt
    // ingestion included). On expiry, generation stops and the tokens
    // decoded so far are returned.
    util::Deadline deadline;
    GenerateStatus* status = nullptr;  // optional out-param
    // Optional request trace: records a "prefill" span covering prompt
    // ingestion and one "decode" span per generated token. Inert when
    // null (or when the context itself is inactive).
    obs::TraceContext* trace = nullptr;
    // Prefix-cache reuse. When non-null, decoding uses *warm_cache as its
    // working cache; it must already hold the KV rows for the first
    // warm_cache->length tokens of the kept (post-left-truncation) prompt
    // and — when it covers the whole kept prompt — the logits of the last
    // token. Prefill then resumes after the covered span. Mutated in
    // place; the reused rows produce bit-identical logits because they are
    // exactly the rows a cold prefill would have written.
    KvCache* warm_cache = nullptr;
    // When non-null, receives a compacted clone of the cache taken right
    // after prefill (the kept prompt's KV rows + last-token logits) — the
    // snapshot a prefix cache inserts. Left untouched when prefill was cut
    // short by the deadline or the kept prompt is empty.
    KvCache* prompt_snapshot = nullptr;
    // Per-token emission hook: called once per generated token, in order,
    // immediately after the token is committed to the output (and before
    // its decode_step runs) — the same point the per-token "decode" trace
    // span marks. Never called for the stop token (it is not part of the
    // output) or for prefill steps. The callback runs on the decoding
    // thread and must not re-enter the model.
    std::function<void(std::int32_t)> on_token;
  };
  // Greedy generation. The prompt is left-truncated to fit the context
  // window with room for at least one generated token — the paper: "when
  // the input is larger than the context window, it is left-truncated".
  std::vector<std::int32_t> generate(std::span<const std::int32_t> prompt,
                                     const GenerateOptions& options) const;

  // Beam-search decoding (the paper's other suggested improvement over
  // greedy). Returns the highest-scoring finished hypothesis; scores are
  // summed token log-probabilities with optional length normalization
  // (score / length^length_penalty).
  struct BeamOptions {
    int beam_width = 4;
    int max_new_tokens = 64;
    std::int32_t stop_token = -1;
    float length_penalty = 0.6f;
    // Checked once per prefill token and once per beam step; on expiry the
    // best hypothesis found so far is returned.
    util::Deadline deadline;
    GenerateStatus* status = nullptr;  // optional out-param
    // Optional request trace: "prefill" plus one "beam_step" span per
    // expansion round.
    obs::TraceContext* trace = nullptr;
    // Prefix-cache reuse and snapshot capture, with the same contract as
    // GenerateOptions. The warm cache seeds the root beam (cloned, so the
    // caller's copy is left usable) and the snapshot is taken after the
    // root prefill completes.
    const KvCache* warm_cache = nullptr;
    KvCache* prompt_snapshot = nullptr;
  };
  std::vector<std::int32_t> generate_beam(std::span<const std::int32_t> prompt,
                                          const BeamOptions& options) const;

  // All learnable parameters, in a stable order (checkpoint format).
  std::vector<nn::Param*> parameters();
  std::int32_t argmax_token(std::span<const float> logits) const;
  std::int32_t sample_token(std::span<const float> logits, float temperature,
                            int top_k, util::Rng& rng) const;
  std::vector<const nn::Param*> parameters() const;

 private:
  struct Layer {
    nn::Param ln1_g, ln1_b;
    nn::Param wqkv, bqkv;  // [d, 3d], [3d]
    nn::Param wo, bo;      // [d, d], [d]
    nn::Param ln2_g, ln2_b;
    nn::Param wfc, bfc;    // [d, ff], [ff]
    nn::Param wproj, bproj;  // [ff, d], [d]
  };

  // Per-layer activation cache for one forward/backward round.
  struct LayerActs {
    nn::Vec input;       // residual stream entering the block [R x d]
    nn::Vec ln1_out, ln1_mean, ln1_rstd;
    nn::Vec qkv;         // post-rotary [R x 3d]
    nn::Vec att_probs;   // [B x H x T x T]
    nn::Vec att_mix;     // heads-merged attention output [R x d]
    nn::Vec mid;         // residual stream after attention [R x d]
    nn::Vec ln2_out, ln2_mean, ln2_rstd;
    nn::Vec fc_pre;      // pre-GELU [R x ff]
    nn::Vec fc_act;      // post-GELU [R x ff]
  };

  float run(std::span<const std::int32_t> x, std::span<const std::int32_t> y,
            int batch, int t, bool backward);

  // The body decode_step and decode_step_batch share: appends tokens[i]
  // to caches[i]. With `logits` false it skips the final layernorm and LM
  // head and leaves each cache's logits empty; prefill steps so for every
  // kept prompt token but the last, whose logits are the only ones read.
  // A step's buffers come from per-thread scratch, so once warm it
  // allocates nothing.
  void step(std::span<KvCache* const> caches,
            std::span<const std::int32_t> tokens, bool logits) const;

  // The setup and prefill generate() and generate_beam() share: resets
  // `status`, counts the call in the wisdom_model_* families, then feeds
  // the kept prompt past the cache's warm prefix one step per token, each
  // behind one deadline check, under a "prefill" span. On
  // success cache.logits holds the next-token logits and `prompt_snapshot`
  // (when non-null) a compacted clone of the prefilled prompt. Returns
  // false when there is nothing to decode from: an empty kept prompt, or
  // a deadline that expired during prefill (status says so).
  bool prefill(std::span<const std::int32_t> kept, KvCache& cache,
               const util::Deadline& deadline, GenerateStatus& status,
               obs::TraceContext& trace, KvCache* prompt_snapshot) const;

  ModelConfig config_;
  nn::RotaryTable rotary_;  // rotary angles for positions [0, ctx)
  nn::Param wte_;
  std::vector<Layer> layers_;
  nn::Param lnf_g_, lnf_b_;
  nn::Param head_;  // [d, vocab]

  // Workspaces reused across calls.
  std::vector<LayerActs> acts_;
  nn::Vec final_in_, final_out_, final_mean_, final_rstd_;
  nn::Vec logits_, dlogits_;
};

}  // namespace wisdom::model
