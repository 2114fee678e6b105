// In-process inference service modelling the paper's GRPC/REST serving path
// and VS Code plugin workflow: the editor sends the current file content
// plus the "- name: ..." prompt line the user just typed, the service
// returns a formatted suggestion, and the user accepts (tab) or rejects
// (escape). Latency statistics back the paper's model-size argument (a
// coding assistant must respond interactively, which is why Wisdom ships
// the 350M model rather than the 2.7B one).
//
// suggest_batch() serves N requests by fanning whole requests out across
// util::ThreadPool::global(): one lane per pool thread, each claiming the
// next unserved request until none is left. The batched responses are
// byte-identical to N sequential suggest() calls.
//
// The serving path is deadline-aware and failure-tolerant end to end:
//   * every request decodes under a deadline (per-request override or the
//     service default); on expiry the model's partial result is salvaged
//     when schema-correct, otherwise the deterministic FallbackSuggester
//     answers — either way the response is tagged `degraded`,
//   * a bounded AdmissionQueue in front of the pool sheds excess load
//     (ServiceError::Overloaded) instead of letting latency grow without
//     bound; ShedPolicy::DegradeNewest serves shed requests from the
//     fallback instead of refusing them,
//   * a FaultInjector (tests/benchmarks) forces the slow-decode and
//     queue-full paths deterministically.
//
// Observability: the service owns an obs::MetricsRegistry (counters,
// request-latency and per-stage histograms, exposed as Prometheus text
// via metrics()), which is its one ledger: every count the service keeps
// lives there, and nothing about a request outlives its response. Every
// request is traced: admission → cache → tokenize → generate (prefill +
// per-token decode) → postprocess → fallback spans land in the request's
// obs::Trace (attach a sink via SuggestionRequest::trace to keep it) and
// the per-stage totals come back in SuggestionResponse::server_timing_ms.
//
// Caching: two optional levels sit in front of generation (both off by
// default, preserving the exact seed behaviour).
//   * Level 1, PrefixKvCache — KV snapshots of previously prefilled
//     prompts, keyed by token prefix, so a request sharing a prompt
//     prefix with an earlier one skips prefill for the shared span.
//   * Level 2, ResponseCache — a memo of full responses for exact
//     repeats of (context, prompt, indent, generation options, lint
//     policy); degraded/fallback responses are never memoized.
// Both levels are byte-transparent: cached and uncached serving produce
// identical response bytes (KV rows are deterministic functions of the
// token sequence, and the memo only replays deterministic decodes).
// invalidate_caches() drops both levels; callers must invoke it whenever
// the model weights change under the service (checkpoint reload).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "model/transformer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/fallback.hpp"
#include "serve/fault.hpp"
#include "serve/lint_gate.hpp"
#include "serve/prefix_cache.hpp"
#include "serve/queue.hpp"
#include "serve/response_cache.hpp"
#include "serve/types.hpp"
#include "text/bpe.hpp"
#include "util/deadline.hpp"

namespace wisdom::serve {

struct ServiceOptions {
  int max_new_tokens = 56;
  // Default per-request decode budget in ms; <= 0 disables the deadline.
  double deadline_ms = 0.0;
  // Admission queue capacity; <= 0 means unbounded (never sheds).
  int queue_capacity = 0;
  ShedPolicy shed_policy = ShedPolicy::RejectNewest;
  // Serve the fallback on deadline expiry (when nothing is salvaged) and
  // for lint-refused snippets. When false such requests return ok=false
  // with the error set instead.
  bool fallback_enabled = true;
  // Borrowed fault injector; nullptr injects nothing. Must outlive the
  // service.
  FaultInjector* faults = nullptr;
  // What to do with diagnostics on generated snippets (see lint_gate.hpp).
  // Off preserves the seed behaviour exactly.
  LintPolicy lint_policy = LintPolicy::Off;
  // Level-1 prefix KV cache: reuse prefill work across requests sharing a
  // tokenized prompt prefix. Off by default (seed behaviour).
  bool prefix_cache_enabled = false;
  // Byte budget for the prefix cache (KV payload + trie overhead); LRU
  // eviction keeps the held bytes at or under this bound.
  std::size_t prefix_cache_bytes = 32ull << 20;
  // Level-2 response memo: replay the full prior response for exact
  // request repeats. Off by default.
  bool response_cache_enabled = false;
  // Entry cap for the response memo (LRU past it).
  std::size_t response_cache_entries = 256;
};

class InferenceService {
 public:
  // Borrows the model and tokenizer; both must outlive the service.
  // Default-constructed options give an unbounded, deadline-free service
  // (the old max_new_tokens-only constructor is covered by setting just
  // that field).
  InferenceService(const model::Transformer& model,
                   const text::BpeTokenizer& tokenizer,
                   ServiceOptions options = {});

  const ServiceOptions& options() const { return options_; }

  SuggestionResponse suggest(const SuggestionRequest& request);

  // --- streaming ----------------------------------------------------------
  // Incremental delivery of one suggestion, hooked into the model's
  // per-token emission points (the same points the per-token "decode"
  // trace spans mark). The sink is called on the serving thread with text
  // chunks as tokens decode:
  //   * sink(text, reset=false) — append `text` to the accumulated
  //     snippet. Only bytes that are already final are emitted this way
  //     (complete lines that postprocessing provably keeps), so chunks
  //     never have to be retracted token-by-token.
  //   * sink(text, reset=true) — discard everything accumulated and
  //     replace it with `text`. Fired at most once, at the end, when the
  //     final snippet is not an extension of what was streamed (fallback
  //     replaced the decode, the lint gate repaired it, an empty
  //     generation cleared it, ...).
  // Invariant (asserted by tests/http_test.cpp): after suggest_stream
  // returns, the accumulated bytes equal response.snippet exactly — the
  // stream is byte-identical to the single-shot response for the same
  // request.
  using TokenSink = std::function<void(std::string_view text, bool reset)>;
  SuggestionResponse suggest_stream(const SuggestionRequest& request,
                                    const TokenSink& sink);

  // Serves a batch concurrently on the global thread pool: min(pool
  // size, N) lanes, the calling thread's included, each take the next
  // unserved request index from a shared cursor until none is left, so
  // which lane serves a request depends on timing. Nothing a response
  // holds does: responses align with requests by index and match
  // sequential suggest() calls exactly (greedy decoding, shared read-only
  // model, bit-identical kernels at any thread count, trace ids sequenced
  // by index). With two or more lanes every lane runs its requests'
  // kernels inline; a one-request batch has the pool to itself, as
  // suggest() does. Called from a pool lane, the whole batch runs inline
  // on that lane. Admission is decided in arrival order before any
  // serving (reject-newest: with capacity C and an otherwise idle service,
  // the first C requests are admitted and the rest shed —
  // deterministically). The metrics count each request individually but
  // the batch's wall time once.
  std::vector<SuggestionResponse> suggest_batch(
      const std::vector<SuggestionRequest>& requests);

  // --- lifecycle (graceful drain) -----------------------------------------
  // accepting -> draining -> stopped. While accepting, everything serves
  // normally. begin_drain() stops admitting: new arrivals get a typed
  // ok=false ServiceError::Draining refusal (no fallback — clients must
  // fail over, not retry) while requests already in flight run to
  // completion or deadline. drain() blocks until the in-flight count hits
  // zero, transitions to stopped, and returns the final Prometheus
  // exposition — the metrics flush a supervisor scrapes once before
  // tearing the process down.
  enum class State : std::uint8_t { Accepting = 0, Draining = 1, Stopped = 2 };
  State state() const;
  void begin_drain();
  std::string drain();

  // The plugin's accept/reject feedback ("hit tab ... or escape").
  void record_accept();
  void record_reject();

  // The service's metrics registry: the wisdom_serve_* counters (offered,
  // requests, shed, degraded, ...), the wall-time gauge, and the request
  // and per-stage latency histograms; export with expose_prometheus().
  // Counters are not instrumentation: they count even when observability
  // is switched off. Identities that hold whenever no call is in flight:
  //   offered == requests + shed + drain_rejected   (RejectNewest)
  //   offered == requests + drain_rejected          (DegradeNewest)
  //   wisdom_serve_request_ms count == requests
  obs::MetricsRegistry& metrics() { return registry_; }
  const obs::MetricsRegistry& metrics() const { return registry_; }

  // Cache stats snapshots; all-zero when the corresponding level is
  // disabled.
  PrefixCacheStats prefix_cache_stats() const;
  ResponseCacheStats response_cache_stats() const;

  // Drops every cached KV snapshot and memoized response. MUST be called
  // whenever the model behind the service changes (checkpoint reload,
  // weight update): cache entries are keyed on token ids and model
  // outputs, both of which a reload invalidates.
  void invalidate_caches();

 private:
  // Per-service metric handles, registered once at construction; the hot
  // path updates through these pointers without touching the registry map.
  struct Handles {
    obs::Counter* offered = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* degraded = nullptr;
    obs::Counter* deadline_expired = nullptr;
    obs::Counter* accepted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* generated_tokens = nullptr;
    obs::Counter* fallback_served = nullptr;
    obs::Gauge* wall_ms = nullptr;
    obs::Gauge* inflight = nullptr;
    obs::Histogram* request_ms = nullptr;
    obs::Histogram* stage_admission = nullptr;
    obs::Histogram* stage_tokenize = nullptr;
    obs::Histogram* stage_generate = nullptr;
    obs::Histogram* stage_prefill = nullptr;
    obs::Histogram* stage_decode = nullptr;
    obs::Histogram* stage_postprocess = nullptr;
    obs::Histogram* stage_fallback = nullptr;
    obs::Histogram* stage_lint = nullptr;
    obs::Histogram* stage_cache = nullptr;
    // Cache metric families (wisdom_cache_*). Registered unconditionally
    // at construction — even with both caches disabled every family shows
    // up in the Prometheus exposition at 0, so scrape-side queries and the
    // CI smoke grep never depend on the cache configuration.
    obs::Counter* cache_prefix_hits = nullptr;
    obs::Counter* cache_prefix_misses = nullptr;
    obs::Counter* cache_prefix_inserts = nullptr;
    obs::Counter* cache_prefix_evictions = nullptr;
    obs::Counter* cache_prefill_tokens_saved = nullptr;
    obs::Gauge* cache_prefix_bytes = nullptr;
    obs::Gauge* cache_prefix_entries = nullptr;
    obs::Histogram* cache_prefix_hit_tokens = nullptr;
    obs::Counter* cache_response_hits = nullptr;
    obs::Counter* cache_response_misses = nullptr;
    obs::Counter* cache_response_inserts = nullptr;
    obs::Counter* cache_response_evictions = nullptr;
    obs::Gauge* cache_response_entries = nullptr;
    // Lint-gate counters. Pre-registered at construction (run_one is
    // const), one per registry rule, so every rule family appears in the
    // Prometheus exposition at 0 — scrape-side queries and the CI grep
    // never depend on which rules happened to fire.
    obs::Counter* lint_diagnostics = nullptr;
    obs::Counter* lint_errors = nullptr;
    obs::Counter* lint_warnings = nullptr;
    obs::Counter* lint_repaired = nullptr;
    obs::Counter* lint_rejected = nullptr;
    std::map<std::string, obs::Counter*, std::less<>> lint_rules;
    // Lifecycle families (wisdom_drain_*). Registered unconditionally so
    // they are scrapeable at 0 whatever the configuration.
    obs::Gauge* drain_state = nullptr;
    obs::Counter* drain_rejected = nullptr;
    obs::Counter* drain_completed = nullptr;
  };

  // Stable-prefix chunk emitter backing suggest_stream (defined in
  // service.cpp); run_one hooks it into GenerateOptions::on_token.
  class StreamEmitter;

  bool try_admit();
  util::Deadline request_deadline(const SuggestionRequest& request) const;
  // Serves one request, down the full pipeline when it was admitted and
  // the shed path otherwise, recording spans into the trace and
  // finalizing trace_id/server_timing_ms on the response. A non-null
  // emitter receives per-token chunks from the generate stage.
  SuggestionResponse serve_traced(const SuggestionRequest& request,
                                  bool admitted, std::uint64_t seq,
                                  StreamEmitter* emitter = nullptr) const;
  SuggestionResponse run_one(const SuggestionRequest& request,
                             obs::TraceContext& trace,
                             StreamEmitter* emitter = nullptr) const;
  // Response for a request refused admission: an Overloaded rejection or,
  // under DegradeNewest, a fallback suggestion.
  SuggestionResponse run_shed(const SuggestionRequest& request,
                              obs::TraceContext& trace) const;
  // Lifecycle gate: registers one in-flight serving call; false when the
  // service is draining or stopped (the caller must refuse the request).
  bool enter_serving();
  void exit_serving();
  // The typed refusal drained/stopped services answer with.
  SuggestionResponse drain_refusal();
  // suggest()/suggest_batch() bodies once past the lifecycle gate.
  SuggestionResponse suggest_serving(const SuggestionRequest& request,
                                     StreamEmitter* emitter = nullptr);
  // Fills `response` from the fallback suggester (degraded path).
  void apply_fallback(const SuggestionRequest& request,
                      obs::TraceContext& trace,
                      SuggestionResponse* response) const;
  // Pushes a generated snippet through the lint gate under the service's
  // policy, recording the "lint" trace span and the lint counters (both
  // skipped under Off, where the gate is just the schema check).
  LintOutcome run_lint_gate(std::string_view snippet,
                            obs::TraceContext& trace) const;
  // Counter updates for one gate outcome (per-rule, severity, repair).
  void record_lint(const LintOutcome& outcome) const;
  // Feeds the completed trace's stage totals into the per-stage
  // histograms.
  void observe_stages(const obs::Trace& trace) const;
  // Counter/histogram updates for one produced response.
  void record_response(const SuggestionResponse& response);

  // Memo key for one request under this service's configuration.
  ResponseCache::Key memo_key(const SuggestionRequest& request) const;

  const model::Transformer& model_;
  const text::BpeTokenizer& tokenizer_;
  ServiceOptions options_;
  FallbackSuggester fallback_;
  AdmissionQueue queue_;
  // Null when the corresponding ServiceOptions flag is off. Both caches
  // are internally synchronized; run_one (const) uses them from every
  // serving thread.
  std::unique_ptr<PrefixKvCache> prefix_cache_;
  std::unique_ptr<ResponseCache> response_cache_;
  // Lifecycle: state transitions and the in-flight serving count drain()
  // waits on. A plain int under the mutex (not an atomic) so the
  // condition-variable wait has no lost-wakeup window.
  mutable std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
  State lifecycle_ = State::Accepting;
  int serving_calls_ = 0;
  obs::MetricsRegistry registry_;
  Handles h_;
  std::atomic<std::uint64_t> trace_seq_{0};
};

}  // namespace wisdom::serve
