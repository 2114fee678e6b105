#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <span>

#include "analysis/rules.hpp"
#include "core/postprocess.hpp"
#include "metrics/schema_correct.hpp"
#include "obs/obs.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace wisdom::serve {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::string_view service_error_name(ServiceError error) {
  switch (error) {
    case ServiceError::None: return "none";
    case ServiceError::InvalidRequest: return "invalid-request";
    case ServiceError::Overloaded: return "overloaded";
    case ServiceError::DeadlineExceeded: return "deadline-exceeded";
    case ServiceError::LintRejected: return "lint-rejected";
    case ServiceError::Draining: return "draining";
  }
  return "none";
}

bool service_error_from_name(std::string_view name, ServiceError* out) {
  for (ServiceError e :
       {ServiceError::None, ServiceError::InvalidRequest,
        ServiceError::Overloaded, ServiceError::DeadlineExceeded,
        ServiceError::LintRejected, ServiceError::Draining}) {
    if (service_error_name(e) == name) {
      *out = e;
      return true;
    }
  }
  return false;
}

InferenceService::InferenceService(const model::Transformer& model,
                                   const text::BpeTokenizer& tokenizer,
                                   ServiceOptions options)
    : model_(model),
      tokenizer_(tokenizer),
      options_(options),
      queue_(options.queue_capacity) {
  h_.offered = &registry_.counter("wisdom_serve_offered_total",
                                  "Every arrival, admitted or shed.");
  h_.requests = &registry_.counter(
      "wisdom_serve_requests_total",
      "Responses produced (admitted + degraded-shed).");
  h_.shed = &registry_.counter(
      "wisdom_serve_shed_total",
      "Arrivals refused admission by the bounded queue.");
  h_.degraded = &registry_.counter("wisdom_serve_degraded_total",
                                   "Responses served by the fallback path.");
  h_.deadline_expired =
      &registry_.counter("wisdom_serve_deadline_expired_total",
                         "Requests whose decode hit its deadline.");
  h_.accepted = &registry_.counter("wisdom_serve_accepted_total",
                                   "Suggestions the user accepted (tab).");
  h_.rejected = &registry_.counter("wisdom_serve_rejected_total",
                                   "Suggestions the user rejected (escape).");
  h_.generated_tokens = &registry_.counter(
      "wisdom_serve_generated_tokens_total", "Tokens decoded for responses.");
  h_.fallback_served = &registry_.counter(
      "wisdom_serve_fallback_total",
      "Responses filled in by the deterministic fallback suggester.");
  h_.wall_ms = &registry_.gauge(
      "wisdom_serve_wall_ms",
      "Service-side wall time; a batch contributes its elapsed time once.");
  h_.inflight = &registry_.gauge("wisdom_serve_inflight",
                                 "Admitted requests currently in flight.");
  h_.request_ms = &registry_.histogram("wisdom_serve_request_ms", {},
                                       "End-to-end per-request latency.");
  h_.stage_admission = &registry_.histogram(
      "wisdom_serve_stage_admission_ms", {}, "Admission-gate stage time.");
  h_.stage_tokenize = &registry_.histogram("wisdom_serve_stage_tokenize_ms",
                                           {}, "Prompt encoding stage time.");
  h_.stage_generate = &registry_.histogram(
      "wisdom_serve_stage_generate_ms", {},
      "Model generate() stage time (prefill + decode).");
  h_.stage_prefill = &registry_.histogram("wisdom_serve_stage_prefill_ms",
                                          {}, "Prompt-ingestion stage time.");
  h_.stage_decode = &registry_.histogram("wisdom_serve_stage_decode_ms", {},
                                         "Per-token decode span time.");
  h_.stage_postprocess = &registry_.histogram(
      "wisdom_serve_stage_postprocess_ms", {},
      "Detokenize/trim/truncate stage time.");
  h_.stage_fallback = &registry_.histogram(
      "wisdom_serve_stage_fallback_ms", {}, "Fallback-suggester stage time.");
  h_.stage_lint = &registry_.histogram(
      "wisdom_serve_stage_lint_ms", {}, "Lint-gate (analyze/repair) stage time.");
  h_.lint_diagnostics = &registry_.counter(
      "wisdom_lint_diagnostics_total",
      "Diagnostics the lint gate attached to served snippets.");
  h_.lint_errors = &registry_.counter(
      "wisdom_lint_errors_total", "Error-severity lint diagnostics served.");
  h_.lint_warnings = &registry_.counter(
      "wisdom_lint_warnings_total",
      "Warning-severity lint diagnostics served.");
  h_.lint_repaired = &registry_.counter(
      "wisdom_lint_repaired_total",
      "Snippets the lint gate's auto-fix engine changed.");
  h_.lint_rejected = &registry_.counter(
      "wisdom_lint_rejected_total",
      "Snippets refused under the reject-degraded lint policy.");
  // One counter per registry rule so the full family is visible (at 0)
  // from the first scrape.
  for (const analysis::RuleInfo& rule : analysis::all_rules()) {
    std::string name = "wisdom_lint_rule_";
    for (char c : rule.id) name += c == '-' ? '_' : c;
    name += "_total";
    h_.lint_rules.emplace(
        std::string(rule.id),
        &registry_.counter(name, "Lint diagnostics for one rule."));
  }
  h_.stage_cache = &registry_.histogram(
      "wisdom_serve_stage_cache_ms", {},
      "Cache stage time (memo + prefix lookups, snapshot inserts).");
  // wisdom_cache_* families: registered even when both caches are
  // disabled, so the exposition (and the CI smoke grep) always sees them.
  h_.cache_prefix_hits = &registry_.counter(
      "wisdom_cache_prefix_hits_total",
      "Prefix-cache lookups that found a reusable KV snapshot.");
  h_.cache_prefix_misses = &registry_.counter(
      "wisdom_cache_prefix_misses_total",
      "Prefix-cache lookups with no shared-prefix snapshot.");
  h_.cache_prefix_inserts = &registry_.counter(
      "wisdom_cache_prefix_inserts_total",
      "KV snapshots stored in the prefix cache.");
  h_.cache_prefix_evictions = &registry_.counter(
      "wisdom_cache_prefix_evictions_total",
      "Prefix-cache entries evicted to honor the byte budget.");
  h_.cache_prefill_tokens_saved = &registry_.counter(
      "wisdom_cache_prefill_tokens_saved_total",
      "Prompt tokens whose prefill was served from cached KV rows.");
  h_.cache_prefix_bytes = &registry_.gauge(
      "wisdom_cache_prefix_bytes",
      "Bytes currently held by prefix-cache snapshots.");
  h_.cache_prefix_entries = &registry_.gauge(
      "wisdom_cache_prefix_entries",
      "Snapshots currently held by the prefix cache.");
  h_.cache_prefix_hit_tokens = &registry_.histogram(
      "wisdom_cache_prefix_hit_tokens", {},
      "Reused-prefix length (tokens) per prefix-cache hit.");
  h_.cache_response_hits = &registry_.counter(
      "wisdom_cache_response_hits_total",
      "Response-memo lookups that replayed a full prior response.");
  h_.cache_response_misses = &registry_.counter(
      "wisdom_cache_response_misses_total",
      "Response-memo lookups with no exact-repeat entry.");
  h_.cache_response_inserts = &registry_.counter(
      "wisdom_cache_response_inserts_total",
      "Responses memoized for exact-repeat replay.");
  h_.cache_response_evictions = &registry_.counter(
      "wisdom_cache_response_evictions_total",
      "Memo entries evicted past the entry cap.");
  h_.cache_response_entries = &registry_.gauge(
      "wisdom_cache_response_entries",
      "Responses currently memoized.");
  // Lifecycle families. Registered unconditionally (like every family
  // above) so the exposition and the CI smoke grep see them at 0 whatever
  // the configuration.
  h_.drain_state = &registry_.gauge(
      "wisdom_drain_state",
      "Service lifecycle: 0 accepting, 1 draining, 2 stopped.");
  h_.drain_rejected = &registry_.counter(
      "wisdom_drain_rejected_total",
      "Arrivals refused because the service was draining or stopped.");
  h_.drain_completed = &registry_.counter(
      "wisdom_drain_completed_total",
      "Completed drains (in-flight ran dry after begin_drain).");

  if (options_.prefix_cache_enabled) {
    PrefixCacheOptions cache_options;
    cache_options.byte_budget = options_.prefix_cache_bytes;
    prefix_cache_ = std::make_unique<PrefixKvCache>(cache_options);
    PrefixKvCache::MetricHooks hooks;
    hooks.hits = h_.cache_prefix_hits;
    hooks.misses = h_.cache_prefix_misses;
    hooks.stored = h_.cache_prefix_inserts;
    hooks.evictions = h_.cache_prefix_evictions;
    hooks.tokens_reused = h_.cache_prefill_tokens_saved;
    hooks.bytes = h_.cache_prefix_bytes;
    hooks.entries = h_.cache_prefix_entries;
    hooks.hit_tokens = h_.cache_prefix_hit_tokens;
    prefix_cache_->bind_metrics(hooks);
  }
  if (options_.response_cache_enabled) {
    ResponseCacheOptions cache_options;
    cache_options.max_entries = options_.response_cache_entries;
    response_cache_ = std::make_unique<ResponseCache>(cache_options);
    ResponseCache::MetricHooks hooks;
    hooks.hits = h_.cache_response_hits;
    hooks.misses = h_.cache_response_misses;
    hooks.stored = h_.cache_response_inserts;
    hooks.evictions = h_.cache_response_evictions;
    hooks.entries = h_.cache_response_entries;
    response_cache_->bind_metrics(hooks);
  }
}

ResponseCache::Key InferenceService::memo_key(
    const SuggestionRequest& request) const {
  ResponseCache::Key key;
  key.context = request.context;
  key.prompt = request.prompt;
  key.indent = request.indent;
  key.max_new_tokens = options_.max_new_tokens;
  key.lint_policy = static_cast<int>(options_.lint_policy);
  return key;
}

bool InferenceService::try_admit() {
  if (options_.faults && options_.faults->queue_full_forced()) return false;
  return queue_.try_acquire();
}

util::Deadline InferenceService::request_deadline(
    const SuggestionRequest& request) const {
  util::Deadline deadline;
  if (options_.faults && options_.faults->slow_decode_active()) {
    deadline = options_.faults->slow_decode_deadline();
  } else {
    double ms =
        request.deadline_ms > 0.0 ? request.deadline_ms : options_.deadline_ms;
    if (ms > 0.0) deadline = util::Deadline::after_ms(ms);
  }
  deadline.set_token(request.cancel);
  return deadline;
}

void InferenceService::apply_fallback(const SuggestionRequest& request,
                                      obs::TraceContext& trace,
                                      SuggestionResponse* response) const {
  auto fallback_span = trace.span("fallback");
  h_.fallback_served->inc();
  std::string pad(static_cast<std::size_t>(request.indent), ' ');
  std::string name_line = pad + "- name: " + request.prompt + "\n";
  response->snippet =
      name_line + fallback_.suggest_body(request.prompt, request.indent);
  response->ok = true;
  response->degraded = true;
  response->schema_correct = metrics::schema_correct(response->snippet);
}

void InferenceService::record_lint(const LintOutcome& outcome) const {
  if (!outcome.analyzed) return;
  h_.lint_diagnostics->inc(outcome.diagnostics.size());
  for (const analysis::Diagnostic& d : outcome.diagnostics) {
    (d.severity == analysis::Severity::Error ? h_.lint_errors
                                             : h_.lint_warnings)
        ->inc();
    auto it = h_.lint_rules.find(d.rule);
    if (it != h_.lint_rules.end()) it->second->inc();
  }
  if (outcome.repaired) h_.lint_repaired->inc();
  if (outcome.rejected) h_.lint_rejected->inc();
}

LintOutcome InferenceService::run_lint_gate(std::string_view snippet,
                                            obs::TraceContext& trace) const {
  if (options_.lint_policy == LintPolicy::Off)
    return lint_gate(snippet, LintPolicy::Off);
  LintOutcome outcome;
  {
    auto lint_span = trace.span("lint");
    outcome = lint_gate(snippet, options_.lint_policy);
  }
  record_lint(outcome);
  return outcome;
}

// Streams the stable prefix of the response body as tokens decode.
//
// The postprocess pipeline (trim_generation + truncate_to_first_task)
// rewrites raw decoded bytes, so raw token text cannot be streamed
// verbatim without breaking the byte-identity invariant (concatenated
// chunks == final snippet). Instead the emitter recomputes, after every
// token, the portion of the final body that is already decided:
//   - trim_generation keeps only complete lines (up to the last '\n'),
//     and a complete line never changes as more tokens append — BPE
//     decode is byte-concatenative, so new tokens only extend the tail;
//   - truncate_to_first_task decides each complete line's fate from that
//     line's content alone and cuts at the first terminator, so over the
//     complete-lines prefix its output is monotone: each recomputation
//     extends the previous one and is a prefix of the final body.
// The delta between successive stable prefixes is emitted as a chunk.
// Since a token's bytes only extend the decoded tail, the stable prefix
// can change only on the first token (which sends the name line) and on a
// token whose bytes contain '\n'; on_token recomputes it only then.
// finish() reconciles the cases where the final snippet diverges from
// the streamed prefix (lint repair/rejection, fallback, deadline
// salvage, empty generation) with a reset chunk carrying the
// authoritative bytes.
class InferenceService::StreamEmitter {
 public:
  StreamEmitter(const TokenSink& sink, const text::BpeTokenizer& tokenizer,
                const SuggestionRequest& request)
      : sink_(sink),
        tokenizer_(tokenizer),
        indent_(static_cast<std::size_t>(std::max(request.indent, 0))) {
    std::string pad(indent_, ' ');
    name_line_ = pad + "- name: " + request.prompt + "\n";
  }

  // GenerateOptions::on_token target: runs on the decoding thread, once
  // per committed token, in order.
  void on_token(std::int32_t token) {
    const std::size_t tail = decoded_.size();
    decoded_ += tokenizer_.decode(std::span<const std::int32_t>(&token, 1));
    if (!emitted_.empty() &&
        decoded_.find('\n', tail) == std::string::npos)
      return;
    std::string body = core::trim_generation(decoded_);
    body = core::truncate_to_first_task(body, indent_);
    std::string stable = name_line_ + body;
    if (stable.size() > emitted_.size() &&
        stable.compare(0, emitted_.size(), emitted_) == 0) {
      sink_(std::string_view(stable).substr(emitted_.size()),
            /*reset=*/false);
      emitted_ = std::move(stable);
    }
  }

  // Settles the stream against the final response: afterwards the bytes
  // delivered through the sink equal `final_snippet` exactly. Appends the
  // missing suffix when the stream is a prefix of the final bytes (the
  // common case — also how memo hits and shed/fallback responses that
  // never decoded a token stream their one chunk); emits a reset chunk
  // when postprocess rewrote already-streamed bytes.
  void finish(const std::string& final_snippet) {
    if (final_snippet.size() >= emitted_.size() &&
        final_snippet.compare(0, emitted_.size(), emitted_) == 0) {
      if (final_snippet.size() > emitted_.size())
        sink_(std::string_view(final_snippet).substr(emitted_.size()),
              /*reset=*/false);
    } else {
      sink_(final_snippet, /*reset=*/true);
    }
    emitted_ = final_snippet;
  }

 private:
  const TokenSink& sink_;
  const text::BpeTokenizer& tokenizer_;
  std::size_t indent_;
  std::string name_line_;
  std::string decoded_;  // every committed token's bytes, in order
  std::string emitted_;
};

SuggestionResponse InferenceService::run_one(
    const SuggestionRequest& request, obs::TraceContext& trace,
    StreamEmitter* emitter) const {
  auto start = std::chrono::steady_clock::now();
  SuggestionResponse response;
  if (request.prompt.empty() || request.indent < 0) {
    response.error = ServiceError::InvalidRequest;
    response.latency_ms = elapsed_ms(start);
    return response;
  }

  std::string pad(static_cast<std::size_t>(request.indent), ' ');
  std::string name_line = pad + "- name: " + request.prompt + "\n";

  // Level 2 first: an exact repeat replays the full prior response before
  // the model (or the fault injector — a memo hit never touches either) is
  // consulted. Only non-degraded successes are ever memoized, so the
  // replayed bytes equal what a fresh decode would produce.
  if (response_cache_) {
    auto cache_span = trace.span("cache");
    if (auto memo = response_cache_->lookup(memo_key(request))) {
      response = std::move(*memo);
      response.latency_ms = elapsed_ms(start);
      return response;
    }
  }

  std::vector<std::int32_t> ids;
  {
    auto tokenize_span = trace.span("tokenize");
    std::string input_text = request.context + name_line;
    ids = tokenizer_.encode(input_text);
  }
  model::Transformer::GenerateStatus status;
  model::Transformer::GenerateOptions gen;
  gen.max_new_tokens = options_.max_new_tokens;
  gen.stop_token = text::BpeTokenizer::kEndOfText;
  gen.deadline = request_deadline(request);
  gen.trace = &trace;
  gen.status = &status;
  if (emitter)
    gen.on_token = [emitter](std::int32_t token) { emitter->on_token(token); };

  // Level 1: warm-start generation from the deepest cached KV snapshot
  // sharing a token prefix with this prompt, and capture a snapshot of the
  // full prefilled prompt for future requests. Keyed on the kept prompt —
  // exactly the tokens generate() feeds the model after left-truncation.
  std::span<const std::int32_t> kept;
  model::Transformer::KvCache warm, snapshot;
  if (prefix_cache_) {
    auto cache_span = trace.span("cache");
    kept = model_.kept_prompt(ids, gen.max_new_tokens);
    if (auto hit = prefix_cache_->lookup(kept)) {
      warm = std::move(hit->cache);
      gen.warm_cache = &warm;
      response.cached = true;
    }
    gen.prompt_snapshot = &snapshot;
  }

  std::vector<std::int32_t> out;
  {
    auto generate_span = trace.span("generate");
    out = model_.generate(ids, gen);
  }

  // Store the prefilled prompt whenever prefill completed — KV rows are
  // valid even when the decode after them degraded (deadline salvage,
  // empty generation): prefill is a pure function of the prompt tokens.
  if (prefix_cache_ && snapshot.length == static_cast<int>(kept.size()) &&
      snapshot.length > 0) {
    auto cache_span = trace.span("cache");
    prefix_cache_->insert(kept, std::move(snapshot));
  }

  std::string body;
  {
    auto postprocess_span = trace.span("postprocess");
    body = core::trim_generation(tokenizer_.decode(out));
    body = core::truncate_to_first_task(
        body, static_cast<std::size_t>(request.indent));
  }
  response.generated_tokens = static_cast<int>(out.size());

  if (status.deadline_expired) {
    response.error = ServiceError::DeadlineExceeded;
    // Salvage the partial decode when it forms a valid task — the lint
    // gate gets first crack, so under a repairing policy a partial that is
    // one auto-fix away from valid is repaired and salvaged rather than
    // thrown away. Otherwise answer from the deterministic fallback.
    // Either way the editor gets a schema-checked snippet in budget.
    LintOutcome gate;
    bool salvaged = false;
    if (!body.empty()) {
      gate = run_lint_gate(name_line + body, trace);
      salvaged = gate.schema_correct && !gate.rejected;
    }
    if (salvaged) {
      response.ok = true;
      response.degraded = true;
      response.snippet = std::move(gate.snippet);
      response.schema_correct = true;
      response.repaired = gate.repaired;
      response.diagnostics = std::move(gate.diagnostics);
    } else if (options_.fallback_enabled) {
      apply_fallback(request, trace, &response);
    }
  } else {
    response.ok = !body.empty();
    response.snippet = name_line + body;
    if (!response.ok && options_.lint_policy == LintPolicy::RejectDegraded) {
      // An empty generation cannot pass the gate either: reject it the
      // same way, so every response under this policy is a schema-correct
      // snippet (or an explicit refusal when the fallback is off).
      response.error = ServiceError::LintRejected;
      response.snippet.clear();
      h_.lint_rejected->inc();
      if (options_.fallback_enabled) apply_fallback(request, trace, &response);
    } else if (response.ok) {
      LintOutcome gate = run_lint_gate(response.snippet, trace);
      response.schema_correct = gate.schema_correct;
      if (gate.rejected) {
        // RejectDegraded: never serve a snippet still carrying errors.
        // The rejected snippet's diagnostics stay on the response so the
        // client can see why its model suggestion was refused.
        response.error = ServiceError::LintRejected;
        response.diagnostics = std::move(gate.diagnostics);
        response.ok = false;
        response.snippet.clear();
        if (options_.fallback_enabled) apply_fallback(request, trace, &response);
      } else {
        response.snippet = std::move(gate.snippet);
        response.repaired = gate.repaired;
        response.diagnostics = std::move(gate.diagnostics);
      }
    }
  }
  // Memoize only full-fidelity successes; degraded and failed responses
  // depend on deadlines and fault state, not just the request key.
  if (response_cache_ && response.ok && !response.degraded &&
      response.error == ServiceError::None) {
    auto cache_span = trace.span("cache");
    response_cache_->insert(memo_key(request), response);
  }
  response.latency_ms = elapsed_ms(start);
  return response;
}

SuggestionResponse InferenceService::run_shed(
    const SuggestionRequest& request, obs::TraceContext& trace) const {
  auto start = std::chrono::steady_clock::now();
  SuggestionResponse response;
  response.error = ServiceError::Overloaded;
  if (options_.shed_policy == ShedPolicy::DegradeNewest &&
      !request.prompt.empty() && request.indent >= 0) {
    apply_fallback(request, trace, &response);
  }
  response.latency_ms = elapsed_ms(start);
  return response;
}

void InferenceService::observe_stages(const obs::Trace& trace) const {
  for (const obs::Span& span : trace.spans) {
    obs::Histogram* histogram = nullptr;
    if (span.name == "admission") histogram = h_.stage_admission;
    else if (span.name == "tokenize") histogram = h_.stage_tokenize;
    else if (span.name == "generate") histogram = h_.stage_generate;
    else if (span.name == "prefill") histogram = h_.stage_prefill;
    else if (span.name == "decode") histogram = h_.stage_decode;
    else if (span.name == "postprocess") histogram = h_.stage_postprocess;
    else if (span.name == "fallback") histogram = h_.stage_fallback;
    else if (span.name == "cache") histogram = h_.stage_cache;
    if (histogram) histogram->observe(span.duration_ms);
  }
}

SuggestionResponse InferenceService::serve_traced(
    const SuggestionRequest& request, bool admitted, std::uint64_t seq,
    StreamEmitter* emitter) const {
  // Every request is traced when observability is enabled; the caller's
  // sink (if any) keeps the timeline, otherwise a local one feeds the
  // per-stage histograms and Server-Timing map and is dropped.
  obs::Trace local_trace;
  obs::Trace* sink = request.trace ? request.trace : &local_trace;
  const std::uint64_t id = obs::trace_id(seq, request.prompt);
  obs::TraceContext trace(sink, id);
  SuggestionResponse response;
  {
    auto root = trace.span("request");
    {
      // The admission decision itself ran just before the trace opened
      // (batches decide all admissions in arrival order first); the span
      // documents the stage at its true sub-microsecond cost.
      auto admission_span = trace.span("admission");
    }
    response = admitted ? run_one(request, trace, emitter)
                        : run_shed(request, trace);
  }
  if (trace.active()) {
    response.trace_id =
        request.trace_id.empty() ? obs::trace_id_hex(id) : request.trace_id;
    response.server_timing_ms = sink->stage_totals();
    observe_stages(*sink);
  }
  return response;
}

void InferenceService::record_response(const SuggestionResponse& response) {
  h_.requests->inc();
  h_.request_ms->observe(response.latency_ms);
  h_.generated_tokens->inc(
      static_cast<std::uint64_t>(response.generated_tokens));
  if (response.degraded) h_.degraded->inc();
  if (response.error == ServiceError::DeadlineExceeded)
    h_.deadline_expired->inc();
}

bool InferenceService::enter_serving() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (lifecycle_ != State::Accepting) return false;
  ++serving_calls_;
  return true;
}

void InferenceService::exit_serving() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  --serving_calls_;
  if (serving_calls_ == 0 && lifecycle_ != State::Accepting)
    lifecycle_cv_.notify_all();
}

SuggestionResponse InferenceService::drain_refusal() {
  // A typed refusal, not a degraded answer: the service is going away,
  // so handing out a fallback snippet would invite the client to keep
  // sending traffic here instead of failing over.
  SuggestionResponse response;
  response.error = ServiceError::Draining;
  h_.offered->inc();
  h_.drain_rejected->inc();
  return response;
}

InferenceService::State InferenceService::state() const {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  return lifecycle_;
}

void InferenceService::begin_drain() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (lifecycle_ != State::Accepting) return;
  lifecycle_ = State::Draining;
  h_.drain_state->set(static_cast<double>(State::Draining));
}

std::string InferenceService::drain() {
  begin_drain();
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    lifecycle_cv_.wait(lock, [&] { return serving_calls_ == 0; });
    if (lifecycle_ != State::Stopped) {
      lifecycle_ = State::Stopped;
      h_.drain_state->set(static_cast<double>(State::Stopped));
      h_.drain_completed->inc();
    }
  }
  // Final metrics flush: in-flight is zero by construction, and the
  // returned exposition is the complete last word on this service's
  // counters — scrape it once before tearing the process down.
  h_.inflight->set(0.0);
  return registry_.expose_prometheus();
}

SuggestionResponse InferenceService::suggest(const SuggestionRequest& request) {
  if (!enter_serving()) return drain_refusal();
  SuggestionResponse response = suggest_serving(request);
  exit_serving();
  return response;
}

SuggestionResponse InferenceService::suggest_stream(
    const SuggestionRequest& request, const TokenSink& sink) {
  if (!enter_serving()) return drain_refusal();
  SuggestionResponse response;
  if (sink) {
    StreamEmitter emitter(sink, tokenizer_, request);
    response = suggest_serving(request, &emitter);
    // Settle the stream before exit_serving(): a drain() waiter that sees
    // serving_calls_ hit zero must know every in-flight stream delivered
    // its final bytes.
    emitter.finish(response.snippet);
  } else {
    response = suggest_serving(request);
  }
  exit_serving();
  return response;
}

SuggestionResponse InferenceService::suggest_serving(
    const SuggestionRequest& request, StreamEmitter* emitter) {
  const std::uint64_t seq =
      trace_seq_.fetch_add(1, std::memory_order_relaxed);
  const bool admitted = try_admit();
  if (obs::enabled())
    h_.inflight->set(static_cast<double>(queue_.in_flight()));
  SuggestionResponse response = serve_traced(request, admitted, seq, emitter);
  if (admitted) queue_.release();
  if (obs::enabled())
    h_.inflight->set(static_cast<double>(queue_.in_flight()));

  h_.offered->inc();
  if (!admitted) {
    h_.shed->inc();
    // A rejected request never entered the pipeline: it contributes no
    // latency sample. A degraded-shed response is a served request.
    if (options_.shed_policy == ShedPolicy::RejectNewest) return response;
  }
  record_response(response);
  h_.wall_ms->add(response.latency_ms);
  return response;
}

std::vector<SuggestionResponse> InferenceService::suggest_batch(
    const std::vector<SuggestionRequest>& requests) {
  if (!enter_serving()) {
    std::vector<SuggestionResponse> refused(requests.size());
    for (auto& response : refused) response = drain_refusal();
    return refused;
  }
  auto start = std::chrono::steady_clock::now();
  const std::size_t n = requests.size();
  // Admission in arrival order, before the fan-out: with capacity C on an
  // otherwise idle service exactly the first C requests are admitted —
  // deterministic reject-newest. Trace ids are sequenced the same way.
  std::vector<char> admitted(n, 0);
  for (std::size_t i = 0; i < n; ++i) admitted[i] = try_admit() ? 1 : 0;
  const std::uint64_t base_seq = trace_seq_.fetch_add(
      static_cast<std::uint64_t>(n), std::memory_order_relaxed);
  if (obs::enabled())
    h_.inflight->set(static_cast<double>(queue_.in_flight()));

  std::vector<SuggestionResponse> responses(n);
  util::ThreadPool::global().parallel_for(
      0, static_cast<std::int64_t>(n),
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          std::size_t j = static_cast<std::size_t>(i);
          responses[j] = serve_traced(requests[j], admitted[j] != 0,
                                      base_seq + static_cast<std::uint64_t>(j));
        }
      });
  for (std::size_t i = 0; i < n; ++i)
    if (admitted[i]) queue_.release();
  if (obs::enabled())
    h_.inflight->set(static_cast<double>(queue_.in_flight()));
  double wall = elapsed_ms(start);

  for (std::size_t i = 0; i < n; ++i) {
    h_.offered->inc();
    if (!admitted[i]) {
      h_.shed->inc();
      if (options_.shed_policy == ShedPolicy::RejectNewest) continue;
    }
    record_response(responses[i]);
  }
  h_.wall_ms->add(wall);
  exit_serving();
  return responses;
}

PrefixCacheStats InferenceService::prefix_cache_stats() const {
  return prefix_cache_ ? prefix_cache_->stats() : PrefixCacheStats{};
}

ResponseCacheStats InferenceService::response_cache_stats() const {
  return response_cache_ ? response_cache_->stats() : ResponseCacheStats{};
}

void InferenceService::invalidate_caches() {
  if (prefix_cache_) prefix_cache_->clear();
  if (response_cache_) response_cache_->clear();
}

void InferenceService::record_accept() { h_.accepted->inc(); }

void InferenceService::record_reject() { h_.rejected->inc(); }

}  // namespace wisdom::serve
