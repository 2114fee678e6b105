// Request/response message types and the service error taxonomy, split out
// of service.hpp so lower-level serving components (the response memo
// cache, the wire format) can name them without pulling in the service.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "obs/trace.hpp"
#include "util/deadline.hpp"

namespace wisdom::serve {

// Why a request was not served normally. Overloaded is the transient
// error: it clears when the admission queue drains, so a client may retry
// it after backoff. The rest are terminal for the request that produced
// them; Draining means the service is going away, so clients fail over
// instead of retrying.
enum class ServiceError : std::uint8_t {
  None = 0,
  InvalidRequest,    // empty prompt, negative indent
  Overloaded,        // shed by the admission queue
  DeadlineExceeded,  // decode cut off by the request deadline
  LintRejected,      // RejectDegraded policy: errors survived repair
  Draining,          // refused: the service is draining or stopped
};

std::string_view service_error_name(ServiceError error);
// Parses a name produced by service_error_name; false on unknown names.
bool service_error_from_name(std::string_view name, ServiceError* out);

struct SuggestionRequest {
  // YAML already in the editor above the cursor (may be empty).
  std::string context;
  // Natural-language intent, the value of the name line being completed.
  std::string prompt;
  // Indentation column of the task item ("- name:") being completed.
  int indent = 0;
  // Per-request decode budget in milliseconds; <= 0 uses the service
  // default (ServiceOptions::deadline_ms).
  double deadline_ms = 0.0;
  // Client-supplied trace id echoed in the response; empty lets the
  // service derive a deterministic one (sequence number + prompt hash).
  std::string trace_id;
  // Optional cooperative cancellation (the user kept typing).
  util::CancelToken cancel;
  // Optional trace sink: when set (and observability is enabled) the
  // request's span timeline is written here. Borrowed; not serialized.
  obs::Trace* trace = nullptr;
};

struct SuggestionResponse {
  bool ok = false;
  // The full suggested snippet (name line + generated body), formatted for
  // pasting at the cursor.
  std::string snippet;
  // Whether the suggestion passes the strict Ansible schema.
  bool schema_correct = false;
  double latency_ms = 0.0;
  int generated_tokens = 0;
  // True when the snippet is not a full decode: a salvaged partial or a
  // fallback answer (deadline expiry, lint refusal, or DegradeNewest
  // shedding).
  bool degraded = false;
  // True when the response was served from the cache: a response-memo hit
  // (the whole prior response for an exact repeat) or a prefix-cache hit
  // (prefill skipped for the shared prompt span). Either way the bytes are
  // identical to what an uncached decode would have produced.
  bool cached = false;
  // Why the request degraded or failed; None for a normal response.
  ServiceError error = ServiceError::None;
  // Diagnostics the lint gate attached to served snippets (post-repair
  // when the policy repairs). Empty when lint_policy is Off, when the
  // snippet is clean, or for fallback-served snippets (the fallback is
  // catalog-backed and schema-correct by construction) — except under
  // RejectDegraded, where the rejected snippet's diagnostics are kept so
  // the client can see why its model suggestion was refused.
  std::vector<wisdom::analysis::Diagnostic> diagnostics;
  // True when the lint gate's auto-fix engine changed the snippet.
  bool repaired = false;
  // Trace id of this request (client-supplied or service-derived); empty
  // when tracing is disabled.
  std::string trace_id;
  // Per-stage wall time of this request ("admission", "tokenize",
  // "prefill", "decode", "postprocess", "lint", "fallback", "cache", plus
  // the "request" root). Empty when tracing is disabled.
  std::map<std::string, double> server_timing_ms;
};

}  // namespace wisdom::serve
