// JSON wire format for the inference service, mirroring the paper's
// REST interface ("we expose a GRPC and REST API based interface to model
// predictions so that inference can be called out using GRPC and REST
// clients"). A deliberately small JSON subset — objects and arrays
// (nested to a small fixed depth), strings, numbers, booleans — is all
// the two message types need; no third-party dependency.
//
// The parsers are hardened against hostile input: payloads above
// kMaxWireBytes are refused before parsing, numbers must be finite (no
// NaN/inf smuggling into latency or indent fields), indent must be a
// non-negative integer, counts must be non-negative, and truncated escape
// sequences fail cleanly rather than reading out of bounds.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "serve/service.hpp"

namespace wisdom::serve {

// Upper bound on an accepted JSON payload (request or response). Editor
// buffers are capped far below this; anything larger is hostile or a bug.
inline constexpr std::size_t kMaxWireBytes = 1 << 20;  // 1 MiB

// Largest accepted "indent" value; deeper nesting than this is not a
// plausible editor state.
inline constexpr int kMaxWireIndent = 4096;

// {"context": "...", "prompt": "...", "indent": 4, "deadline_ms": 50.0,
//  "trace_id": "f00d..."}
// (deadline_ms optional, 0 = service default; trace_id optional, empty =
// the service derives a deterministic one)
std::string to_json(const SuggestionRequest& request);
std::optional<SuggestionRequest> request_from_json(std::string_view json);

// {"ok": true, "snippet": "...", "schema_correct": true,
//  "latency_ms": 12.5, "generated_tokens": 40,
//  "degraded": false, "repaired": false, "error": "none",
//  "cached": true,
//  ("cached" is emitted only when the response was served from a cache)
//  "diagnostics": [{"rule": "fqcn", "severity": "warning",
//                   "message": "...", "line": 2, "column": 5,
//                   "begin": 14, "end": 17, "fixable": true}, ...],
//  "trace_id": "f00d...",
//  "server_timing_ms": {"decode": 9.1, "tokenize": 0.2, ...}}
// (diagnostics, trace_id and server_timing_ms are optional and omitted
// when empty; a diagnostic's fix edits do not cross the wire, so the
// "fixable" flag is informational for JSON consumers)
std::string to_json(const SuggestionResponse& response);
std::optional<SuggestionResponse> response_from_json(std::string_view json);

}  // namespace wisdom::serve
