// The versioned API surface shared by every transport that exposes the
// inference service (today: the in-process API and the /v1 HTTP front end
// in src/net/). One table maps the typed ServiceError taxonomy to HTTP
// statuses so the single-shot and streaming endpoints — and any future
// transport — cannot drift apart:
//
//   InvalidRequest   -> 400  (bad wire payload / empty prompt / bad indent)
//   DeadlineExceeded -> 408  (decode cut off by the request deadline)
//   LintRejected     -> 422  (snippet refused by the reject-degraded gate)
//   Overloaded       -> 429  (shed by the bounded admission queue)
//   Draining         -> 503  (the service is draining or stopped)
//
// A response with ok=true maps to 200 regardless of its error field: a
// degraded response (salvaged or fallback-served after a deadline miss,
// degrade-newest shedding) is still a served suggestion — the JSON body
// carries `degraded` and `error` so clients can tell. Only refusals
// (ok=false) surface the table above as the status.
#pragma once

#include <cstdint>
#include <string_view>

#include "serve/types.hpp"

namespace wisdom::serve {

// Version tag of the wire API a transport exposes. V1 is today's JSON
// schema (serve/wire.hpp) under the /v1 path prefix; unversioned paths do
// not exist — a request that names no known version is a 404.
enum class ApiVersion : std::uint8_t { V1 = 1 };

// The path prefix a version mounts under ("/v1").
std::string_view api_version_prefix(ApiVersion version);

// The single ServiceError -> HTTP status table (the list above). None
// maps to 200.
int http_status(ServiceError error);

// Status for a full response: 200 when ok (served, possibly degraded),
// http_status(error) otherwise.
int http_status(const SuggestionResponse& response);

// Canonical reason phrase for the statuses this API emits; "Unknown" for
// anything else.
std::string_view http_status_reason(int status);

}  // namespace wisdom::serve
