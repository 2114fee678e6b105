#include <gtest/gtest.h>

#include "serve/wire.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ws = wisdom::serve;

TEST(Wire, RequestRoundTrip) {
  ws::SuggestionRequest request;
  request.context = "- hosts: web\n  tasks:\n";
  request.prompt = "Install nginx";
  request.indent = 4;
  auto back = ws::request_from_json(ws::to_json(request));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->context, request.context);
  EXPECT_EQ(back->prompt, request.prompt);
  EXPECT_EQ(back->indent, request.indent);
}

TEST(Wire, ResponseRoundTrip) {
  ws::SuggestionResponse response;
  response.ok = true;
  response.snippet = "- name: X\n  ansible.builtin.apt:\n    name: nginx\n";
  response.schema_correct = true;
  response.latency_ms = 12.5;
  response.generated_tokens = 40;
  auto back = ws::response_from_json(ws::to_json(response));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ok, response.ok);
  EXPECT_EQ(back->snippet, response.snippet);
  EXPECT_TRUE(back->schema_correct);
  EXPECT_NEAR(back->latency_ms, 12.5, 1e-6);
  EXPECT_EQ(back->generated_tokens, 40);
}

TEST(Wire, EscapingSpecialCharacters) {
  EXPECT_EQ(wisdom::util::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(wisdom::util::json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(wisdom::util::json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(wisdom::util::json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(wisdom::util::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Wire, RoundTripWithControlCharacters) {
  ws::SuggestionRequest request;
  request.prompt = "with \"quotes\" and\nnewlines\tand tabs \\ slashes";
  // Every byte below 0x20, most of which json_escape writes as \u00XX.
  for (char c = 0; c < 0x20; ++c) request.prompt += c;
  auto back = ws::request_from_json(ws::to_json(request));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->prompt, request.prompt);
}

// Every JSON string escape decodes: a \uXXXX escape to UTF-8, a surrogate
// pair to one 4-byte sequence, \b and \f to their bytes. A client whose
// encoder escapes non-ASCII (Python's json.dumps does by default) then
// sends the same prompt bytes as one that writes raw UTF-8.
TEST(Wire, DecodesJsonStringEscapes) {
  const struct {
    const char* json;
    const char* prompt;
  } cases[] = {
      {R"({"prompt": "caf\u00e9"})", "caf\xc3\xa9"},
      {"{\"prompt\": \"caf\xc3\xa9\"}", "caf\xc3\xa9"},
      {R"({"prompt": "\u65e5"})", "\xe6\x97\xa5"},
      {R"({"prompt": "\ud83d\ude80"})", "\xf0\x9f\x9a\x80"},
      {R"({"prompt": "a\bb"})", "a\bb"},
      {R"({"prompt": "a\fb"})", "a\fb"},
  };
  for (const auto& c : cases) {
    auto request = ws::request_from_json(c.json);
    EXPECT_TRUE(request.has_value()) << c.json;
    if (request) EXPECT_EQ(request->prompt, c.prompt) << c.json;
  }
}

TEST(Wire, ParsesHandWrittenJson) {
  auto request = ws::request_from_json(
      R"({"prompt": "Start nginx", "indent": 2, "context": ""})");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->prompt, "Start nginx");
  EXPECT_EQ(request->indent, 2);
}

TEST(Wire, OptionalFieldsDefault) {
  auto request = ws::request_from_json(R"({"prompt": "x"})");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->context, "");
  EXPECT_EQ(request->indent, 0);
}

TEST(Wire, RejectsMalformedJson) {
  EXPECT_FALSE(ws::request_from_json("").has_value());
  EXPECT_FALSE(ws::request_from_json("not json").has_value());
  EXPECT_FALSE(ws::request_from_json("{\"prompt\": }").has_value());
  EXPECT_FALSE(ws::request_from_json("{\"prompt\": \"x\"").has_value());
  EXPECT_FALSE(ws::request_from_json("{\"prompt\": \"x\"} extra").has_value());
  EXPECT_FALSE(ws::request_from_json("{\"prompt\": 42}").has_value());
  EXPECT_FALSE(ws::request_from_json("{}").has_value());  // prompt required
  EXPECT_FALSE(
      ws::request_from_json("{\"prompt\": \"x\", \"indent\": \"four\"}")
          .has_value());
  // A lone surrogate escape is no code point.
  for (const char* json :
       {R"({"prompt": "\ud83d"})", R"({"prompt": "\ude80"})",
        R"({"prompt": "\ud83dx"})", R"({"prompt": "\ud83d\u0041"})",
        R"({"prompt": "\ud83d\ud83d"})", R"({"prompt": "\ude80\ud83d"})"})
    EXPECT_FALSE(ws::request_from_json(json).has_value()) << json;
}

TEST(Wire, RejectsMalformedResponse) {
  EXPECT_FALSE(ws::response_from_json("{\"ok\": \"yes\"}").has_value());
  EXPECT_FALSE(ws::response_from_json("{\"snippet\": \"x\"}").has_value());
}

TEST(Wire, FuzzNoiseNeverCrashes) {
  wisdom::util::Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    std::string noise;
    std::size_t len = rng.uniform(60);
    for (std::size_t j = 0; j < len; ++j) {
      // Bias toward JSON punctuation to reach deeper parser states.
      const char* pool = "{}[]\",:0123456789.eE+-truefalsn \\\"\n";
      noise += pool[rng.uniform(34)];
    }
    ws::request_from_json(noise);   // must not crash
    ws::response_from_json(noise);  // must not crash
  }
  SUCCEED();
}

TEST(Wire, TraceIdRoundTrips) {
  ws::SuggestionRequest request;
  request.prompt = "Install nginx";
  request.trace_id = "editor-4217";
  auto parsed = ws::request_from_json(ws::to_json(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, "editor-4217");

  // Empty trace_id is omitted from the wire entirely.
  request.trace_id.clear();
  EXPECT_EQ(ws::to_json(request).find("trace_id"), std::string::npos);
}

TEST(Wire, ServerTimingRoundTripsSortedAndExact) {
  ws::SuggestionResponse response;
  response.ok = true;
  response.snippet = "- name: x\n";
  response.trace_id = "00ff00ff00ff00ff";
  response.server_timing_ms = {
      {"decode", 9.125}, {"prefill", 1.5}, {"tokenize", 0.25}};
  std::string json = ws::to_json(response);
  // std::map ordering makes the nested object deterministic.
  EXPECT_NE(json.find("\"server_timing_ms\": {\"decode\": 9.125, "
                      "\"prefill\": 1.500, \"tokenize\": 0.250}"),
            std::string::npos)
      << json;
  auto parsed = ws::response_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, "00ff00ff00ff00ff");
  ASSERT_EQ(parsed->server_timing_ms.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed->server_timing_ms.at("decode"), 9.125);
  EXPECT_DOUBLE_EQ(parsed->server_timing_ms.at("prefill"), 1.5);
  EXPECT_DOUBLE_EQ(parsed->server_timing_ms.at("tokenize"), 0.25);

  // Empty map: field omitted.
  response.server_timing_ms.clear();
  EXPECT_EQ(ws::to_json(response).find("server_timing_ms"),
            std::string::npos);
}

TEST(Wire, UnknownNestedObjectFieldsAreTolerated) {
  // Forward compatibility: a newer server may attach object-valued fields
  // this client does not know; they parse and are ignored.
  auto request = ws::request_from_json(
      R"({"prompt": "x", "future": {"a": 1, "b": {"c": "deep"}}})");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->prompt, "x");

  auto response = ws::response_from_json(
      R"({"ok": true, "snippet": "s", "ext": {"nested": {"k": true}}})");
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->ok);
}

TEST(Wire, RejectsHostileNesting) {
  // Unknown stage names are fine but values must be non-negative numbers.
  EXPECT_FALSE(ws::response_from_json(
                   R"({"ok": true, "snippet": "s",)"
                   R"( "server_timing_ms": {"decode": "fast"}})")
                   .has_value());
  EXPECT_FALSE(ws::response_from_json(
                   R"({"ok": true, "snippet": "s",)"
                   R"( "server_timing_ms": {"decode": -1}})")
                   .has_value());
  EXPECT_FALSE(ws::response_from_json(
                   R"({"ok": true, "snippet": "s", "server_timing_ms": 3})")
                   .has_value());
  // Nesting depth is bounded: 16 open braces overflows the cap of 8.
  std::string deep = R"({"prompt": "x", "a": )";
  for (int i = 0; i < 15; ++i) deep += "{\"a\": ";
  deep += "1";
  for (int i = 0; i < 15; ++i) deep += "}";
  deep += "}";
  EXPECT_FALSE(ws::request_from_json(deep).has_value());
  // ...while depth within the cap parses.
  EXPECT_TRUE(
      ws::request_from_json(R"({"prompt": "x", "a": {"b": {"c": 1}}})")
          .has_value());
}

// --- diagnostics / repaired fields --------------------------------------------

TEST(Wire, DiagnosticsRoundTrip) {
  ws::SuggestionResponse response;
  response.ok = true;
  response.snippet = "- name: X\n  apt:\n    name: nginx\n";
  response.repaired = true;
  wisdom::analysis::Diagnostic d;
  d.rule = "fqcn";
  d.message = "module 'apt' should use its FQCN 'ansible.builtin.apt'";
  d.severity = wisdom::analysis::Severity::Warning;
  d.span = {16, 19, 2, 3};
  response.diagnostics.push_back(d);
  wisdom::analysis::Diagnostic e;
  e.rule = "duplicate-key";
  e.message = "mapping repeats key \"name\"";
  e.severity = wisdom::analysis::Severity::Error;
  e.span = {30, 34, 3, 5};
  response.diagnostics.push_back(e);

  std::string json = ws::to_json(response);
  EXPECT_NE(json.find("\"repaired\": true"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostics\": ["), std::string::npos);
  auto back = ws::response_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->repaired);
  ASSERT_EQ(back->diagnostics.size(), 2u);
  EXPECT_EQ(back->diagnostics[0].rule, "fqcn");
  EXPECT_EQ(back->diagnostics[0].message, d.message);
  EXPECT_EQ(back->diagnostics[0].severity, wisdom::analysis::Severity::Warning);
  EXPECT_EQ(back->diagnostics[0].span.begin, 16u);
  EXPECT_EQ(back->diagnostics[0].span.end, 19u);
  EXPECT_EQ(back->diagnostics[0].span.line, 2u);
  EXPECT_EQ(back->diagnostics[0].span.column, 3u);
  EXPECT_EQ(back->diagnostics[1].rule, "duplicate-key");
  EXPECT_EQ(back->diagnostics[1].severity, wisdom::analysis::Severity::Error);
}

TEST(Wire, EmptyDiagnosticsOmitted) {
  ws::SuggestionResponse response;
  response.ok = true;
  response.snippet = "x";
  std::string json = ws::to_json(response);
  EXPECT_EQ(json.find("\"diagnostics\""), std::string::npos);
  auto back = ws::response_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->diagnostics.empty());
  EXPECT_FALSE(back->repaired);
}

TEST(Wire, RejectsMalformedDiagnostics) {
  // Not an array.
  EXPECT_FALSE(ws::response_from_json(
      R"({"ok": true, "snippet": "s", "diagnostics": {}})"));
  // Element not an object.
  EXPECT_FALSE(ws::response_from_json(
      R"({"ok": true, "snippet": "s", "diagnostics": [3]})"));
  // Missing required fields.
  EXPECT_FALSE(ws::response_from_json(
      R"({"ok": true, "snippet": "s", "diagnostics": [{"rule": "x"}]})"));
  // Unknown severity.
  EXPECT_FALSE(ws::response_from_json(
      R"({"ok": true, "snippet": "s", "diagnostics":)"
      R"( [{"rule": "x", "severity": "fatal", "message": "m"}]})"));
  // Negative span field.
  EXPECT_FALSE(ws::response_from_json(
      R"({"ok": true, "snippet": "s", "diagnostics":)"
      R"( [{"rule": "x", "severity": "error", "message": "m", "line": -1}]})"));
  // Unterminated array.
  EXPECT_FALSE(ws::response_from_json(
      R"({"ok": true, "snippet": "s", "diagnostics": [})"));
  // lint-rejected error name round-trips.
  ws::ServiceError error;
  ASSERT_TRUE(ws::service_error_from_name("lint-rejected", &error));
  EXPECT_EQ(error, ws::ServiceError::LintRejected);
}
