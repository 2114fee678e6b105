#include "serve/wire.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "util/strings.hpp"

namespace wisdom::serve {

using util::json_escape;

namespace {

// A tiny JSON value model: only what the two messages need. Nested
// objects (server_timing_ms, per-diagnostic objects, tolerated unknown
// fields) are stored as a member list behind a shared_ptr — std::vector
// accepts the incomplete JsonValue element type, and the pointer keeps
// the variant copyable. Arrays (the diagnostics list) follow the same
// pattern.
struct JsonValue;
using JsonMembers = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonMembers>, std::shared_ptr<JsonArray>>
      value = nullptr;

  bool is_bool() const { return std::holds_alternative<bool>(value); }
  bool is_number() const { return std::holds_alternative<double>(value); }
  bool is_string() const {
    return std::holds_alternative<std::string>(value);
  }
  bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonMembers>>(value);
  }
  bool is_array() const {
    return std::holds_alternative<std::shared_ptr<JsonArray>>(value);
  }
};

using JsonObject = std::map<std::string, JsonValue>;

// Deeper nesting than this in either message is hostile input, not a
// plausible client; keeps the recursive-descent stack bounded.
constexpr int kMaxJsonDepth = 8;

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonObject> parse_object() {
    skip_ws();
    auto members = parse_members(/*depth=*/1);
    if (!members) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    JsonObject obj;
    for (auto& [key, value] : *members) obj[key] = std::move(value);
    return obj;
  }

 private:
  // Parses one {...} object (the opening brace not yet consumed) into its
  // member list, recursing through parse_value for nested objects.
  std::optional<JsonMembers> parse_members(int depth) {
    if (depth > kMaxJsonDepth) return std::nullopt;
    if (!eat('{')) return std::nullopt;
    JsonMembers members;
    skip_ws();
    if (eat('}')) return members;
    for (;;) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!eat(':')) return std::nullopt;
      auto value = parse_value(depth);
      if (!value) return std::nullopt;
      members.emplace_back(std::move(*key), std::move(*value));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return members;
      return std::nullopt;
    }
  }

  // Parses one [...] array (the opening bracket not yet consumed); shares
  // the object nesting budget so depth stays bounded either way.
  std::optional<JsonArray> parse_elements(int depth) {
    if (depth > kMaxJsonDepth) return std::nullopt;
    if (!eat('[')) return std::nullopt;
    JsonArray elements;
    skip_ws();
    if (eat(']')) return elements;
    for (;;) {
      auto value = parse_value(depth);
      if (!value) return std::nullopt;
      elements.push_back(std::move(*value));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return elements;
      return std::nullopt;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool match(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<JsonValue> parse_value(int depth) {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    char c = text_[pos_];
    JsonValue out;
    if (c == '{') {
      auto members = parse_members(depth + 1);
      if (!members) return std::nullopt;
      out.value = std::make_shared<JsonMembers>(std::move(*members));
      return out;
    }
    if (c == '[') {
      auto elements = parse_elements(depth + 1);
      if (!elements) return std::nullopt;
      out.value = std::make_shared<JsonArray>(std::move(*elements));
      return out;
    }
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      out.value = std::move(*s);
      return out;
    }
    if (match("true")) {
      out.value = true;
      return out;
    }
    if (match("false")) {
      out.value = false;
      return out;
    }
    if (match("null")) return out;
    // number
    std::size_t start = pos_;
    if (c == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    double number = 0.0;
    auto [ptr, ec] = std::from_chars(text_.data() + start,
                                     text_.data() + pos_, number);
    if (ec != std::errc() || ptr != text_.data() + pos_ || pos_ == start)
      return std::nullopt;
    // from_chars accepts "inf"/"nan" spellings and huge exponents can
    // overflow to infinity; neither is a valid wire value.
    if (!std::isfinite(number)) return std::nullopt;
    out.value = number;
    return out;
  }

  std::optional<std::string> parse_string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            unsigned code = 0;
            auto [p, ec] = std::from_chars(text_.data() + pos_,
                                           text_.data() + pos_ + 4, code, 16);
            if (ec != std::errc() || p != text_.data() + pos_ + 4)
              return std::nullopt;
            pos_ += 4;
            // Only Latin-1 escapes are produced by util::json_escape.
            if (code > 0xFF) return std::nullopt;
            out += static_cast<char>(code);
            break;
          }
          default:
            return std::nullopt;
        }
        continue;
      }
      out += c;
    }
    return std::nullopt;  // unterminated
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

const JsonValue* find(const JsonObject& obj, const std::string& key) {
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

// Linear find in a nested object's member list (diagnostic objects have a
// handful of fields; no map needed).
const JsonValue* find_member(const JsonMembers& members,
                             std::string_view key) {
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

// A number that is a whole value in [0, max]; rejects 4.5, -1, 1e12.
bool as_bounded_int(const JsonValue& value, int max, int* out) {
  if (!value.is_number()) return false;
  double d = std::get<double>(value.value);
  if (!(d >= 0.0) || d > static_cast<double>(max)) return false;
  if (d != std::floor(d)) return false;
  *out = static_cast<int>(d);
  return true;
}

}  // namespace

std::string to_json(const SuggestionRequest& request) {
  std::string out = "{";
  out += "\"context\": \"" + json_escape(request.context) + "\", ";
  out += "\"prompt\": \"" + json_escape(request.prompt) + "\", ";
  out += "\"indent\": " + std::to_string(request.indent);
  if (request.deadline_ms > 0.0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", request.deadline_ms);
    out += std::string(", \"deadline_ms\": ") + buf;
  }
  if (!request.trace_id.empty()) {
    out += ", \"trace_id\": \"" + json_escape(request.trace_id) + "\"";
  }
  out += "}";
  return out;
}

std::optional<SuggestionRequest> request_from_json(std::string_view json) {
  if (json.size() > kMaxWireBytes) return std::nullopt;
  auto obj = JsonParser(json).parse_object();
  if (!obj) return std::nullopt;
  SuggestionRequest request;
  const JsonValue* prompt = find(*obj, "prompt");
  if (!prompt || !prompt->is_string()) return std::nullopt;
  request.prompt = std::get<std::string>(prompt->value);
  if (const JsonValue* context = find(*obj, "context")) {
    if (!context->is_string()) return std::nullopt;
    request.context = std::get<std::string>(context->value);
  }
  if (const JsonValue* indent = find(*obj, "indent")) {
    if (!as_bounded_int(*indent, kMaxWireIndent, &request.indent))
      return std::nullopt;
  }
  if (const JsonValue* deadline = find(*obj, "deadline_ms")) {
    if (!deadline->is_number()) return std::nullopt;
    double ms = std::get<double>(deadline->value);
    if (ms < 0.0) return std::nullopt;
    request.deadline_ms = ms;
  }
  if (const JsonValue* trace_id = find(*obj, "trace_id")) {
    if (!trace_id->is_string()) return std::nullopt;
    request.trace_id = std::get<std::string>(trace_id->value);
  }
  return request;
}

std::string to_json(const SuggestionResponse& response) {
  std::string out = "{";
  out += std::string("\"ok\": ") + (response.ok ? "true" : "false") + ", ";
  out += "\"snippet\": \"" + json_escape(response.snippet) + "\", ";
  out += std::string("\"schema_correct\": ") +
         (response.schema_correct ? "true" : "false") + ", ";
  char latency[48];
  std::snprintf(latency, sizeof(latency), "%.3f", response.latency_ms);
  out += std::string("\"latency_ms\": ") + latency + ", ";
  out += "\"generated_tokens\": " + std::to_string(response.generated_tokens) +
         ", ";
  out += std::string("\"degraded\": ") +
         (response.degraded ? "true" : "false") + ", ";
  out += std::string("\"repaired\": ") +
         (response.repaired ? "true" : "false") + ", ";
  out += "\"error\": \"" + std::string(service_error_name(response.error)) +
         "\"";
  // Emitted only when set, so pre-cache clients' goldens are unchanged.
  if (response.cached) out += ", \"cached\": true";
  if (!response.diagnostics.empty()) {
    out += ", \"diagnostics\": [";
    bool first = true;
    for (const auto& d : response.diagnostics) {
      if (!first) out += ", ";
      first = false;
      out += "{\"rule\": \"" + json_escape(d.rule) + "\", ";
      out += std::string("\"severity\": \"") +
             (d.severity == analysis::Severity::Error ? "error" : "warning") +
             "\", ";
      out += "\"message\": \"" + json_escape(d.message) + "\", ";
      out += "\"line\": " + std::to_string(d.span.line) + ", ";
      out += "\"column\": " + std::to_string(d.span.column) + ", ";
      out += "\"begin\": " + std::to_string(d.span.begin) + ", ";
      out += "\"end\": " + std::to_string(d.span.end) + ", ";
      out += std::string("\"fixable\": ") + (d.fixable() ? "true" : "false") +
             "}";
    }
    out += "]";
  }
  if (!response.trace_id.empty()) {
    out += ", \"trace_id\": \"" + json_escape(response.trace_id) + "\"";
  }
  if (!response.server_timing_ms.empty()) {
    // std::map iterates sorted by stage name: deterministic output.
    out += ", \"server_timing_ms\": {";
    bool first = true;
    for (const auto& [stage, ms] : response.server_timing_ms) {
      if (!first) out += ", ";
      first = false;
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.3f", ms);
      out += "\"" + json_escape(stage) + "\": " + buf;
    }
    out += "}";
  }
  out += "}";
  return out;
}

std::optional<SuggestionResponse> response_from_json(std::string_view json) {
  if (json.size() > kMaxWireBytes) return std::nullopt;
  auto obj = JsonParser(json).parse_object();
  if (!obj) return std::nullopt;
  SuggestionResponse response;
  const JsonValue* ok = find(*obj, "ok");
  const JsonValue* snippet = find(*obj, "snippet");
  if (!ok || !ok->is_bool() || !snippet || !snippet->is_string())
    return std::nullopt;
  response.ok = std::get<bool>(ok->value);
  response.snippet = std::get<std::string>(snippet->value);
  if (const JsonValue* sc = find(*obj, "schema_correct")) {
    if (!sc->is_bool()) return std::nullopt;
    response.schema_correct = std::get<bool>(sc->value);
  }
  if (const JsonValue* lat = find(*obj, "latency_ms")) {
    if (!lat->is_number()) return std::nullopt;
    double ms = std::get<double>(lat->value);
    if (ms < 0.0) return std::nullopt;
    response.latency_ms = ms;
  }
  if (const JsonValue* toks = find(*obj, "generated_tokens")) {
    if (!as_bounded_int(*toks, 1 << 24, &response.generated_tokens))
      return std::nullopt;
  }
  if (const JsonValue* degraded = find(*obj, "degraded")) {
    if (!degraded->is_bool()) return std::nullopt;
    response.degraded = std::get<bool>(degraded->value);
  }
  if (const JsonValue* repaired = find(*obj, "repaired")) {
    if (!repaired->is_bool()) return std::nullopt;
    response.repaired = std::get<bool>(repaired->value);
  }
  if (const JsonValue* cached = find(*obj, "cached")) {
    if (!cached->is_bool()) return std::nullopt;
    response.cached = std::get<bool>(cached->value);
  }
  if (const JsonValue* diags = find(*obj, "diagnostics")) {
    if (!diags->is_array()) return std::nullopt;
    for (const JsonValue& item :
         *std::get<std::shared_ptr<JsonArray>>(diags->value)) {
      if (!item.is_object()) return std::nullopt;
      const JsonMembers& members =
          *std::get<std::shared_ptr<JsonMembers>>(item.value);
      analysis::Diagnostic d;
      const JsonValue* rule = find_member(members, "rule");
      const JsonValue* severity = find_member(members, "severity");
      const JsonValue* message = find_member(members, "message");
      if (!rule || !rule->is_string() || !severity || !severity->is_string() ||
          !message || !message->is_string())
        return std::nullopt;
      d.rule = std::get<std::string>(rule->value);
      d.message = std::get<std::string>(message->value);
      const std::string& sev = std::get<std::string>(severity->value);
      if (sev == "error") d.severity = analysis::Severity::Error;
      else if (sev == "warning") d.severity = analysis::Severity::Warning;
      else return std::nullopt;
      // Span fields are whole non-negative numbers; absent fields leave
      // the span unlocated. The edits themselves do not cross the wire —
      // "fixable" is informational for JSON consumers and is only
      // type-checked here (fixable() on a parsed diagnostic is false).
      struct SpanField { const char* key; std::size_t* slot; };
      for (SpanField f : {SpanField{"line", &d.span.line},
                          SpanField{"column", &d.span.column},
                          SpanField{"begin", &d.span.begin},
                          SpanField{"end", &d.span.end}}) {
        if (const JsonValue* v = find_member(members, f.key)) {
          int n = 0;
          if (!as_bounded_int(*v, 1 << 24, &n)) return std::nullopt;
          *f.slot = static_cast<std::size_t>(n);
        }
      }
      if (const JsonValue* fixable = find_member(members, "fixable")) {
        if (!fixable->is_bool()) return std::nullopt;
      }
      response.diagnostics.push_back(std::move(d));
    }
  }
  if (const JsonValue* error = find(*obj, "error")) {
    if (!error->is_string() ||
        !service_error_from_name(std::get<std::string>(error->value),
                                 &response.error))
      return std::nullopt;
  }
  if (const JsonValue* trace_id = find(*obj, "trace_id")) {
    if (!trace_id->is_string()) return std::nullopt;
    response.trace_id = std::get<std::string>(trace_id->value);
  }
  if (const JsonValue* timing = find(*obj, "server_timing_ms")) {
    if (!timing->is_object()) return std::nullopt;
    // Stage names are open-ended (new stages must not break old clients),
    // but every value must be a non-negative duration.
    for (const auto& [stage, value] :
         *std::get<std::shared_ptr<JsonMembers>>(timing->value)) {
      if (!value.is_number()) return std::nullopt;
      double ms = std::get<double>(value.value);
      if (ms < 0.0) return std::nullopt;
      response.server_timing_ms[stage] = ms;
    }
  }
  return response;
}

}  // namespace wisdom::serve
