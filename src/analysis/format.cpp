#include "analysis/format.hpp"

#include <algorithm>
#include <cstddef>

#include "analysis/rules.hpp"
#include "util/strings.hpp"

namespace wisdom::analysis {

namespace {

std::string_view severity_name(Severity severity) {
  return severity == Severity::Error ? "error" : "warning";
}

// The text of 1-based line `line` of `source` (no trailing newline).
std::string_view source_line(std::string_view source, std::size_t line) {
  std::size_t start = 0;
  for (std::size_t n = 1; n < line; ++n) {
    std::size_t next = source.find('\n', start);
    if (next == std::string_view::npos) return {};
    start = next + 1;
  }
  std::size_t end = source.find('\n', start);
  if (end == std::string_view::npos) end = source.size();
  return source.substr(start, end - start);
}

}  // namespace

std::string format_one_line(const Diagnostic& d, std::string_view file_label) {
  std::string out;
  out += file_label;
  if (d.span.valid()) {
    out += ":" + std::to_string(d.span.line) + ":" +
           std::to_string(d.span.column);
  }
  out += ": ";
  out += severity_name(d.severity);
  out += " [" + d.rule + "]: " + d.message;
  return out;
}

std::string format_text(std::string_view source, const AnalysisResult& result,
                        std::string_view file_label) {
  std::string out;
  for (const Diagnostic* d : result.sorted()) {
    out += format_one_line(*d, file_label);
    out += '\n';
    if (!d->span.valid()) continue;
    std::string_view line = source_line(source, d->span.line);
    if (line.empty() && d->span.length() == 0) continue;
    out += "    ";
    out += line;
    out += '\n';
    // Caret under the span, clamped to the excerpted line.
    std::size_t col = d->span.column > 0 ? d->span.column - 1 : 0;
    if (col > line.size()) col = line.size();
    std::size_t width = std::max<std::size_t>(d->span.length(), 1);
    width = std::min(width, line.size() - col + 1);
    width = std::max<std::size_t>(width, 1);
    out += "    ";
    out.append(col, ' ');
    out += '^';
    out.append(width - 1, '~');
    out += '\n';
  }
  std::size_t errors = result.error_count();
  std::size_t warnings = result.warning_count();
  out += std::to_string(errors) + (errors == 1 ? " error, " : " errors, ") +
         std::to_string(warnings) +
         (warnings == 1 ? " warning\n" : " warnings\n");
  return out;
}

std::string format_json(const AnalysisResult& result) {
  std::string out = "{\"ok\":";
  out += result.ok() ? "true" : "false";
  out += ",\"parsed\":";
  out += result.parsed ? "true" : "false";
  out += ",\"errors\":" + std::to_string(result.error_count());
  out += ",\"warnings\":" + std::to_string(result.warning_count());
  out += ",\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic* d : result.sorted()) {
    if (!first) out += ',';
    first = false;
    out += "{\"rule\":";
    out += '\"' + util::json_escape(d->rule) + '\"';
    out += ",\"severity\":";
    out += '\"' + util::json_escape(severity_name(d->severity)) + '\"';
    out += ",\"message\":";
    out += '\"' + util::json_escape(d->message) + '\"';
    out += ",\"line\":" + std::to_string(d->span.line);
    out += ",\"column\":" + std::to_string(d->span.column);
    out += ",\"begin\":" + std::to_string(d->span.begin);
    out += ",\"end\":" + std::to_string(d->span.end);
    out += ",\"fixable\":";
    out += d->fixable() ? "true" : "false";
    out += '}';
  }
  out += "]}";
  return out;
}

std::string format_sarif(const std::vector<SarifArtifact>& artifacts) {
  const auto rules = all_rules();
  std::string out;
  out +=
      "{\"$schema\":"
      "\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"wisdom_lint\",\"informationUri\":"
      "\"https://github.com/ansible/ansible-wisdom\",\"rules\":[";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (i != 0) out += ',';
    const RuleInfo& rule = rules[i];
    out += "{\"id\":";
    out += '\"' + util::json_escape(rule.id) + '\"';
    out += ",\"shortDescription\":{\"text\":";
    out += '\"' + util::json_escape(rule.summary) + '\"';
    out += "},\"defaultConfiguration\":{\"level\":";
    out += '\"' + util::json_escape(severity_name(rule.default_severity)) + '\"';
    out += "},\"properties\":{\"fixable\":";
    out += rule.fixable ? "true" : "false";
    out += ",\"semantic\":";
    out += rule.semantic ? "true" : "false";
    out += "}}";
  }
  out += "]}},\"results\":[";
  bool first = true;
  for (const SarifArtifact& artifact : artifacts) {
    if (artifact.result == nullptr) continue;
    for (const Diagnostic* d : artifact.result->sorted()) {
      if (!first) out += ',';
      first = false;
      out += "{\"ruleId\":";
      out += '\"' + util::json_escape(d->rule) + '\"';
      // ruleIndex ties the result to the driver.rules entry; -1 (omitted)
      // would be legal but viewers use the index for severity metadata.
      for (std::size_t i = 0; i < rules.size(); ++i) {
        if (rules[i].id == d->rule) {
          out += ",\"ruleIndex\":" + std::to_string(i);
          break;
        }
      }
      out += ",\"level\":";
      out += '\"' + util::json_escape(severity_name(d->severity)) + '\"';
      out += ",\"message\":{\"text\":";
      out += '\"' + util::json_escape(d->message) + '\"';
      out += "},\"locations\":[{\"physicalLocation\":{"
             "\"artifactLocation\":{\"uri\":";
      out += '\"' + util::json_escape(artifact.uri) + '\"';
      out += '}';
      if (d->span.valid()) {
        out += ",\"region\":{\"startLine\":" + std::to_string(d->span.line) +
               ",\"startColumn\":" + std::to_string(d->span.column) + '}';
      }
      out += "}}]}";
    }
  }
  out += "]}]}";
  return out;
}

}  // namespace wisdom::analysis
