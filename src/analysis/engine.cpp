#include "analysis/engine.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "analysis/dataflow.hpp"
#include "analysis/ir.hpp"
#include "analysis/taint.hpp"
#include "analysis/typecheck.hpp"
#include "ansible/catalog.hpp"
#include "ansible/freeform.hpp"
#include "ansible/jinja.hpp"
#include "ansible/model.hpp"
#include "util/strings.hpp"
#include "yaml/emit.hpp"
#include "yaml/parse.hpp"

namespace wisdom::analysis {

namespace util = wisdom::util;
namespace ans = wisdom::ansible;

namespace {

// Config-aware diagnostic sink: drops disabled rules, applies severity
// overrides, falls back to the registry's default severity.
class Emitter {
 public:
  Emitter(const RuleConfig& config, AnalysisResult& result)
      : config_(config), result_(result) {}

  void add(std::string_view rule, std::string message,
           const yaml::Span& span, std::vector<TextEdit> edits = {}) {
    if (!config_.is_enabled(rule)) return;
    Severity severity = Severity::Error;
    if (const RuleInfo* info = find_rule(rule)) {
      severity = info->default_severity;
    }
    if (auto override = config_.override_for(rule)) severity = *override;
    result_.diagnostics.push_back(Diagnostic{
        std::string(rule), std::move(message), severity, span,
        std::move(edits)});
  }

  void add_violation(const ans::Violation& v) {
    if (!config_.is_enabled(v.rule)) return;
    Severity severity = v.severity;
    if (auto override = config_.override_for(v.rule)) severity = *override;
    result_.diagnostics.push_back(
        Diagnostic{v.rule, v.message, severity, v.span, {}});
  }

 private:
  const RuleConfig& config_;
  AnalysisResult& result_;
};

// --- generic node walks ---------------------------------------------------

void check_duplicate_keys(const yaml::Node& node, Emitter& em) {
  if (node.is_map()) {
    std::set<std::string_view> seen;
    for (const auto& [key, value] : node.entries()) {
      if (!seen.insert(key).second) {
        em.add("duplicate-key", "mapping repeats key '" + key + "'",
               value.anchor_span());
      }
      check_duplicate_keys(value, em);
    }
  } else if (node.is_seq()) {
    for (const yaml::Node& item : node.items())
      check_duplicate_keys(item, em);
  }
}

// Non-canonical boolean spellings (`yes`, `On`, `TRUE`) and unquoted
// integer file modes (`mode: 644` is the octal-permission footgun).
void check_literals(const yaml::Node& node, Emitter& em) {
  if (node.is_bool() && node.span().valid()) {
    std::string raw = node.scalar_text();
    std::string canonical = node.as_bool() ? "true" : "false";
    if (raw != canonical) {
      em.add("boolean-literal",
             "boolean '" + raw + "' should be spelled '" + canonical + "'",
             node.span(),
             {TextEdit{node.span().begin, node.span().end, canonical}});
    }
    return;
  }
  if (node.is_map()) {
    for (const auto& [key, value] : node.entries()) {
      if (key == "mode" && value.is_int() && value.span().valid()) {
        std::string digits = std::to_string(value.as_int());
        std::string quoted = "'" +
                             (digits.size() == 3 ? "0" + digits : digits) +
                             "'";
        em.add("octal-mode",
               "file mode '" + digits +
                   "' loses its leading zero; use " + quoted,
               value.span(),
               {TextEdit{value.span().begin, value.span().end, quoted}});
      }
      check_literals(value, em);
    }
  } else if (node.is_seq()) {
    for (const yaml::Node& item : node.items()) check_literals(item, em);
  }
}

// Every string scalar must be a well-formed Jinja template (balanced
// {{ }} / {% %} with parseable expressions inside).
void check_templates(const yaml::Node& node, Emitter& em) {
  if (node.is_str() && node.span().valid()) {
    ans::JinjaError jerr;
    if (!ans::validate_template_string(node.as_str(), &jerr)) {
      em.add("jinja-syntax", "bad template: " + jerr.message, node.span());
    }
    return;
  }
  if (node.is_map()) {
    for (const auto& [key, value] : node.entries())
      check_templates(value, em);
  } else if (node.is_seq()) {
    for (const yaml::Node& item : node.items()) check_templates(item, em);
  }
}

// --- per-task rules -------------------------------------------------------

bool is_expression_keyword(std::string_view key) {
  return key == "when" || key == "changed_when" || key == "failed_when" ||
         key == "until";
}

void check_expression(const yaml::Node& value, Emitter& em) {
  if (value.is_seq()) {
    for (const yaml::Node& item : value.items()) check_expression(item, em);
    return;
  }
  if (!value.is_str()) return;  // booleans and null are fine
  const std::string& expr = value.as_str();
  if (util::contains(expr, "{{")) return;  // templated: template rules apply
  ans::JinjaError jerr;
  if (!ans::validate_jinja_expression(expr, &jerr)) {
    em.add("jinja-syntax", "bad expression: " + jerr.message,
           value.span().valid() ? value.span() : value.anchor_span());
  }
}

std::string render_param_scalar(const yaml::Node& value) {
  std::string text = value.scalar_text();
  if (value.is_str() && yaml::scalar_needs_quotes(text))
    return yaml::quote_scalar(text);
  return text;
}

// Per-task schema-adjacent rules that need the source text: name-missing,
// deprecated-module, the fqcn / old-style-args fix candidates, and Jinja
// validation of conditional expressions. Variable def-use rules live in
// dataflow_pass; parameter rules in typecheck_pass.
void check_ir_tasks(std::string_view source, const PlaybookIr& ir,
                    Emitter& em, std::vector<FixCandidate>& fixes) {
  for (const IrTask& t : ir.tasks) {
    if (!t.node || t.node->size() == 0) continue;

    // Conditional expressions must parse as Jinja (blocks carry them too).
    for (const auto& [key, value] : t.node->entries()) {
      if (is_expression_keyword(key)) check_expression(value, em);
    }

    if (t.is_block) continue;

    if (!t.node->has("name")) {
      em.add("name-missing", "task has no 'name:'", t.node->anchor_span());
    }

    if (t.module.empty() || !t.args) continue;
    const ans::ModuleSpec* module = t.spec;
    const yaml::Span& key_span = t.args->key_span();
    if (module && !module->deprecated_by.empty()) {
      em.add("deprecated-module",
             "module '" + t.module + "' is deprecated; use '" +
                 module->deprecated_by + "'",
             t.args->anchor_span());
    }
    if (module && key_span.valid() &&
        t.module.find('.') == std::string::npos) {
      fixes.push_back(FixCandidate{
          "fqcn", key_span.begin,
          {TextEdit{key_span.begin, key_span.end, module->fqcn}}});
    }
    if (module && !module->free_form && t.args->is_str() &&
        ans::looks_like_kv_args(t.args->as_str()) &&
        t.args->span().valid() && key_span.valid()) {
      ans::FreeFormSplit split = ans::parse_free_form(t.args->as_str());
      const yaml::Span& value_span = t.args->span();
      // Eat the spaces between ':' and the k=v string so the expansion
      // becomes "module:\n  key: value" with no trailing blanks.
      std::size_t begin = value_span.begin;
      while (begin > 0 && begin - 1 < source.size() &&
             source[begin - 1] == ' ')
        --begin;
      std::string indent(key_span.column - 1 + 2, ' ');
      std::string replacement;
      for (const auto& [pkey, pvalue] : split.params.entries()) {
        replacement += "\n" + indent + pkey + ": " +
                       render_param_scalar(pvalue);
      }
      if (!replacement.empty()) {
        fixes.push_back(FixCandidate{
            "old-style-args", value_span.begin,
            {TextEdit{begin, value_span.end, std::move(replacement)}}});
      }
    }
  }
}

}  // namespace

AnalysisResult analyze(std::string_view text, const RuleConfig& config) {
  AnalysisResult result;
  Emitter em(config, result);

  if (util::trim(text).empty()) {
    em.add("empty-document", "document is empty", yaml::Span{0, 0, 1, 1});
    return result;
  }
  yaml::ParseError err;
  auto doc = yaml::parse_document(text, &err);
  if (!doc) {
    yaml::Span span;
    span.line = err.line;
    span.column = 1;
    em.add("yaml-syntax", err.to_string(), span);
    return result;
  }
  result.parsed = true;
  if (doc->is_null()) {
    em.add("empty-document", "document is empty",
           doc->span().valid() ? doc->span() : yaml::Span{0, 0, 1, 1});
    return result;
  }

  // The strict schema linter supplies the base rules, spans included.
  ans::LintResult base;
  if (doc->is_map()) {
    base = ans::lint_task(*doc);
  } else if (ans::looks_like_playbook(*doc)) {
    base = ans::lint_playbook(*doc);
  } else {
    base = ans::lint_task_list(*doc);
  }
  for (const ans::Violation& v : base.violations) em.add_violation(v);

  // Engine-native rules and fix candidates.
  std::vector<FixCandidate> fixes;
  check_duplicate_keys(*doc, em);
  check_literals(*doc, em);
  check_templates(*doc, em);

  // The semantic layer: lower to IR once, run every pass over it.
  const PlaybookIr ir =
      build_ir(std::make_shared<const yaml::Node>(std::move(*doc)));
  check_ir_tasks(text, ir, em, fixes);
  for (Finding& f : dataflow_pass(ir)) {
    em.add(f.rule, std::move(f.message), f.span, std::move(f.edits));
  }
  TypecheckOutput typecheck = typecheck_pass(ir);
  for (Finding& f : typecheck.findings) {
    em.add(f.rule, std::move(f.message), f.span, std::move(f.edits));
  }
  for (FixCandidate& f : typecheck.fixes) fixes.push_back(std::move(f));
  for (Finding& f : taint_pass(ir)) {
    em.add(f.rule, std::move(f.message), f.span, std::move(f.edits));
  }

  // Attach computed edits to the diagnostics they repair.
  for (Diagnostic& d : result.diagnostics) {
    if (!d.edits.empty() || !d.span.valid()) continue;
    for (FixCandidate& candidate : fixes) {
      if (candidate.rule == d.rule && candidate.anchor == d.span.begin) {
        d.edits = candidate.edits;
        break;
      }
    }
  }
  return result;
}

FixOutcome apply_fixes(std::string_view text, const AnalysisResult& result) {
  FixOutcome outcome;

  // One group per fixable diagnostic, processed in byte order so overlap
  // resolution is deterministic regardless of diagnostic order.
  std::vector<const Diagnostic*> groups;
  for (const Diagnostic& d : result.diagnostics)
    if (d.fixable()) groups.push_back(&d);
  std::stable_sort(groups.begin(), groups.end(),
                   [](const Diagnostic* a, const Diagnostic* b) {
                     return a->edits.front().begin < b->edits.front().begin;
                   });

  std::vector<const TextEdit*> accepted;
  auto overlaps = [&](const TextEdit& e) {
    for (const TextEdit* a : accepted) {
      if (e.begin < a->end && a->begin < e.end) return true;
      // Two identical zero-length insertions collide too.
      if (e.begin == e.end && a->begin == a->end && e.begin == a->begin)
        return true;
    }
    return false;
  };
  for (const Diagnostic* d : groups) {
    bool conflict = false;
    for (const TextEdit& e : d->edits) {
      if (e.end > text.size() || e.begin > e.end || overlaps(e)) {
        conflict = true;
        break;
      }
    }
    if (conflict) {
      ++outcome.dropped;
      continue;
    }
    for (const TextEdit& e : d->edits) accepted.push_back(&e);
    ++outcome.applied;
  }

  std::sort(accepted.begin(), accepted.end(),
            [](const TextEdit* a, const TextEdit* b) {
              return a->begin > b->begin;
            });
  outcome.text.assign(text);
  for (const TextEdit* e : accepted) {
    outcome.text.replace(e->begin, e->end - e->begin, e->replacement);
  }
  return outcome;
}

RepairResult repair(std::string_view text, const RuleConfig& config,
                    std::size_t max_iterations) {
  RepairResult out;
  out.text.assign(text);
  AnalysisResult current = analyze(out.text, config);
  for (std::size_t i = 0; i < max_iterations; ++i) {
    if (current.fixable_count() == 0) break;
    FixOutcome fixed = apply_fixes(out.text, current);
    if (!fixed.changed() || fixed.text == out.text) break;
    out.text = std::move(fixed.text);
    out.changed = true;
    ++out.iterations;
    current = analyze(out.text, config);
  }
  out.converged = current.fixable_count() == 0;
  out.final_result = std::move(current);
  return out;
}

}  // namespace wisdom::analysis
