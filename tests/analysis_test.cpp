// The diagnostics engine: span accuracy on tricky YAML, positive/negative
// cases for every new rule, fix-then-relint convergence, rule
// configuration, formatters, and the lint-gate eval-set property (repair
// strictly improves Schema Correct without touching already-valid
// predictions).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/engine.hpp"
#include "analysis/format.hpp"
#include "analysis/ir.hpp"
#include "analysis/rules.hpp"
#include "analysis/taint.hpp"
#include "ansible/linter.hpp"
#include "metrics/aggregate.hpp"
#include "metrics/schema_correct.hpp"
#include "metrics/semantic_correct.hpp"
#include "serve/lint_gate.hpp"
#include "yaml/parse.hpp"

namespace wa = wisdom::analysis;
namespace wl = wisdom::ansible;
namespace wm = wisdom::metrics;
namespace ws = wisdom::serve;

namespace {

const wa::Diagnostic* find_rule(const wa::AnalysisResult& result,
                                std::string_view rule) {
  for (const auto& d : result.diagnostics)
    if (d.rule == rule) return &d;
  return nullptr;
}
// The pointer would outlive a temporary result.
const wa::Diagnostic* find_rule(wa::AnalysisResult&& result,
                                std::string_view rule) = delete;

bool has_rule(const wa::AnalysisResult& result, std::string_view rule) {
  return find_rule(result, rule) != nullptr;
}

}  // namespace

// --- rule registry ------------------------------------------------------------

TEST(Rules, RegistrySortedAndLookupWorks) {
  auto rules = wa::all_rules();
  ASSERT_FALSE(rules.empty());
  EXPECT_TRUE(std::is_sorted(
      rules.begin(), rules.end(),
      [](const wa::RuleInfo& a, const wa::RuleInfo& b) { return a.id < b.id; }));
  for (const auto& rule : rules) {
    const wa::RuleInfo* found = wa::find_rule(rule.id);
    ASSERT_NE(found, nullptr) << rule.id;
    EXPECT_EQ(found->id, rule.id);
    EXPECT_FALSE(rule.summary.empty()) << rule.id;
  }
  EXPECT_EQ(wa::find_rule("no-such-rule"), nullptr);
}

TEST(Rules, ConfigDisableAndOverride) {
  const std::string text =
      "- name: Install nginx\n"
      "  apt:\n"
      "    name: nginx\n"
      "    state: present\n";
  auto base = wa::analyze(text);
  ASSERT_TRUE(has_rule(base, "fqcn"));

  wa::RuleConfig disabled;
  disabled.disabled = {"fqcn"};
  EXPECT_FALSE(has_rule(wa::analyze(text, disabled), "fqcn"));

  wa::RuleConfig upgraded;
  upgraded.severity_overrides = {{"fqcn", wa::Severity::Error}};
  auto strict = wa::analyze(text, upgraded);
  const wa::Diagnostic* d = find_rule(strict, "fqcn");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, wa::Severity::Error);
  EXPECT_FALSE(strict.ok());

  wa::RuleConfig typo;
  typo.disabled = {"fqcn", "not-a-rule"};
  auto unknown = typo.unknown_ids();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "not-a-rule");
}

// --- span accuracy ------------------------------------------------------------

TEST(Spans, DiagnosticsSliceToTheNamedKey) {
  const std::string text =
      "- name: Install nginx\n"
      "  apt:\n"
      "    name: nginx\n"
      "    state: present\n";
  auto result = wa::analyze(text);
  const wa::Diagnostic* fqcn = find_rule(result, "fqcn");
  ASSERT_NE(fqcn, nullptr);
  ASSERT_TRUE(fqcn->span.valid());
  EXPECT_EQ(fqcn->span.slice(text), "apt");
  EXPECT_EQ(fqcn->span.line, 2u);
  EXPECT_EQ(fqcn->span.column, 3u);
}

TEST(Spans, EveryLintTextViolationOnParseableDocIsLocated) {
  // Tricky shapes: comments, a block scalar, a flow mapping, k=v args,
  // octals, duplicate keys — every violation must carry a span whose
  // bytes fall inside the input.
  const std::string text =
      "# provision\n"
      "- name: Write config\n"
      "  copy: dest=/etc/app.conf content=hi\n"
      "- name: Script\n"
      "  ansible.builtin.shell: |\n"
      "    echo one\n"
      "    echo two\n"
      "  args: {chdir: /tmp, chdir: /var}\n"
      "- ansible.builtin.file:\n"
      "    path: /etc/app.conf\n"
      "    mode: 644\n"
      "    state: touch\n"
      "    state: file\n";
  wl::LintResult lint = wl::lint_text(text);
  EXPECT_FALSE(lint.violations.empty());
  for (const auto& v : lint.violations) {
    EXPECT_TRUE(v.span.valid()) << v.rule << ": " << v.message;
    EXPECT_LE(v.span.begin, v.span.end) << v.rule;
    EXPECT_LE(v.span.end, text.size()) << v.rule;
  }
  // The engine sees the same text and locates the deeper rules too.
  auto result = wa::analyze(text);
  for (const auto& d : result.diagnostics) {
    ASSERT_TRUE(d.span.valid()) << d.rule << ": " << d.message;
    EXPECT_LE(d.span.end, text.size()) << d.rule;
  }
  const wa::Diagnostic* dup = find_rule(result, "duplicate-key");
  ASSERT_NE(dup, nullptr);
  EXPECT_TRUE(dup->span.slice(text) == "chdir" ||
              dup->span.slice(text) == "state")
      << dup->span.slice(text);
  const wa::Diagnostic* octal = find_rule(result, "octal-mode");
  ASSERT_NE(octal, nullptr);
  EXPECT_EQ(octal->span.slice(text), "644");
}

TEST(Spans, BlockScalarAndFlowMappingSpans) {
  const std::string text =
      "- name: Run script\n"
      "  ansible.builtin.shell: |\n"
      "    echo {{ missing_var }}\n"
      "  vars: {retries: 3}\n";
  auto result = wa::analyze(text);
  // The Jinja reference inside the block scalar is located on the scalar.
  for (const auto& d : result.diagnostics)
    EXPECT_TRUE(d.span.valid()) << d.rule;
}

// --- new rules: positive and negative cases -----------------------------------

TEST(NewRules, DeprecatedModule) {
  auto bad = wa::analyze(
      "- name: Install\n  ansible.builtin.yum:\n    name: vim\n"
      "    state: present\n");
  const wa::Diagnostic* d = find_rule(bad, "deprecated-module");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("ansible.builtin.dnf"), std::string::npos);
  auto good = wa::analyze(
      "- name: Install\n  ansible.builtin.dnf:\n    name: vim\n"
      "    state: present\n");
  EXPECT_FALSE(has_rule(good, "deprecated-module"));
}

TEST(NewRules, FqcnFixRewritesShortName) {
  const std::string text =
      "- name: Install\n  apt:\n    name: vim\n    state: present\n";
  auto result = wa::analyze(text);
  const wa::Diagnostic* d = find_rule(result, "fqcn");
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->fixable());
  auto fixed = wa::apply_fixes(text, result);
  EXPECT_NE(fixed.text.find("ansible.builtin.apt:"), std::string::npos);
  EXPECT_FALSE(has_rule(wa::analyze(fixed.text), "fqcn"));
}

TEST(NewRules, DuplicateKeyDetectedAtAllDepths) {
  auto dup = wa::analyze(
      "- name: A\n  ansible.builtin.apt:\n    name: vim\n    name: git\n"
      "    state: present\n");
  EXPECT_TRUE(has_rule(dup, "duplicate-key"));
  EXPECT_FALSE(dup.ok());
  auto clean = wa::analyze(
      "- name: A\n  ansible.builtin.apt:\n    name: vim\n"
      "    state: present\n");
  EXPECT_FALSE(has_rule(clean, "duplicate-key"));
}

TEST(NewRules, OldStyleArgsExpandToMapping) {
  const std::string text =
      "- name: Install\n  ansible.builtin.apt: name=vim state=present\n";
  auto result = wa::analyze(text);
  const wa::Diagnostic* d = find_rule(result, "old-style-args");
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->fixable());
  auto repaired = wa::repair(text);
  EXPECT_TRUE(repaired.converged);
  EXPECT_NE(repaired.text.find("    name: vim"), std::string::npos);
  EXPECT_NE(repaired.text.find("    state: present"), std::string::npos);
  EXPECT_TRUE(wa::analyze(repaired.text).ok());
  // Free-form modules keep their string form.
  auto shell = wa::analyze(
      "- name: Run\n  ansible.builtin.shell: echo hello\n");
  EXPECT_FALSE(has_rule(shell, "old-style-args"));
}

TEST(NewRules, JinjaSyntaxErrors) {
  auto bad = wa::analyze(
      "- name: Show\n  ansible.builtin.debug:\n"
      "    msg: \"{{ value\"\n");
  EXPECT_TRUE(has_rule(bad, "jinja-syntax"));
  auto good = wa::analyze(
      "- name: Show\n  ansible.builtin.debug:\n"
      "    msg: \"{{ value }}\"\n");
  EXPECT_FALSE(has_rule(good, "jinja-syntax"));
}

TEST(NewRules, UndefinedVariableItemRequiresLoop) {
  auto bad = wa::analyze(
      "- name: Install\n  ansible.builtin.apt:\n"
      "    name: \"{{ item }}\"\n    state: present\n");
  EXPECT_TRUE(has_rule(bad, "undefined-variable"));
  auto good = wa::analyze(
      "- name: Install\n  ansible.builtin.apt:\n"
      "    name: \"{{ item }}\"\n    state: present\n"
      "  loop:\n    - vim\n    - git\n");
  EXPECT_FALSE(has_rule(good, "undefined-variable"));
}

TEST(NewRules, UndefinedVariableRegisterOrdering) {
  // Used before the registering task -> diagnostic.
  auto bad = wa::analyze(
      "- name: Report\n  ansible.builtin.debug:\n"
      "    msg: \"{{ out.stdout }}\"\n"
      "- name: Run\n  ansible.builtin.command: uptime\n  register: out\n");
  EXPECT_TRUE(has_rule(bad, "undefined-variable"));
  // Registered earlier -> fine.
  auto good = wa::analyze(
      "- name: Run\n  ansible.builtin.command: uptime\n  register: out\n"
      "- name: Report\n  ansible.builtin.debug:\n"
      "    msg: \"{{ out.stdout }}\"\n");
  EXPECT_FALSE(has_rule(good, "undefined-variable"));
}

TEST(NewRules, BooleanLiteralNormalization) {
  const std::string text =
      "- name: Enable\n  ansible.builtin.service:\n    name: nginx\n"
      "    enabled: yes\n";
  auto result = wa::analyze(text);
  const wa::Diagnostic* d = find_rule(result, "boolean-literal");
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->fixable());
  auto fixed = wa::apply_fixes(text, result);
  EXPECT_NE(fixed.text.find("enabled: true"), std::string::npos);
  EXPECT_FALSE(has_rule(wa::analyze(fixed.text), "boolean-literal"));
}

TEST(NewRules, OctalModeQuoted) {
  const std::string text =
      "- name: Perms\n  ansible.builtin.file:\n    path: /tmp/x\n"
      "    mode: 644\n    state: touch\n";
  auto result = wa::analyze(text);
  const wa::Diagnostic* d = find_rule(result, "octal-mode");
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->fixable());
  auto fixed = wa::apply_fixes(text, result);
  EXPECT_NE(fixed.text.find("mode: '0644'"), std::string::npos);
  EXPECT_FALSE(has_rule(wa::analyze(fixed.text), "octal-mode"));
}

TEST(NewRules, NameMissing) {
  auto bad = wa::analyze(
      "- ansible.builtin.apt:\n    name: vim\n    state: present\n");
  EXPECT_TRUE(has_rule(bad, "name-missing"));
  auto good = wa::analyze(
      "- name: Install\n  ansible.builtin.apt:\n    name: vim\n"
      "    state: present\n");
  EXPECT_FALSE(has_rule(good, "name-missing"));
}

TEST(NewRules, EmptyDocumentIsAWarningNotAnError) {
  for (std::string_view text : {"", "   \n", "---\n"}) {
    wl::LintResult lint = wl::lint_text(text);
    EXPECT_TRUE(lint.ok()) << text;
    ASSERT_EQ(lint.violations.size(), 1u) << text;
    EXPECT_EQ(lint.violations[0].rule, "empty-document");
    EXPECT_EQ(lint.violations[0].severity, wl::Severity::Warning);
    // ... but an empty document is never a schema-correct *answer*.
    EXPECT_FALSE(wm::schema_correct(text));
  }
}

// --- fixing -------------------------------------------------------------------

TEST(Repair, ComposedFixesConvergeInOnePass) {
  const std::string text =
      "- name: Enable\n  service: name=nginx enabled=yes\n"
      "- name: Perms\n  file:\n    path: /tmp/x\n    mode: 600\n"
      "    state: touch\n";
  auto repaired = wa::repair(text);
  EXPECT_TRUE(repaired.changed);
  EXPECT_TRUE(repaired.converged);
  EXPECT_EQ(repaired.final_result.fixable_count(), 0u);
  EXPECT_NE(repaired.text.find("ansible.builtin.service:"),
            std::string::npos);
  EXPECT_NE(repaired.text.find("    enabled: true"), std::string::npos);
  EXPECT_NE(repaired.text.find("mode: '0600'"), std::string::npos);
  EXPECT_TRUE(wa::analyze(repaired.text).ok());
}

TEST(Repair, CleanInputIsUntouched) {
  const std::string text =
      "- name: Install\n  ansible.builtin.apt:\n    name: vim\n"
      "    state: present\n";
  auto repaired = wa::repair(text);
  EXPECT_FALSE(repaired.changed);
  EXPECT_TRUE(repaired.converged);
  EXPECT_EQ(repaired.text, text);
}

TEST(Repair, UnparseableInputIsUntouched) {
  const std::string text = "- name: [broken\n";
  auto repaired = wa::repair(text);
  EXPECT_FALSE(repaired.changed);
  EXPECT_EQ(repaired.text, text);
  EXPECT_FALSE(repaired.final_result.parsed);
}

// --- formatters ---------------------------------------------------------------

TEST(Format, TextCaretsPointAtTheKey) {
  const std::string text =
      "- name: Install\n  apt:\n    name: vim\n    state: present\n";
  auto result = wa::analyze(text);
  std::string rendered = wa::format_text(text, result, "play.yml");
  EXPECT_NE(rendered.find("play.yml:2:3: warning [fqcn]"),
            std::string::npos);
  EXPECT_NE(rendered.find("  apt:"), std::string::npos);
  EXPECT_NE(rendered.find("^~~"), std::string::npos);
  EXPECT_NE(rendered.find("0 errors, 1 warning"), std::string::npos);
}

TEST(Format, JsonCarriesSpansAndFixability) {
  const std::string text =
      "- name: Install\n  apt:\n    name: vim\n    state: present\n";
  std::string json = wa::format_json(wa::analyze(text));
  EXPECT_NE(json.find("\"rule\":\"fqcn\""), std::string::npos);
  EXPECT_NE(json.find("\"fixable\":true"), std::string::npos);
  EXPECT_NE(json.find("\"line\":2"), std::string::npos);
}

TEST(Format, LintResultToStringSortsBySourceOrder) {
  // The unknown-param violation sits on line 4, the fqcn/old-style ones on
  // line 6: source order must win regardless of emission order.
  wl::LintResult lint = wl::lint_text(
      "- name: A\n"
      "  ansible.builtin.debug:\n"
      "    msg: hi\n"
      "    bogus: 1\n"
      "- name: B\n"
      "  apt: name=vim state=present\n");
  std::string rendered = lint.to_string();
  std::size_t first = rendered.find("unknown-param");
  std::size_t second = rendered.find("fqcn");
  ASSERT_NE(first, std::string::npos) << rendered;
  ASSERT_NE(second, std::string::npos) << rendered;
  EXPECT_LT(first, second);
}

// --- the lint gate over a seeded eval set -------------------------------------

TEST(LintGateEval, RepairImprovesSchemaCorrectAndPreservesValidSnippets) {
  // A seeded eval set standing in for model predictions: some already
  // valid, some one mechanical fix away, one beyond repair.
  const std::vector<std::string> predictions = {
      "- name: Install vim\n  ansible.builtin.apt:\n    name: vim\n"
      "    state: present\n",
      "- name: Install git\n  ansible.builtin.apt:\n    name: git\n"
      "    state: present\n",
      "- name: Install curl\n  apt: name=curl state=present\n",
      "- name: Enable nginx\n  service: name=nginx enabled=yes\n",
      "- name: Broken\n  ansible.builtin.notamodule:\n    x: 1\n",
  };
  std::size_t schema_off = 0, schema_repair = 0;
  for (const std::string& prediction : predictions) {
    ws::LintOutcome off = ws::lint_gate(prediction, ws::LintPolicy::Off);
    ws::LintOutcome rep = ws::lint_gate(prediction, ws::LintPolicy::Repair);
    if (off.schema_correct) {
      ++schema_off;
      // Already-valid predictions must come back byte-identical (Exact
      // Match unchanged).
      EXPECT_EQ(rep.snippet, prediction);
      EXPECT_FALSE(rep.repaired);
    }
    if (rep.schema_correct) ++schema_repair;
  }
  EXPECT_EQ(schema_off, 2u);
  EXPECT_EQ(schema_repair, 4u);  // strictly better: both k=v forms repaired
}

TEST(LintGate, PolicyNamesRoundTrip) {
  for (ws::LintPolicy p :
       {ws::LintPolicy::Off, ws::LintPolicy::Annotate, ws::LintPolicy::Repair,
        ws::LintPolicy::RejectDegraded}) {
    ws::LintPolicy back;
    ASSERT_TRUE(ws::lint_policy_from_name(ws::lint_policy_name(p), &back));
    EXPECT_EQ(back, p);
  }
  ws::LintPolicy out;
  EXPECT_FALSE(ws::lint_policy_from_name("bogus", &out));
}

TEST(LintGate, AnnotateReportsWithoutChanging) {
  const std::string text =
      "- name: Install\n  apt: name=vim state=present\n";
  ws::LintOutcome outcome = ws::lint_gate(text, ws::LintPolicy::Annotate);
  EXPECT_TRUE(outcome.analyzed);
  EXPECT_FALSE(outcome.repaired);
  EXPECT_EQ(outcome.snippet, text);
  EXPECT_FALSE(outcome.schema_correct);
  EXPECT_FALSE(outcome.diagnostics.empty());
}

TEST(LintGate, RejectDegradedRefusesUnrepairable) {
  ws::LintOutcome outcome = ws::lint_gate(
      "- name: Broken\n  ansible.builtin.notamodule:\n    x: 1\n",
      ws::LintPolicy::RejectDegraded);
  EXPECT_TRUE(outcome.rejected);
  EXPECT_FALSE(outcome.schema_correct);
  // ... but accepts what repair can save.
  ws::LintOutcome saved = ws::lint_gate(
      "- name: Install\n  apt: name=vim state=present\n",
      ws::LintPolicy::RejectDegraded);
  EXPECT_FALSE(saved.rejected);
  EXPECT_TRUE(saved.repaired);
  EXPECT_TRUE(saved.schema_correct);
}

// --- playbook IR / CFG --------------------------------------------------------

namespace {

wa::PlaybookIr ir_of(const std::string& text) {
  wisdom::yaml::ParseError err;
  auto doc = wisdom::yaml::parse_document(text, &err);
  EXPECT_TRUE(doc.has_value()) << err.message;
  return doc ? wa::build_ir(
                   std::make_shared<const wisdom::yaml::Node>(std::move(*doc)))
             : wa::PlaybookIr{};
}

bool has_edge(const wa::PlaybookIr& ir, std::size_t from, std::size_t to,
              wa::EdgeKind kind) {
  for (const wa::CfgEdge& e : ir.edges)
    if (e.from == from && e.to == to && e.kind == kind) return true;
  return false;
}

const wa::IrTask* task_named(const wa::PlaybookIr& ir, std::string_view name) {
  for (const wa::IrTask& t : ir.tasks)
    if (t.name == name) return &t;
  return nullptr;
}

std::vector<wa::Finding> dataflow_of(const std::string& text) {
  return wa::dataflow_pass(ir_of(text));
}

std::size_t count_findings(const std::vector<wa::Finding>& findings,
                           std::string_view rule) {
  std::size_t n = 0;
  for (const wa::Finding& f : findings)
    if (f.rule == rule) ++n;
  return n;
}

}  // namespace

TEST(Ir, SingleTaskMapBecomesSyntheticPlay) {
  wa::PlaybookIr ir = ir_of(
      "name: Install nginx\n"
      "ansible.builtin.apt:\n"
      "  name: nginx\n"
      "  state: present\n");
  EXPECT_FALSE(ir.is_playbook);
  ASSERT_EQ(ir.plays.size(), 1u);
  ASSERT_EQ(ir.tasks.size(), 1u);
  const wa::IrTask& t = ir.tasks[0];
  EXPECT_EQ(t.name, "Install nginx");
  EXPECT_EQ(t.module, "ansible.builtin.apt");
  ASSERT_NE(t.spec, nullptr);
  EXPECT_EQ(t.spec->short_name, "apt");
  EXPECT_TRUE(t.span.valid());
}

TEST(Ir, TaskListGetsSequentialEdges) {
  wa::PlaybookIr ir = ir_of(
      "- name: First\n  ansible.builtin.command: echo one\n"
      "- name: Second\n  ansible.builtin.command: echo two\n"
      "- name: Third\n  ansible.builtin.command: echo three\n");
  ASSERT_EQ(ir.tasks.size(), 3u);
  ASSERT_EQ(ir.plays.size(), 1u);
  EXPECT_TRUE(has_edge(ir, 0, 1, wa::EdgeKind::Seq));
  EXPECT_TRUE(has_edge(ir, 1, 2, wa::EdgeKind::Seq));
  EXPECT_FALSE(has_edge(ir, 0, 2, wa::EdgeKind::Seq));
  auto order = ir.execution_order(ir.plays[0]);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Ir, BlockRescueAlwaysStructureAndEdges) {
  wa::PlaybookIr ir = ir_of(
      "- name: Try install\n"
      "  block:\n"
      "    - name: Install\n"
      "      ansible.builtin.apt:\n"
      "        name: nginx\n"
      "        state: present\n"
      "  rescue:\n"
      "    - name: Report failure\n"
      "      ansible.builtin.debug:\n"
      "        msg: install failed\n"
      "  always:\n"
      "    - name: Cleanup\n"
      "      ansible.builtin.file:\n"
      "        path: /tmp/marker\n"
      "        state: absent\n");
  const wa::IrTask* root = task_named(ir, "Try install");
  ASSERT_NE(root, nullptr);
  EXPECT_TRUE(root->is_block);
  ASSERT_EQ(root->block.size(), 1u);
  ASSERT_EQ(root->rescue.size(), 1u);
  ASSERT_EQ(root->always.size(), 1u);
  EXPECT_TRUE(has_edge(ir, root->id, root->block[0], wa::EdgeKind::Block));
  EXPECT_TRUE(has_edge(ir, root->id, root->rescue[0], wa::EdgeKind::Rescue));
  EXPECT_TRUE(has_edge(ir, root->id, root->always[0], wa::EdgeKind::Always));
  EXPECT_EQ(ir.tasks[root->block[0]].section, wa::BlockSection::Block);
  EXPECT_EQ(ir.tasks[root->rescue[0]].section, wa::BlockSection::Rescue);
  EXPECT_EQ(ir.tasks[root->always[0]].section, wa::BlockSection::Always);
  // Pre-order execution: the block node first, then its lists in order.
  auto order = ir.execution_order(ir.plays[0]);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], root->id);
}

TEST(Ir, PlaybookWithHandlersResolvesNotify) {
  wa::PlaybookIr ir = ir_of(
      "- name: Site\n"
      "  hosts: web\n"
      "  tasks:\n"
      "    - name: Deploy config\n"
      "      ansible.builtin.copy:\n"
      "        src: nginx.conf\n"
      "        dest: /etc/nginx/nginx.conf\n"
      "      notify: restart nginx\n"
      "  handlers:\n"
      "    - name: restart nginx\n"
      "      ansible.builtin.service:\n"
      "        name: nginx\n"
      "        state: restarted\n");
  EXPECT_TRUE(ir.is_playbook);
  ASSERT_EQ(ir.plays.size(), 1u);
  ASSERT_EQ(ir.plays[0].handlers.size(), 1u);
  const wa::IrTask* deploy = task_named(ir, "Deploy config");
  const wa::IrTask* handler = task_named(ir, "restart nginx");
  ASSERT_NE(deploy, nullptr);
  ASSERT_NE(handler, nullptr);
  EXPECT_TRUE(handler->is_handler);
  EXPECT_EQ(ir.resolve_handler(ir.plays[0], "restart nginx"), handler->id);
  EXPECT_EQ(ir.resolve_handler(ir.plays[0], "no such handler"), wa::kNoTask);
  EXPECT_TRUE(has_edge(ir, deploy->id, handler->id, wa::EdgeKind::Notify));
}

TEST(Ir, HandlerListenTopicsResolve) {
  wa::PlaybookIr ir = ir_of(
      "- name: Site\n"
      "  hosts: web\n"
      "  tasks:\n"
      "    - name: Deploy\n"
      "      ansible.builtin.copy:\n"
      "        src: app.conf\n"
      "        dest: /etc/app.conf\n"
      "      notify: config changed\n"
      "  handlers:\n"
      "    - name: reload app\n"
      "      listen: config changed\n"
      "      ansible.builtin.service:\n"
      "        name: app\n"
      "        state: reloaded\n");
  const wa::IrTask* handler = task_named(ir, "reload app");
  ASSERT_NE(handler, nullptr);
  ASSERT_EQ(handler->listen.size(), 1u);
  EXPECT_EQ(handler->listen[0], "config changed");
  EXPECT_EQ(ir.resolve_handler(ir.plays[0], "config changed"), handler->id);
  // Subscribed through listen: neither undefined nor unused.
  auto findings = wa::dataflow_pass(ir);
  EXPECT_EQ(count_findings(findings, "undefined-handler"), 0u);
  EXPECT_EQ(count_findings(findings, "unused-handler"), 0u);
}

TEST(Ir, DefsAndUsesRecordKindsAndSpans) {
  wa::PlaybookIr ir = ir_of(
      "- name: Probe\n"
      "  ansible.builtin.command: uptime\n"
      "  register: probe_result\n"
      "- name: Remember\n"
      "  ansible.builtin.set_fact:\n"
      "    load_line: \"{{ probe_result.stdout }}\"\n"
      "- name: Shout\n"
      "  ansible.builtin.debug:\n"
      "    msg: \"{{ load_line }}\"\n"
      "  vars:\n"
      "    volume: loud\n");
  const wa::IrTask* probe = task_named(ir, "Probe");
  ASSERT_NE(probe, nullptr);
  ASSERT_EQ(probe->defs.size(), 1u);
  EXPECT_EQ(probe->defs[0].kind, wa::DefKind::Register);
  EXPECT_EQ(probe->defs[0].name, "probe_result");
  EXPECT_TRUE(probe->defs[0].span.valid());
  const wa::IrTask* remember = task_named(ir, "Remember");
  ASSERT_NE(remember, nullptr);
  ASSERT_EQ(remember->defs.size(), 1u);
  EXPECT_EQ(remember->defs[0].kind, wa::DefKind::SetFact);
  EXPECT_EQ(remember->defs[0].name, "load_line");
  ASSERT_EQ(remember->uses.size(), 1u);
  EXPECT_EQ(remember->uses[0].name, "probe_result");
  const wa::IrTask* shout = task_named(ir, "Shout");
  ASSERT_NE(shout, nullptr);
  ASSERT_EQ(shout->defs.size(), 1u);
  EXPECT_EQ(shout->defs[0].kind, wa::DefKind::TaskVars);
  EXPECT_EQ(shout->defs[0].name, "volume");
}

TEST(Ir, LoopAndWhenCollectUses) {
  wa::PlaybookIr ir = ir_of(
      "- name: Install packages\n"
      "  ansible.builtin.apt:\n"
      "    name: \"{{ item }}\"\n"
      "    state: present\n"
      "  loop: \"{{ package_list }}\"\n"
      "  when: install_enabled\n");
  const wa::IrTask& t = ir.tasks[0];
  EXPECT_TRUE(t.has_loop);
  EXPECT_EQ(t.loop_var, "item");
  EXPECT_TRUE(t.has_when);
  EXPECT_TRUE(t.when_span.valid());
  std::vector<std::string> names;
  for (const wa::VarUse& u : t.uses) names.push_back(u.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "package_list"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "install_enabled"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "item"), names.end());
}

// --- dataflow: reaching definitions -------------------------------------------

TEST(Dataflow, UseBeforeDefiningTaskIsFlagged) {
  auto findings = dataflow_of(
      "- name: Show result\n"
      "  ansible.builtin.debug:\n"
      "    msg: \"{{ probe_result.stdout }}\"\n"
      "- name: Probe\n"
      "  ansible.builtin.command: uptime\n"
      "  register: probe_result\n");
  ASSERT_EQ(count_findings(findings, "undefined-variable"), 1u);
  for (const wa::Finding& f : findings) {
    if (f.rule != "undefined-variable") continue;
    EXPECT_EQ(f.message,
              "variable 'probe_result' is used before the task that "
              "defines it");
    EXPECT_TRUE(f.span.valid());
  }
}

TEST(Dataflow, DefThenUseIsClean) {
  auto findings = dataflow_of(
      "- name: Probe\n"
      "  ansible.builtin.command: uptime\n"
      "  register: probe_result\n"
      "- name: Show result\n"
      "  ansible.builtin.debug:\n"
      "    msg: \"{{ probe_result.stdout }}\"\n");
  EXPECT_EQ(count_findings(findings, "undefined-variable"), 0u);
  EXPECT_EQ(count_findings(findings, "unused-register"), 0u);
}

TEST(Dataflow, InventoryVariablesNeverFalsePositive) {
  // ansible_hostname is defined outside the document; only names the
  // document itself defines somewhere are use-before-def candidates.
  auto findings = dataflow_of(
      "- name: Greet\n"
      "  ansible.builtin.debug:\n"
      "    msg: \"hello from {{ ansible_hostname }}\"\n");
  EXPECT_EQ(count_findings(findings, "undefined-variable"), 0u);
}

TEST(Dataflow, SetFactDefinesForLaterTasks) {
  auto clean = dataflow_of(
      "- name: Set version\n"
      "  ansible.builtin.set_fact:\n"
      "    app_version: 1.2.3\n"
      "- name: Show version\n"
      "  ansible.builtin.debug:\n"
      "    msg: \"deploying {{ app_version }}\"\n");
  EXPECT_EQ(count_findings(clean, "undefined-variable"), 0u);
  auto reversed = dataflow_of(
      "- name: Show version\n"
      "  ansible.builtin.debug:\n"
      "    msg: \"deploying {{ app_version }}\"\n"
      "- name: Set version\n"
      "  ansible.builtin.set_fact:\n"
      "    app_version: 1.2.3\n");
  EXPECT_EQ(count_findings(reversed, "undefined-variable"), 1u);
}

TEST(Dataflow, ReachingDefinitionsMatchHandComputedChain) {
  // Hand-computed def-use chain over a real playbook: every use is reached
  // by an earlier def, so the pass must stay silent; dropping the play
  // vars breaks exactly one link.
  const std::string playbook =
      "- name: Deploy\n"
      "  hosts: app\n"
      "  vars:\n"
      "    app_name: web\n"
      "  tasks:\n"
      "    - name: Build\n"
      "      ansible.builtin.command: \"make {{ app_name }}\"\n"
      "      register: build_result\n"
      "    - name: Summarize\n"
      "      ansible.builtin.set_fact:\n"
      "        build_summary: \"{{ build_result.stdout }}\"\n"
      "    - name: Report\n"
      "      ansible.builtin.debug:\n"
      "        msg: \"{{ build_summary }} for {{ app_name }}\"\n";
  wa::PlaybookIr ir = ir_of(playbook);
  // def(app_name)@play, def(build_result)@0, def(build_summary)@1;
  // use(app_name)@0, use(build_result)@1, use(build_summary, app_name)@2.
  ASSERT_EQ(ir.plays.size(), 1u);
  ASSERT_EQ(ir.plays[0].vars.size(), 1u);
  EXPECT_EQ(ir.plays[0].vars[0].name, "app_name");
  const wa::IrTask* build = task_named(ir, "Build");
  const wa::IrTask* report = task_named(ir, "Report");
  ASSERT_NE(build, nullptr);
  ASSERT_NE(report, nullptr);
  ASSERT_EQ(build->uses.size(), 1u);
  EXPECT_EQ(build->uses[0].name, "app_name");
  ASSERT_EQ(report->uses.size(), 2u);
  auto findings = wa::dataflow_pass(ir);
  EXPECT_EQ(count_findings(findings, "undefined-variable"), 0u);
  EXPECT_EQ(count_findings(findings, "unused-register"), 0u);
}

TEST(Dataflow, UnusedRegisterFlaggedUnderscoreOptsOut) {
  auto findings = dataflow_of(
      "- name: Run probe\n"
      "  ansible.builtin.command: uptime\n"
      "  register: probe_result\n");
  ASSERT_EQ(count_findings(findings, "unused-register"), 1u);
  for (const wa::Finding& f : findings) {
    if (f.rule != "unused-register") continue;
    EXPECT_EQ(f.message, "registered variable 'probe_result' is never used");
  }
  auto opted_out = dataflow_of(
      "- name: Run probe\n"
      "  ansible.builtin.command: uptime\n"
      "  register: _probe_result\n");
  EXPECT_EQ(count_findings(opted_out, "unused-register"), 0u);
}

TEST(Dataflow, RegisterOverwrittenBeforeRead) {
  auto findings = dataflow_of(
      "- name: First\n"
      "  ansible.builtin.command: echo one\n"
      "  register: cmd_out\n"
      "- name: Second\n"
      "  ansible.builtin.command: echo two\n"
      "  register: cmd_out\n"
      "- name: Show\n"
      "  ansible.builtin.debug:\n"
      "    msg: \"{{ cmd_out.stdout }}\"\n");
  EXPECT_EQ(count_findings(findings, "register-overwritten"), 1u);
  // Reading between the writes clears the pending state...
  auto read_between = dataflow_of(
      "- name: First\n"
      "  ansible.builtin.command: echo one\n"
      "  register: cmd_out\n"
      "- name: Log\n"
      "  ansible.builtin.debug:\n"
      "    msg: \"{{ cmd_out.stdout }}\"\n"
      "- name: Second\n"
      "  ansible.builtin.command: echo two\n"
      "  register: cmd_out\n"
      "- name: Show\n"
      "  ansible.builtin.debug:\n"
      "    msg: \"{{ cmd_out.stdout }}\"\n");
  EXPECT_EQ(count_findings(read_between, "register-overwritten"), 0u);
  // ...and a conditional second write is not a certain overwrite.
  auto guarded = dataflow_of(
      "- name: First\n"
      "  ansible.builtin.command: echo one\n"
      "  register: cmd_out\n"
      "- name: Second\n"
      "  ansible.builtin.command: echo two\n"
      "  register: cmd_out\n"
      "  when: cmd_out.rc != 0\n"
      "- name: Show\n"
      "  ansible.builtin.debug:\n"
      "    msg: \"{{ cmd_out.stdout }}\"\n");
  EXPECT_EQ(count_findings(guarded, "register-overwritten"), 0u);
}

TEST(Dataflow, BlockVersusRescueWritesAreNotOverwrites) {
  // The same register on the try and the rescue branch is the standard
  // fallback idiom, not a dead store.
  auto findings = dataflow_of(
      "- name: Attempt\n"
      "  block:\n"
      "    - name: Try\n"
      "      ansible.builtin.command: primary-probe\n"
      "      register: probe_out\n"
      "  rescue:\n"
      "    - name: Fall back\n"
      "      ansible.builtin.command: secondary-probe\n"
      "      register: probe_out\n"
      "- name: Show\n"
      "  ansible.builtin.debug:\n"
      "    msg: \"{{ probe_out.stdout }}\"\n");
  EXPECT_EQ(count_findings(findings, "register-overwritten"), 0u);
}

TEST(Dataflow, UnreachableAfterUnconditionalEndPlay) {
  auto findings = dataflow_of(
      "- name: Stop early\n"
      "  ansible.builtin.meta: end_play\n"
      "- name: Never runs\n"
      "  ansible.builtin.debug:\n"
      "    msg: hello\n");
  ASSERT_EQ(count_findings(findings, "unreachable-task"), 1u);
  // A guarded end_play keeps the tail reachable.
  auto guarded = dataflow_of(
      "- name: Stop early\n"
      "  ansible.builtin.meta: end_play\n"
      "  when: skip_rest is defined\n"
      "- name: Still runs\n"
      "  ansible.builtin.debug:\n"
      "    msg: hello\n");
  EXPECT_EQ(count_findings(guarded, "unreachable-task"), 0u);
}

TEST(Dataflow, WhenConstantFalseNeverRuns) {
  auto findings = dataflow_of(
      "- name: Disabled\n"
      "  ansible.builtin.command: echo hi\n"
      "  when: false\n");
  ASSERT_EQ(count_findings(findings, "unreachable-task"), 1u);
  for (const wa::Finding& f : findings) {
    if (f.rule != "unreachable-task") continue;
    EXPECT_EQ(f.message,
              "task can never run: its 'when' condition is always false");
  }
}

TEST(Dataflow, UndefinedAndUnusedHandlers) {
  auto findings = dataflow_of(
      "- name: Site\n"
      "  hosts: web\n"
      "  tasks:\n"
      "    - name: Deploy\n"
      "      ansible.builtin.copy:\n"
      "        src: nginx.conf\n"
      "        dest: /etc/nginx/nginx.conf\n"
      "      notify: restart nginx\n"
      "  handlers:\n"
      "    - name: reload nginx\n"
      "      ansible.builtin.service:\n"
      "        name: nginx\n"
      "        state: reloaded\n");
  EXPECT_EQ(count_findings(findings, "undefined-handler"), 1u);
  EXPECT_EQ(count_findings(findings, "unused-handler"), 1u);
  for (const wa::Finding& f : findings) {
    if (f.rule == "undefined-handler") {
      EXPECT_EQ(f.message,
                "notify target 'restart nginx' matches no handler in this "
                "play");
    }
    if (f.rule == "unused-handler") {
      EXPECT_EQ(f.message, "handler 'reload nginx' is never notified");
    }
  }
}

TEST(Dataflow, BareTaskListsDoNotResolveHandlers) {
  // A task file notifies handlers that live in the including play; no
  // handler section in scope means no verdict either way.
  auto findings = dataflow_of(
      "- name: Deploy\n"
      "  ansible.builtin.copy:\n"
      "    src: app.conf\n"
      "    dest: /etc/app.conf\n"
      "  notify: restart app\n");
  EXPECT_EQ(count_findings(findings, "undefined-handler"), 0u);
}

TEST(Dataflow, LoopVariableRenamedByLoopControl) {
  auto findings = dataflow_of(
      "- name: Install packages\n"
      "  ansible.builtin.apt:\n"
      "    name: \"{{ item }}\"\n"
      "    state: present\n"
      "  loop: [vim, git]\n"
      "  loop_control:\n"
      "    loop_var: pkg\n");
  ASSERT_EQ(count_findings(findings, "undefined-variable"), 1u);
  for (const wa::Finding& f : findings) {
    if (f.rule != "undefined-variable") continue;
    EXPECT_EQ(f.message,
              "loop variable 'item' is used but loop_control renames the "
              "loop variable to 'pkg'");
  }
  auto renamed_used = dataflow_of(
      "- name: Install packages\n"
      "  ansible.builtin.apt:\n"
      "    name: \"{{ pkg }}\"\n"
      "    state: present\n"
      "  loop: [vim, git]\n"
      "  loop_control:\n"
      "    loop_var: pkg\n");
  EXPECT_EQ(count_findings(renamed_used, "undefined-variable"), 0u);
}

// --- catalog-backed type checking ---------------------------------------------

TEST(Typecheck, QuotedBoolSpellingIsAutoFixed) {
  const std::string text =
      "- name: Update cache\n"
      "  ansible.builtin.apt:\n"
      "    update_cache: \"yes\"\n";
  auto result = wa::analyze(text);
  const wa::Diagnostic* d = find_rule(result, "param-value");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->fixable());
  auto repaired = wa::repair(text);
  EXPECT_TRUE(repaired.converged);
  EXPECT_NE(repaired.text.find("update_cache: true"), std::string::npos);
  EXPECT_FALSE(has_rule(wa::analyze(repaired.text), "param-value"));
}

TEST(Typecheck, ChoiceCaseMismatchIsAutoFixed) {
  const std::string text =
      "- name: Install nginx\n"
      "  ansible.builtin.apt:\n"
      "    name: nginx\n"
      "    state: Present\n";
  auto result = wa::analyze(text);
  const wa::Diagnostic* d = find_rule(result, "param-value");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->fixable());
  auto repaired = wa::repair(text);
  EXPECT_TRUE(repaired.converged);
  EXPECT_NE(repaired.text.find("state: present"), std::string::npos);
}

TEST(Typecheck, ChoiceTypoFixedToUniqueClosestOnly) {
  // 'presnt' is one edit from exactly one choice: fixable.
  auto close = wa::repair(
      "- name: Install nginx\n"
      "  ansible.builtin.apt:\n"
      "    name: nginx\n"
      "    state: presnt\n");
  EXPECT_TRUE(close.converged);
  EXPECT_NE(close.text.find("state: present"), std::string::npos);
  // Garbage is not close to any choice: diagnosed but left alone.
  const std::string garbage =
      "- name: Install nginx\n"
      "  ansible.builtin.apt:\n"
      "    name: nginx\n"
      "    state: zzzzz\n";
  const auto result = wa::analyze(garbage);
  const wa::Diagnostic* d = find_rule(result, "param-value");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->fixable());
}

TEST(Typecheck, UnknownParamTypoRenamedToCatalogName) {
  const std::string text =
      "- name: Install nginx\n"
      "  ansible.builtin.apt:\n"
      "    name: nginx\n"
      "    stat: present\n";
  auto result = wa::analyze(text);
  const wa::Diagnostic* d = find_rule(result, "unknown-param");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->fixable());
  auto repaired = wa::repair(text);
  EXPECT_TRUE(repaired.converged);
  EXPECT_NE(repaired.text.find("state: present"), std::string::npos);
  EXPECT_TRUE(wa::analyze(repaired.text).ok());
}

TEST(Typecheck, UnknownParamRenameRefusedWhenTargetPresent) {
  // Renaming 'stat' to 'state' would duplicate the existing key; the
  // diagnostic must stay but carry no edit.
  const std::string text =
      "- name: Install nginx\n"
      "  ansible.builtin.apt:\n"
      "    name: nginx\n"
      "    state: present\n"
      "    stat: present\n";
  const auto result = wa::analyze(text);
  const wa::Diagnostic* d = find_rule(result, "unknown-param");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->fixable());
}

TEST(Typecheck, MutuallyExclusiveParamsAreSemanticErrors) {
  const std::string text =
      "- name: Copy config\n"
      "  ansible.builtin.copy:\n"
      "    src: files/app.conf\n"
      "    content: override\n"
      "    dest: /etc/app.conf\n";
  auto result = wa::analyze(text);
  const wa::Diagnostic* d = find_rule(result, "param-mutually-exclusive");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, wa::Severity::Error);
  EXPECT_EQ(d->message,
            "module 'ansible.builtin.copy' parameters 'src' and 'content' "
            "are mutually exclusive");
  EXPECT_TRUE(d->span.valid());
  // The paper's Schema Correct metric must not move; the new semantic
  // axis is what tightens.
  EXPECT_TRUE(wm::schema_correct(result));
  EXPECT_FALSE(wm::semantic_correct(result));
}

TEST(Typecheck, RequiredTogetherParamsWarn) {
  const std::string text =
      "- name: Download release\n"
      "  ansible.builtin.get_url:\n"
      "    url: https://example.com/pkg.tgz\n"
      "    dest: /tmp/pkg.tgz\n"
      "    url_username: deploy\n";
  auto result = wa::analyze(text);
  const wa::Diagnostic* d = find_rule(result, "param-required-together");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, wa::Severity::Warning);
  EXPECT_EQ(d->message,
            "module 'ansible.builtin.get_url' parameter group requires "
            "'url_password' to be set as well");
  const std::string complete =
      "- name: Download release\n"
      "  ansible.builtin.get_url:\n"
      "    url: https://example.com/pkg.tgz\n"
      "    dest: /tmp/pkg.tgz\n"
      "    url_username: deploy\n"
      "    url_password: \"{{ vault_deploy_password }}\"\n"
      "  no_log: true\n";
  EXPECT_FALSE(has_rule(wa::analyze(complete), "param-required-together"));
}

// --- taint: secrets and no_log ------------------------------------------------

TEST(Taint, SecretParamWithoutNoLogIsFlaggedAndFixed) {
  const std::string text =
      "- name: Create db user\n"
      "  community.mysql.mysql_user:\n"
      "    name: app\n"
      "    password: \"{{ vault_db_password }}\"\n";
  auto result = wa::analyze(text);
  const wa::Diagnostic* d = find_rule(result, "no-log-missing");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, wa::Severity::Warning);
  EXPECT_TRUE(d->fixable());
  auto repaired = wa::repair(text);
  EXPECT_TRUE(repaired.converged);
  EXPECT_NE(repaired.text.find("no_log: true"), std::string::npos);
  EXPECT_FALSE(has_rule(wa::analyze(repaired.text), "no-log-missing"));
}

TEST(Taint, ExplicitNoLogTrueSuppresses) {
  auto result = wa::analyze(
      "- name: Create db user\n"
      "  community.mysql.mysql_user:\n"
      "    name: app\n"
      "    password: \"{{ vault_db_password }}\"\n"
      "  no_log: true\n");
  EXPECT_FALSE(has_rule(result, "no-log-missing"));
}

TEST(Taint, ExplicitNoLogFalseFlagsWithoutAutoFix) {
  // `no_log: false` is a deliberate decision: diagnose it, but never
  // splice a duplicate key next to it.
  auto result = wa::analyze(
      "- name: Create db user\n"
      "  community.mysql.mysql_user:\n"
      "    name: app\n"
      "    password: \"{{ vault_db_password }}\"\n"
      "  no_log: false\n");
  const wa::Diagnostic* d = find_rule(result, "no-log-missing");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->fixable());
}

TEST(Taint, RegisteredSecretFlowsIntoDebug) {
  const std::string text =
      "- name: Read token\n"
      "  ansible.builtin.command: cat /etc/app/token\n"
      "  register: token_result\n"
      "- name: Show\n"
      "  ansible.builtin.debug:\n"
      "    var: token_result\n";
  auto result = wa::analyze(text);
  const wa::Diagnostic* d = find_rule(result, "secret-logging");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, wa::Severity::Warning);
  EXPECT_TRUE(d->fixable());
  auto repaired = wa::repair(text);
  EXPECT_TRUE(repaired.converged);
  EXPECT_FALSE(has_rule(wa::analyze(repaired.text), "secret-logging"));
}

TEST(Taint, SecretPropagatesThroughRegisterOfSecretParamModule) {
  // The module call handles a credential; its registered result is tainted
  // even though the register name itself is innocuous.
  auto result = wa::analyze(
      "- name: Create db user\n"
      "  community.mysql.mysql_user:\n"
      "    name: app\n"
      "    password: \"{{ vault_db_password }}\"\n"
      "  no_log: true\n"
      "  register: user_result\n"
      "- name: Show\n"
      "  ansible.builtin.debug:\n"
      "    var: user_result\n");
  EXPECT_TRUE(has_rule(result, "secret-logging"));
}

TEST(Taint, SecretLookupInLoggedMessage) {
  auto result = wa::analyze(
      "- name: Show env\n"
      "  ansible.builtin.debug:\n"
      "    msg: \"{{ lookup('env', 'DB_PASSWORD') }}\"\n");
  const wa::Diagnostic* d = find_rule(result, "secret-logging");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("lookup"), std::string::npos);
}

TEST(Taint, SecretShapedVariableInTaskName) {
  auto result = wa::analyze(
      "- name: Rotate {{ vault_db_password }}\n"
      "  ansible.builtin.debug:\n"
      "    msg: rotated\n");
  const wa::Diagnostic* d = find_rule(result, "secret-in-name");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, wa::Severity::Warning);
  // no_log cannot help: names always print.
  auto with_no_log = wa::analyze(
      "- name: Rotate {{ vault_db_password }}\n"
      "  ansible.builtin.debug:\n"
      "    msg: rotated\n"
      "  no_log: true\n");
  EXPECT_TRUE(has_rule(with_no_log, "secret-in-name"));
}

TEST(Taint, SecretShapeNamePredicate) {
  EXPECT_TRUE(wa::secret_shaped_name("vault_anything"));
  EXPECT_TRUE(wa::secret_shaped_name("db_password"));
  EXPECT_TRUE(wa::secret_shaped_name("API_KEY"));
  EXPECT_TRUE(wa::secret_shaped_name("github_token"));
  EXPECT_FALSE(wa::secret_shaped_name("package_list"));
  EXPECT_FALSE(wa::secret_shaped_name("result"));
}

// --- semantic_correct metric and gate -----------------------------------------

TEST(SemanticMetric, StrictlyStrongerThanSchemaCorrect) {
  // Clean snippet: both hold.
  const std::string clean =
      "- name: Install nginx\n"
      "  ansible.builtin.apt:\n"
      "    name: nginx\n"
      "    state: present\n";
  EXPECT_TRUE(wm::schema_correct(clean));
  EXPECT_TRUE(wm::semantic_correct(clean));
  // Semantic error only: schema holds, semantic does not.
  const std::string exclusive =
      "- name: Copy config\n"
      "  ansible.builtin.copy:\n"
      "    src: files/app.conf\n"
      "    content: override\n"
      "    dest: /etc/app.conf\n";
  EXPECT_TRUE(wm::schema_correct(exclusive));
  EXPECT_FALSE(wm::semantic_correct(exclusive));
  // Schema error: neither holds.
  const std::string broken =
      "- name: Broken\n  ansible.builtin.notamodule:\n    x: 1\n";
  EXPECT_FALSE(wm::schema_correct(broken));
  EXPECT_FALSE(wm::semantic_correct(broken));
}

TEST(SemanticMetric, AccumulatorReportsSemanticColumn) {
  wm::MetricsAccumulator acc;
  const std::string clean =
      "- name: Install nginx\n"
      "  ansible.builtin.apt:\n"
      "    name: nginx\n"
      "    state: present\n";
  const std::string exclusive =
      "- name: Copy config\n"
      "  ansible.builtin.copy:\n"
      "    src: files/app.conf\n"
      "    content: override\n"
      "    dest: /etc/app.conf\n";
  acc.add(clean, clean);
  acc.add(exclusive, exclusive);
  wm::MetricsReport report = acc.report();
  EXPECT_EQ(report.schema_correct, 100.0);
  EXPECT_EQ(report.semantic_correct, 50.0);
  EXPECT_NE(report.to_string().find(" sem=50.00"), std::string::npos);
}

TEST(LintGate, RejectDegradedRefusesSemanticErrors) {
  // Schema-correct but semantically broken: the gate must refuse it.
  ws::LintOutcome outcome = ws::lint_gate(
      "- name: Copy config\n"
      "  ansible.builtin.copy:\n"
      "    src: files/app.conf\n"
      "    content: override\n"
      "    dest: /etc/app.conf\n",
      ws::LintPolicy::RejectDegraded);
  EXPECT_TRUE(outcome.schema_correct);
  EXPECT_FALSE(outcome.semantic_correct);
  EXPECT_TRUE(outcome.rejected);
  // Fixable semantic findings are repaired, not rejected.
  ws::LintOutcome fixed = ws::lint_gate(
      "- name: Create db user\n"
      "  community.mysql.mysql_user:\n"
      "    name: app\n"
      "    password: \"{{ vault_db_password }}\"\n",
      ws::LintPolicy::RejectDegraded);
  EXPECT_FALSE(fixed.rejected);
  EXPECT_TRUE(fixed.repaired);
  EXPECT_TRUE(fixed.semantic_correct);
  EXPECT_NE(fixed.snippet.find("no_log: true"), std::string::npos);
}

TEST(Repair, EveryNewFixableRuleConvergesToSemanticCorrect) {
  // One document per newly fixable rule; repair must reach a fixed point
  // that the semantic metric accepts.
  const std::vector<std::string> docs = {
      // param-value (bool spelling)
      "- name: Update cache\n  ansible.builtin.apt:\n"
      "    update_cache: \"yes\"\n",
      // param-value (choice typo)
      "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n"
      "    state: presnt\n",
      // unknown-param (typo rename)
      "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n"
      "    stat: present\n",
      // no-log-missing
      "- name: Create db user\n  community.mysql.mysql_user:\n"
      "    name: app\n    password: \"{{ vault_db_password }}\"\n",
      // secret-logging
      "- name: Read token\n  ansible.builtin.command: cat /etc/token\n"
      "  register: token_out\n"
      "- name: Show\n  ansible.builtin.debug:\n    var: token_out\n",
  };
  for (const std::string& doc : docs) {
    auto repaired = wa::repair(doc);
    EXPECT_TRUE(repaired.converged) << doc;
    EXPECT_EQ(repaired.final_result.fixable_count(), 0u) << doc;
    EXPECT_TRUE(wm::semantic_correct(repaired.final_result)) << doc;
  }
}

// --- SARIF output -------------------------------------------------------------

TEST(Sarif, CarriesRuleRegistryAndSpannedResults) {
  const std::string text =
      "- name: Install nginx\n"
      "  apt:\n"
      "    name: nginx\n"
      "    state: present\n";
  auto result = wa::analyze(text);
  ASSERT_TRUE(has_rule(result, "fqcn"));
  std::string sarif =
      wa::format_sarif({wa::SarifArtifact{"playbooks/site.yml", &result}});
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"wisdom_lint\""), std::string::npos);
  // Every registered rule appears in the driver metadata.
  for (const wa::RuleInfo& rule : wa::all_rules()) {
    EXPECT_NE(sarif.find("\"id\":\"" + std::string(rule.id) + "\""),
              std::string::npos)
        << rule.id;
  }
  EXPECT_NE(sarif.find("\"ruleId\":\"fqcn\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\":\"playbooks/site.yml\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":2"), std::string::npos);
}

TEST(Sarif, UnlocatedResultsOmitRegionAndOutputIsDeterministic) {
  // A diagnostic with no source location renders without a region.
  wa::AnalysisResult unlocated;
  unlocated.parsed = true;
  wa::Diagnostic d;
  d.rule = "yaml-syntax";
  d.message = "unlocated failure";
  unlocated.diagnostics.push_back(d);
  std::string sarif =
      wa::format_sarif({wa::SarifArtifact{"broken.yml", &unlocated}});
  EXPECT_NE(sarif.find("\"ruleId\":\"yaml-syntax\""), std::string::npos);
  EXPECT_EQ(sarif.find("\"region\""), std::string::npos);
  EXPECT_EQ(sarif,
            wa::format_sarif({wa::SarifArtifact{"broken.yml", &unlocated}}));
  // Multiple artifacts render in input order into one run.
  auto other = wa::analyze(
      "- name: Install nginx\n  apt:\n    name: nginx\n    state: present\n");
  std::string combined = wa::format_sarif(
      {wa::SarifArtifact{"broken.yml", &unlocated},
       wa::SarifArtifact{"site.yml", &other}});
  EXPECT_LT(combined.find("broken.yml"), combined.find("site.yml"));
}

TEST(Rules, SemanticRulesAreRegisteredWithMetadata) {
  static constexpr std::string_view kSemanticRules[] = {
      "no-log-missing",     "param-mutually-exclusive",
      "param-required-together", "register-overwritten",
      "secret-in-name",     "secret-logging",
      "undefined-handler",  "unreachable-task",
      "unused-handler",     "unused-register",
  };
  for (std::string_view id : kSemanticRules) {
    const wa::RuleInfo* info = wa::find_rule(id);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_TRUE(info->semantic) << id;
  }
  // The paper-era schema rules stay non-semantic.
  ASSERT_NE(wa::find_rule("unknown-module"), nullptr);
  EXPECT_FALSE(wa::find_rule("unknown-module")->semantic);
}
