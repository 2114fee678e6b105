// Playbook intermediate representation.
//
// `build_ir` lowers a parsed document (single task, task list, or playbook)
// into a flat arena of tasks with explicit structure: play membership,
// block/rescue/always nesting, handler subscriptions, per-task variable
// definitions and uses, and a control-flow edge list. Every IR node keeps
// the `yaml::Span`s of the source it came from, so the semantic passes
// (dataflow, typecheck, taint) emit diagnostics anchored exactly like the
// base linter's — and auto-fix edits that splice into the original bytes.
//
// The IR is deliberately lossless about *where* things are and lossy about
// everything the passes do not need; it is also the substrate the ROADMAP's
// grammar-constrained decoding item will consume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "ansible/catalog.hpp"
#include "yaml/node.hpp"

namespace wisdom::analysis {

inline constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);

// A finding produced by a semantic pass, routed through the engine's
// config-aware emitter (which applies severity overrides / disable sets).
struct Finding {
  std::string_view rule;
  std::string message;
  yaml::Span span;
  std::vector<TextEdit> edits;
};

// A fix computed during traversal, matched to an *existing* diagnostic
// afterwards by (rule, span.begin) — the base linter produces the
// diagnostic, the traversal knows the edit.
struct FixCandidate {
  std::string_view rule;
  std::size_t anchor = 0;  // span.begin of the diagnostic it repairs
  std::vector<TextEdit> edits;
};

enum class DefKind : std::uint8_t { Register, SetFact, TaskVars, PlayVars };

struct VarDef {
  std::string name;
  DefKind kind = DefKind::Register;
  yaml::Span span;  // the defining key/value
};

struct VarUse {
  std::string name;       // root identifier the expression dereferences
  yaml::Span span;        // the string the reference appears in
  bool in_name = false;   // inside the task's `name:` (always displayed)
};

// Which list of its parent block a task lives in.
enum class BlockSection : std::uint8_t { None = 0, Block, Rescue, Always };

struct IrTask {
  std::size_t id = 0;
  const yaml::Node* node = nullptr;
  yaml::Span span;

  std::string name;    // "" when unnamed
  std::string module;  // module key as written; "" for blocks / keyword-only
  const yaml::Node* args = nullptr;     // module argument node
  const yaml::Node* args_kw = nullptr;  // the `args:` keyword mapping, if any
  const ansible::ModuleSpec* spec = nullptr;  // catalog entry; may be null

  bool is_block = false;
  std::vector<std::size_t> block, rescue, always;  // child task ids
  std::size_t parent = kNoTask;
  BlockSection section = BlockSection::None;  // which parent list holds us

  bool is_handler = false;
  std::vector<std::string> listen;  // handler subscription topics

  bool has_loop = false;
  std::string loop_var = "item";  // loop_control.loop_var override applied
  std::string register_name;      // "" when the task does not register
  yaml::Span register_span;       // span of the register value

  bool no_log = false;          // `no_log: true` is set
  bool has_no_log_key = false;  // a `no_log:` key exists (any value)
  bool has_when = false;
  yaml::Span when_span;              // span of the `when:` value
  bool when_constant_false = false;  // `when: false` (possibly in a list)
  bool ends_play = false;            // `meta: end_play` (end_host is per-host)

  std::vector<VarDef> defs;
  std::vector<VarUse> uses;
  // notify targets with the span of each name.
  std::vector<std::pair<std::string, yaml::Span>> notify;
};

struct IrPlay {
  const yaml::Node* node = nullptr;  // null for the synthetic wrapper play
  yaml::Span span;
  std::vector<VarDef> vars;            // play-level `vars:` definitions
  std::vector<std::size_t> tasks;      // top-level ids, pre/tasks/post order
  std::vector<std::size_t> handlers;   // top-level handler ids
};

enum class EdgeKind : std::uint8_t { Seq, Block, Rescue, Always, Notify };

struct CfgEdge {
  std::size_t from = kNoTask;
  std::size_t to = kNoTask;
  EdgeKind kind = EdgeKind::Seq;
};

struct PlaybookIr {
  // The document the IR's node pointers point into. The IR shares it, so
  // no IR outlives the nodes it refers to.
  std::shared_ptr<const yaml::Node> doc;
  std::vector<IrTask> tasks;  // arena; ids index into it
  std::vector<IrPlay> plays;
  std::vector<CfgEdge> edges;
  bool is_playbook = false;  // document was a play sequence (real plays)

  // Leaf (non-block) tasks a play may execute, in execution order; block
  // nodes are included pre-order so their `when`/`vars` scope is visible
  // before their children.
  std::vector<std::size_t> execution_order(const IrPlay& play) const;

  // The handler of `play` whose name or listen topic matches `notify_name`;
  // kNoTask when none does.
  std::size_t resolve_handler(const IrPlay& play,
                              std::string_view notify_name) const;

  // The chain of (block id, section) pairs enclosing `id`, outermost first.
  // Two tasks on the same chain run under the same failure branch, so a
  // redefinition between them is a genuine overwrite rather than a
  // block-vs-rescue alternative.
  std::vector<std::pair<std::size_t, BlockSection>> branch_path(
      std::size_t id) const;
};

// Lowers a parsed document into IR. Accepts the same document shapes the
// engine analyzes: a single task mapping, a task list, or a playbook; a
// synthetic play wraps the first two so every task has a play context.
// The IR keeps `doc` alive (PlaybookIr::doc).
PlaybookIr build_ir(std::shared_ptr<const yaml::Node> doc);

// Root identifiers a Jinja expression dereferences: `result.rc != 0` yields
// {result}; filters (`x | default(1)`), tests (`x is defined`), attribute
// accesses and calls are not roots. Quoted strings are skipped.
void expr_roots(std::string_view text, std::vector<std::string>& out);

// Roots referenced by the {{ ... }} interpolations of a template string.
void template_roots(std::string_view text, std::vector<std::string>& out);

}  // namespace wisdom::analysis
