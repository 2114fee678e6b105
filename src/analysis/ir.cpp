#include "analysis/ir.hpp"

#include <algorithm>
#include <cctype>

#include "ansible/keywords.hpp"
#include "ansible/model.hpp"
#include "util/strings.hpp"

namespace wisdom::analysis {

namespace util = wisdom::util;
namespace ans = wisdom::ansible;

namespace {

bool is_expr_keyword_token(std::string_view token) {
  static constexpr std::string_view kKeywords[] = {
      "and", "or",   "not",  "in",    "is",    "if",   "else",
      "true", "false", "True", "False", "none", "None", "null",
  };
  for (std::string_view k : kKeywords)
    if (token == k) return true;
  return false;
}

}  // namespace

void expr_roots(std::string_view text, std::vector<std::string>& out) {
  std::string prev_token;
  char prev_sig = 0;  // last significant (non-space) char before the token
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '\'' || c == '"') {
      char quote = c;
      ++i;
      while (i < text.size() && text[i] != quote) ++i;
      prev_sig = quote;
      prev_token.clear();
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) ||
              text[j] == '_'))
        ++j;
      std::string token(text.substr(i, j - i));
      bool is_call = j < text.size() && text[j] == '(';
      if (prev_sig != '.' && prev_token != "|" && prev_token != "is" &&
          !is_call && !is_expr_keyword_token(token)) {
        if (std::find(out.begin(), out.end(), token) == out.end())
          out.push_back(token);
      }
      prev_token = std::move(token);
      prev_sig = 'a';
      i = j - 1;
      continue;
    }
    if (!std::isspace(static_cast<unsigned char>(c))) {
      prev_sig = c;
      prev_token.assign(1, c);
    }
  }
}

void template_roots(std::string_view text, std::vector<std::string>& out) {
  std::size_t pos = 0;
  while ((pos = text.find("{{", pos)) != std::string_view::npos) {
    std::size_t end = text.find("}}", pos + 2);
    if (end == std::string_view::npos) return;  // unbalanced: jinja-syntax
    expr_roots(text.substr(pos + 2, end - pos - 2), out);
    pos = end + 2;
  }
}

namespace {

bool is_expression_keyword(std::string_view key) {
  return key == "when" || key == "changed_when" || key == "failed_when" ||
         key == "until";
}

const yaml::Span& use_span(const yaml::Node& node) {
  return node.span().valid() ? node.span() : node.anchor_span();
}

void add_uses_from_string(const yaml::Node& node, bool expr_context,
                          bool in_name, IrTask& task) {
  std::vector<std::string> roots;
  if (expr_context && !util::contains(node.as_str(), "{{")) {
    expr_roots(node.as_str(), roots);
  } else {
    template_roots(node.as_str(), roots);
  }
  for (std::string& root : roots)
    task.uses.push_back(VarUse{std::move(root), use_span(node), in_name});
}

// Template-interpolation uses of every string in the subtree; values of
// expression keywords parse as bare Jinja expressions instead.
void collect_uses(const yaml::Node& node, bool expr_context, IrTask& task) {
  if (node.is_str()) {
    add_uses_from_string(node, expr_context, /*in_name=*/false, task);
    return;
  }
  if (node.is_map()) {
    for (const auto& [key, value] : node.entries())
      collect_uses(value, is_expression_keyword(key), task);
  } else if (node.is_seq()) {
    for (const yaml::Node& item : node.items())
      collect_uses(item, expr_context, task);
  }
}

// `when: false`, `when: "false"` or a condition list containing one.
bool is_constant_false(const yaml::Node& value) {
  if (value.is_bool()) return !value.as_bool();
  if (value.is_str()) {
    std::string_view text = util::trim(value.as_str());
    return text == "false" || text == "False";
  }
  if (value.is_seq()) {
    for (const yaml::Node& item : value.items())
      if (is_constant_false(item)) return true;
  }
  return false;
}

void collect_names(const yaml::Node& value, std::vector<std::string>& out) {
  if (value.is_str()) {
    out.push_back(value.as_str());
  } else if (value.is_seq()) {
    for (const yaml::Node& item : value.items())
      if (item.is_str()) out.push_back(item.as_str());
  }
}

struct Builder {
  PlaybookIr ir;
  const ans::ModuleCatalog& catalog = ans::ModuleCatalog::instance();

  // Lowers one task/block mapping (recursing into block lists) and returns
  // its arena id; kNoTask for non-mapping items.
  std::size_t add_task(const yaml::Node& node, std::size_t parent,
                       BlockSection section, bool is_handler) {
    if (!node.is_map()) return kNoTask;
    std::size_t id = ir.tasks.size();
    ir.tasks.push_back(IrTask{});
    {
      IrTask& t = ir.tasks.back();
      t.id = id;
      t.node = &node;
      t.span = node.span();
      t.parent = parent;
      t.section = section;
      t.is_handler = is_handler;
      t.is_block = ans::is_block(node);
      classify(node, t);
    }
    if (ir.tasks[id].is_block) {
      add_children(node, "block", id, BlockSection::Block, is_handler);
      add_children(node, "rescue", id, BlockSection::Rescue, is_handler);
      add_children(node, "always", id, BlockSection::Always, is_handler);
    }
    return id;
  }

  void add_children(const yaml::Node& node, std::string_view key,
                    std::size_t parent, BlockSection section,
                    bool is_handler) {
    const yaml::Node* list = node.find(key);
    if (!list || !list->is_seq()) return;
    std::vector<std::size_t> ids;
    for (const yaml::Node& item : list->items()) {
      std::size_t child = add_task(item, parent, section, is_handler);
      if (child != kNoTask) ids.push_back(child);
    }
    for (std::size_t i = 0; i + 1 < ids.size(); ++i)
      ir.edges.push_back(CfgEdge{ids[i], ids[i + 1], EdgeKind::Seq});
    EdgeKind kind = section == BlockSection::Block    ? EdgeKind::Block
                    : section == BlockSection::Rescue ? EdgeKind::Rescue
                                                      : EdgeKind::Always;
    if (!ids.empty()) ir.edges.push_back(CfgEdge{parent, ids.front(), kind});
    IrTask& block = ir.tasks[parent];
    auto& slot = section == BlockSection::Block    ? block.block
                 : section == BlockSection::Rescue ? block.rescue
                                                   : block.always;
    slot = std::move(ids);
  }

  // Fills the scalar fields, defs and uses of one task mapping. Blocks get
  // everything except a module; their child lists are handled separately.
  void classify(const yaml::Node& node, IrTask& t) {
    for (const auto& [key, value] : node.entries()) {
      if (key == "name") {
        if (value.is_str()) {
          t.name = value.as_str();
          add_uses_from_string(value, /*expr_context=*/false,
                               /*in_name=*/true, t);
        }
        continue;
      }
      if (t.is_block && ans::is_block_key(key)) continue;
      if (key == "register") {
        if (value.is_str()) {
          t.register_name = value.as_str();
          t.register_span = use_span(value);
          t.defs.push_back(
              VarDef{t.register_name, DefKind::Register, t.register_span});
        }
        continue;
      }
      if (key == "loop" || util::starts_with(key, "with_")) {
        t.has_loop = true;
        collect_uses(value, /*expr_context=*/false, t);
        continue;
      }
      if (key == "loop_control") {
        if (value.is_map()) {
          const yaml::Node* lv = value.find("loop_var");
          if (lv && lv->is_str()) t.loop_var = lv->as_str();
        }
        continue;
      }
      if (key == "vars") {
        if (value.is_map()) {
          for (const auto& [vname, vvalue] : value.entries()) {
            t.defs.push_back(
                VarDef{vname, DefKind::TaskVars, vvalue.anchor_span()});
            collect_uses(vvalue, /*expr_context=*/false, t);
          }
        }
        continue;
      }
      if (key == "no_log") {
        t.has_no_log_key = true;
        if (value.is_bool() && value.as_bool()) t.no_log = true;
        continue;
      }
      if (key == "when") {
        t.has_when = true;
        t.when_span = use_span(value);
        t.when_constant_false = is_constant_false(value);
        collect_uses(value, /*expr_context=*/true, t);
        continue;
      }
      if (is_expression_keyword(key)) {  // changed_when/failed_when/until
        collect_uses(value, /*expr_context=*/true, t);
        continue;
      }
      if (key == "notify") {
        if (value.is_str()) {
          t.notify.emplace_back(value.as_str(), use_span(value));
        } else if (value.is_seq()) {
          for (const yaml::Node& item : value.items())
            if (item.is_str())
              t.notify.emplace_back(item.as_str(), use_span(item));
        }
        continue;
      }
      if (key == "listen") {
        collect_names(value, t.listen);
        continue;
      }
      if (key == "args") {
        if (value.is_map()) t.args_kw = &value;
        collect_uses(value, /*expr_context=*/false, t);
        continue;
      }
      if (!t.is_block && !ans::find_task_keyword(key) && t.module.empty()) {
        t.module = key;
        t.args = &value;
        t.spec = catalog.resolve(key);
        collect_module(value, t);
        continue;
      }
      collect_uses(value, /*expr_context=*/false, t);
    }
  }

  void collect_module(const yaml::Node& args, IrTask& t) {
    bool is_set_fact = t.spec && t.spec->short_name == "set_fact";
    bool is_debug = t.spec && t.spec->short_name == "debug";
    if (t.spec && t.spec->short_name == "meta" && args.is_str()) {
      // end_host only ends the play for one host; other hosts continue, so
      // only end_play makes the tail provably dead.
      t.ends_play = util::trim(args.as_str()) == "end_play";
    }
    if (args.is_map()) {
      for (const auto& [key, value] : args.entries()) {
        if (is_set_fact && key != "cacheable") {
          t.defs.push_back(
              VarDef{key, DefKind::SetFact, value.anchor_span()});
        }
        if (is_debug && key == "var" && value.is_str()) {
          // `debug: var: result` takes a bare expression, not a template.
          add_uses_from_string(value, /*expr_context=*/true,
                               /*in_name=*/false, t);
          continue;
        }
        collect_uses(value, /*expr_context=*/false, t);
      }
      return;
    }
    collect_uses(args, /*expr_context=*/false, t);
  }

  void add_play(const yaml::Node* play_node, const yaml::Node* single_task,
                const std::vector<const yaml::Node*>& task_items) {
    IrPlay play;
    play.node = play_node;
    if (play_node) {
      play.span = play_node->span();
      if (const yaml::Node* vars = play_node->find("vars");
          vars && vars->is_map()) {
        for (const auto& [vname, vvalue] : vars->entries())
          play.vars.push_back(
              VarDef{vname, DefKind::PlayVars, vvalue.anchor_span()});
      }
      static constexpr std::string_view kTaskLists[] = {"pre_tasks", "tasks",
                                                        "post_tasks"};
      for (std::string_view key : kTaskLists) {
        const yaml::Node* list = play_node->find(key);
        if (!list || !list->is_seq()) continue;
        for (const yaml::Node& item : list->items()) {
          std::size_t id = add_task(item, kNoTask, BlockSection::None,
                                    /*is_handler=*/false);
          if (id != kNoTask) play.tasks.push_back(id);
        }
      }
      if (const yaml::Node* list = play_node->find("handlers");
          list && list->is_seq()) {
        for (const yaml::Node& item : list->items()) {
          std::size_t id = add_task(item, kNoTask, BlockSection::None,
                                    /*is_handler=*/true);
          if (id != kNoTask) play.handlers.push_back(id);
        }
      }
    } else if (single_task) {
      std::size_t id = add_task(*single_task, kNoTask, BlockSection::None,
                                /*is_handler=*/false);
      if (id != kNoTask) play.tasks.push_back(id);
    } else {
      for (const yaml::Node* item : task_items) {
        std::size_t id = add_task(*item, kNoTask, BlockSection::None,
                                  /*is_handler=*/false);
        if (id != kNoTask) play.tasks.push_back(id);
      }
    }
    for (std::size_t i = 0; i + 1 < play.tasks.size(); ++i)
      ir.edges.push_back(
          CfgEdge{play.tasks[i], play.tasks[i + 1], EdgeKind::Seq});
    for (std::size_t i = 0; i + 1 < play.handlers.size(); ++i)
      ir.edges.push_back(
          CfgEdge{play.handlers[i], play.handlers[i + 1], EdgeKind::Seq});
    ir.plays.push_back(std::move(play));
  }

  void add_notify_edges() {
    for (const IrPlay& play : ir.plays) {
      for (std::size_t id : ir.execution_order(play)) {
        for (const auto& [target, span] : ir.tasks[id].notify) {
          (void)span;
          std::size_t handler = ir.resolve_handler(play, target);
          if (handler != kNoTask)
            ir.edges.push_back(CfgEdge{id, handler, EdgeKind::Notify});
        }
      }
    }
  }
};

}  // namespace

std::vector<std::size_t> PlaybookIr::execution_order(
    const IrPlay& play) const {
  std::vector<std::size_t> order;
  // Pre-order so a block node's when/vars scope precedes its children.
  auto visit = [&](auto&& self, std::size_t id) -> void {
    order.push_back(id);
    const IrTask& t = tasks[id];
    for (std::size_t child : t.block) self(self, child);
    for (std::size_t child : t.rescue) self(self, child);
    for (std::size_t child : t.always) self(self, child);
  };
  for (std::size_t id : play.tasks) visit(visit, id);
  return order;
}

std::size_t PlaybookIr::resolve_handler(const IrPlay& play,
                                        std::string_view notify_name) const {
  // Handlers can be blocks; any node of the subtree may match by name or
  // listen topic.
  std::vector<std::size_t> stack(play.handlers.rbegin(),
                                 play.handlers.rend());
  while (!stack.empty()) {
    std::size_t id = stack.back();
    stack.pop_back();
    const IrTask& h = tasks[id];
    if (!h.name.empty() && h.name == notify_name) return id;
    for (const std::string& topic : h.listen)
      if (topic == notify_name) return id;
    for (std::size_t child : h.always) stack.push_back(child);
    for (std::size_t child : h.rescue) stack.push_back(child);
    for (std::size_t child : h.block) stack.push_back(child);
  }
  return kNoTask;
}

std::vector<std::pair<std::size_t, BlockSection>> PlaybookIr::branch_path(
    std::size_t id) const {
  std::vector<std::pair<std::size_t, BlockSection>> path;
  std::size_t current = id;
  while (tasks[current].parent != kNoTask) {
    path.emplace_back(tasks[current].parent, tasks[current].section);
    current = tasks[current].parent;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

PlaybookIr build_ir(std::shared_ptr<const yaml::Node> shared) {
  Builder b;
  const yaml::Node& doc = *shared;
  b.ir.doc = std::move(shared);
  if (doc.is_map()) {
    b.add_play(nullptr, &doc, {});
  } else if (doc.is_seq() && ans::looks_like_playbook(doc)) {
    b.ir.is_playbook = true;
    for (const yaml::Node& play : doc.items()) {
      if (play.is_map()) b.add_play(&play, nullptr, {});
    }
  } else if (doc.is_seq()) {
    std::vector<const yaml::Node*> items;
    for (const yaml::Node& item : doc.items()) items.push_back(&item);
    b.add_play(nullptr, nullptr, items);
  }
  b.add_notify_edges();
  return std::move(b.ir);
}

}  // namespace wisdom::analysis
