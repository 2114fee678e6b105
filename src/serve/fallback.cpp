#include "serve/fallback.hpp"

#include <cctype>
#include <unordered_set>

#include "ansible/catalog.hpp"
#include "util/strings.hpp"

namespace wisdom::serve {

namespace {

// Module names resolved through the catalog so the templates stay in sync
// with the single source of truth the linter validates against.
std::string fqcn(const char* short_name) {
  return ansible::ModuleCatalog::instance().to_fqcn(short_name);
}

text::NgramCounts keyword_set(std::initializer_list<const char*> words) {
  text::NgramCounts counts;
  for (const char* w : words) counts[w] = 1;
  return counts;
}

// Lowercased word tokens of the prompt, punctuation stripped at both ends
// so "nginx," and "(nginx)" both yield "nginx".
std::vector<std::string> prompt_tokens(const std::string& prompt) {
  std::vector<std::string> tokens;
  for (const std::string& raw : util::split_ws(util::to_lower(prompt))) {
    std::size_t b = 0, e = raw.size();
    while (b < e && !std::isalnum(static_cast<unsigned char>(raw[b]))) ++b;
    while (e > b && !std::isalnum(static_cast<unsigned char>(raw[e - 1])))
      --e;
    if (e > b) tokens.push_back(raw.substr(b, e - b));
  }
  return tokens;
}

bool has_token(const std::vector<std::string>& tokens, const char* word) {
  for (const std::string& t : tokens)
    if (t == word) return true;
  return false;
}

// The object the task acts on: the last prompt token that is neither a
// stopword nor an action keyword ("Restart the nginx service" -> "nginx").
std::string object_of(const std::vector<std::string>& tokens) {
  static const std::unordered_set<std::string> skip = {
      // stopwords
      "the", "a", "an", "to", "of", "on", "in", "for", "and", "with",
      "all", "is", "are", "be", "it", "its", "this", "that", "from", "as",
      "into", "if", "at", "by", "new", "our", "my", "your",
      // action/keyword words shared with the templates
      "install", "installed", "installing", "package", "packages",
      "remove", "removed", "uninstall", "upgrade", "update", "updated",
      "latest", "present", "absent", "purge",
      "start", "started", "stop", "stopped", "restart", "restarted",
      "reload", "reloaded", "enable", "enabled", "disable", "disabled",
      "service", "services", "daemon", "systemd", "running",
      "copy", "copied", "deploy", "deployed", "upload", "place",
      "template", "config", "configuration", "file", "files",
      "create", "created", "directory", "directories", "folder", "mkdir",
      "ensure", "make", "set", "setup", "run", "task",
  };
  for (std::size_t i = tokens.size(); i-- > 0;) {
    if (!skip.count(tokens[i])) return tokens[i];
  }
  return "app";
}

// Double-quoted YAML scalar safe for arbitrary prompt text on one line.
std::string yaml_quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += ' '; break;
      case '\r': break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

FallbackSuggester::FallbackSuggester() {
  templates_.push_back(
      {Kind::Package,
       keyword_set({"install", "installed", "installing", "package",
                    "packages", "remove", "removed", "uninstall", "purge",
                    "upgrade", "update", "latest", "apt", "yum", "dnf",
                    "pip"})});
  templates_.push_back(
      {Kind::Service,
       keyword_set({"start", "started", "stop", "stopped", "restart",
                    "restarted", "reload", "reloaded", "enable", "enabled",
                    "disable", "disabled", "service", "services", "daemon",
                    "systemd", "running"})});
  templates_.push_back(
      {Kind::Copy, keyword_set({"copy", "copied", "deploy", "deployed",
                                "upload", "template", "config",
                                "configuration"})});
  templates_.push_back(
      {Kind::Directory,
       keyword_set({"directory", "directories", "folder", "mkdir"})});
}

std::string FallbackSuggester::suggest_body(const std::string& prompt,
                                            int indent) const {
  const std::vector<std::string> tokens = prompt_tokens(prompt);
  const text::NgramCounts counts = text::count_ngrams(tokens, 1);

  Kind kind = Kind::Debug;  // zero-overlap default: always valid
  std::int64_t best = 0;
  for (const Template& t : templates_) {
    std::int64_t score = text::clipped_matches(counts, t.keywords);
    if (score > best) {
      best = score;
      kind = t.kind;
    }
  }

  const std::string object = object_of(tokens);
  const std::string p0(static_cast<std::size_t>(indent) + 2, ' ');
  const std::string p1(static_cast<std::size_t>(indent) + 4, ' ');
  std::string body;
  switch (kind) {
    case Kind::Package: {
      const char* state = "present";
      if (has_token(tokens, "remove") || has_token(tokens, "removed") ||
          has_token(tokens, "uninstall") || has_token(tokens, "purge"))
        state = "absent";
      else if (has_token(tokens, "upgrade") || has_token(tokens, "update") ||
               has_token(tokens, "latest"))
        state = "latest";
      body = p0 + fqcn("package") + ":\n" + p1 + "name: " + object + "\n" +
             p1 + "state: " + state + "\n";
      break;
    }
    case Kind::Service: {
      const char* state = "started";
      if (has_token(tokens, "stop") || has_token(tokens, "stopped"))
        state = "stopped";
      else if (has_token(tokens, "restart") ||
               has_token(tokens, "restarted"))
        state = "restarted";
      else if (has_token(tokens, "reload") || has_token(tokens, "reloaded"))
        state = "reloaded";
      body = p0 + fqcn("service") + ":\n" + p1 + "name: " + object + "\n" +
             p1 + "state: " + state + "\n";
      if (has_token(tokens, "enable") || has_token(tokens, "enabled"))
        body += p1 + "enabled: true\n";
      else if (has_token(tokens, "disable") ||
               has_token(tokens, "disabled"))
        body += p1 + "enabled: false\n";
      break;
    }
    case Kind::Copy:
      body = p0 + fqcn("copy") + ":\n" + p1 + "src: " + object + "\n" + p1 +
             "dest: /etc/" + object + "\n";
      break;
    case Kind::Directory:
      body = p0 + fqcn("file") + ":\n" + p1 + "path: /etc/" + object + "\n" +
             p1 + "state: directory\n";
      break;
    case Kind::Debug:
      body = p0 + fqcn("debug") + ":\n" + p1 +
             "msg: " + yaml_quote(prompt) + "\n";
      break;
  }
  return body;
}

}  // namespace wisdom::serve
