#include "serve/prefix_cache.hpp"

#include <algorithm>
#include <cassert>

namespace wisdom::serve {

namespace {

// Fixed accounting overhead per entry: an estimate of the token path (as
// if stored one node per token) plus the entry bookkeeping. The budget
// bounds the dominant KV payload exactly and the structural overhead
// approximately.
std::size_t path_overhead_bytes(std::size_t tokens) {
  return tokens * (sizeof(std::int32_t) + 2 * sizeof(void*)) + 128;
}

// Tokens `label` and `tokens` share from their start.
std::size_t shared_length(std::span<const std::int32_t> label,
                          std::span<const std::int32_t> tokens) {
  std::size_t n = 0;
  while (n < label.size() && n < tokens.size() && label[n] == tokens[n]) ++n;
  return n;
}

}  // namespace

PrefixKvCache::PrefixKvCache(PrefixCacheOptions options)
    : options_(options), root_(std::make_unique<Node>()) {}

PrefixKvCache::~PrefixKvCache() = default;

void PrefixKvCache::bind_metrics(const MetricHooks& hooks) {
  std::lock_guard<std::mutex> lock(mu_);
  hooks_ = hooks;
}

std::vector<std::unique_ptr<PrefixKvCache::Node>>::iterator
PrefixKvCache::Node::slot(std::int32_t token) {
  return std::lower_bound(
      children.begin(), children.end(), token,
      [](const std::unique_ptr<Node>& c, std::int32_t t) {
        return c->label.front() < t;
      });
}

PrefixKvCache::Node* PrefixKvCache::Node::child(std::int32_t token) {
  auto it = slot(token);
  return it != children.end() && (*it)->label.front() == token ? it->get()
                                                               : nullptr;
}

PrefixKvCache::Node* PrefixKvCache::split(Node* node, std::size_t keep) {
  Node* parent = node->parent;
  auto slot = parent->slot(node->label.front());
  auto upper = std::make_unique<Node>();
  upper->parent = parent;
  upper->label.assign(node->label.begin(),
                      node->label.begin() + static_cast<std::ptrdiff_t>(keep));
  node->label.erase(node->label.begin(),
                    node->label.begin() + static_cast<std::ptrdiff_t>(keep));
  node->parent = upper.get();
  upper->children.push_back(std::move(*slot));
  *slot = std::move(upper);
  return slot->get();
}

PrefixKvCache::Entry* PrefixKvCache::best_in_subtree(const Node* node) {
  Entry* best = node->entry.get();
  for (const auto& child : node->children) {
    Entry* candidate = best_in_subtree(child.get());
    if (candidate && (!best || candidate->tick > best->tick))
      best = candidate;
  }
  return best;
}

void PrefixKvCache::touch(Entry* entry) {
  entry->tick = tick_;
  lru_.splice(lru_.begin(), lru_, entry->lru_it);
}

void PrefixKvCache::remove_entry(Entry* entry) {
  Node* node = entry->node;
  bytes_ -= entry->bytes;
  lru_.erase(entry->lru_it);
  node->entry.reset();  // destroys `entry`
  // Prune the now-bare chain up to the root.
  while (node != root_.get() && !node->entry && node->children.empty()) {
    Node* parent = node->parent;
    std::erase_if(parent->children, [node](const std::unique_ptr<Node>& c) {
      return c.get() == node;
    });
    node = parent;
  }
  // A node left with neither an entry nor a branch merges with its only
  // child, keeping every path compressed.
  if (node != root_.get() && !node->entry && node->children.size() == 1) {
    std::unique_ptr<Node> only = std::move(node->children.front());
    node->label.insert(node->label.end(), only->label.begin(),
                       only->label.end());
    node->children = std::move(only->children);
    for (auto& child : node->children) child->parent = node;
    node->entry = std::move(only->entry);
    if (node->entry) node->entry->node = node;
  }
}

void PrefixKvCache::evict_to_budget() {
  while (bytes_ > options_.byte_budget && !lru_.empty()) {
    remove_entry(lru_.back());
    ++stats_.evictions;
    if (hooks_.evictions) hooks_.evictions->inc();
  }
}

void PrefixKvCache::update_gauges() {
  stats_.bytes = bytes_;
  stats_.entries = lru_.size();
  if (hooks_.bytes) hooks_.bytes->set(static_cast<double>(bytes_));
  if (hooks_.entries)
    hooks_.entries->set(static_cast<double>(lru_.size()));
}

std::optional<PrefixKvCache::Hit> PrefixKvCache::lookup(
    std::span<const std::int32_t> tokens) {
  std::lock_guard<std::mutex> lock(mu_);
  ++tick_;
  ++stats_.lookups;

  // Walk as deep as the trie shares tokens with the request, remembering
  // the deepest snapshot sitting on the walked path (its KV rows AND
  // last-token logits are valid for the request).
  Node* node = root_.get();
  Entry* on_path = nullptr;
  std::size_t walked = 0;
  while (walked < tokens.size()) {
    Node* next = node->child(tokens[walked]);
    if (!next) break;
    const std::size_t shared =
        shared_length(next->label, tokens.subspan(walked));
    walked += shared;
    if (shared < next->label.size()) {
      // Diverged inside `next`'s edge: its subtree is what lies below the
      // divergence point.
      node = next;
      break;
    }
    node = next;
    if (node->entry) on_path = node->entry.get();
  }

  // A snapshot anywhere below the divergence node shares the first
  // `walked` tokens with the request; truncating its clone to the shared
  // span (dropping the now-stale logits) makes it reusable. When the walk
  // consumed the whole request, keep one row back so generation re-decodes
  // the last prompt token and regenerates fresh logits.
  Entry* subtree = nullptr;
  std::size_t subtree_reuse = 0;
  if (walked > 0) {
    subtree = best_in_subtree(node);
    if (subtree) {
      subtree_reuse = walked < tokens.size() ? walked : tokens.size() - 1;
      if (static_cast<std::size_t>(subtree->cache.length) < subtree_reuse)
        subtree_reuse = static_cast<std::size_t>(subtree->cache.length);
    }
  }
  const std::size_t on_path_reuse =
      on_path ? static_cast<std::size_t>(on_path->cache.length) : 0;

  Entry* chosen = nullptr;
  std::size_t reuse = 0;
  bool exact = false;
  // Prefer the on-path snapshot on ties: it carries valid logits.
  if (on_path && on_path_reuse >= subtree_reuse && on_path_reuse > 0) {
    chosen = on_path;
    reuse = on_path_reuse;
    exact = reuse == tokens.size();
  } else if (subtree && subtree_reuse > 0) {
    chosen = subtree;
    reuse = subtree_reuse;
  }

  if (!chosen) {
    ++stats_.misses;
    if (hooks_.misses) hooks_.misses->inc();
    return std::nullopt;
  }

  Hit hit;
  hit.cache = chosen->cache.clone(static_cast<int>(reuse));
  hit.reused_tokens = static_cast<int>(reuse);
  hit.exact = exact;
  touch(chosen);
  ++stats_.hits;
  stats_.tokens_reused += reuse;
  if (hooks_.hits) hooks_.hits->inc();
  if (hooks_.tokens_reused) hooks_.tokens_reused->inc(reuse);
  if (hooks_.hit_tokens)
    hooks_.hit_tokens->observe(static_cast<double>(reuse));
  return hit;
}

PrefixKvCache::InsertOutcome PrefixKvCache::insert(
    std::span<const std::int32_t> tokens,
    model::Transformer::KvCache snapshot) {
  assert(snapshot.length == static_cast<int>(tokens.size()));
  std::lock_guard<std::mutex> lock(mu_);
  if (tokens.empty() ||
      snapshot.length != static_cast<int>(tokens.size())) {
    ++stats_.rejected;
    return InsertOutcome::Rejected;
  }
  const std::size_t bytes =
      snapshot.byte_size() + path_overhead_bytes(tokens.size());
  if (bytes > options_.byte_budget) {
    ++stats_.rejected;
    return InsertOutcome::Rejected;
  }

  Node* node = root_.get();
  std::size_t at = 0;
  while (at < tokens.size()) {
    Node* next = node->child(tokens[at]);
    if (!next) {
      // A new leaf carries the whole remaining path.
      auto leaf = std::make_unique<Node>();
      leaf->parent = node;
      leaf->label.assign(tokens.begin() + static_cast<std::ptrdiff_t>(at),
                         tokens.end());
      next = leaf.get();
      node->children.insert(node->slot(tokens[at]), std::move(leaf));
      node = next;
      break;
    }
    const std::size_t shared = shared_length(next->label, tokens.subspan(at));
    if (shared < next->label.size()) next = split(next, shared);
    node = next;
    at += shared;
  }

  if (node->entry) {
    // Same kept prompt, same deterministic KV — nothing new to store.
    touch(node->entry.get());
    ++stats_.refreshed;
    update_gauges();
    return InsertOutcome::Refreshed;
  }

  auto entry = std::make_unique<Entry>();
  entry->node = node;
  entry->cache = std::move(snapshot);
  entry->bytes = bytes;
  entry->tick = tick_;
  lru_.push_front(entry.get());
  entry->lru_it = lru_.begin();
  bytes_ += bytes;
  node->entry = std::move(entry);
  ++stats_.stored;
  if (hooks_.stored) hooks_.stored->inc();
  evict_to_budget();
  update_gauges();
  return InsertOutcome::Stored;
}

void PrefixKvCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.cleared += lru_.size();
  lru_.clear();
  root_ = std::make_unique<Node>();
  bytes_ = 0;
  update_gauges();
}

PrefixCacheStats PrefixKvCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PrefixCacheStats out = stats_;
  out.bytes = bytes_;
  out.entries = lru_.size();
  return out;
}

std::size_t PrefixKvCache::bytes_held() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace wisdom::serve
