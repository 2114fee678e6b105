// Level 1 of the serving cache: a prefix KV cache.
//
// Production traffic to a code-completion service is dominated by highly
// similar prompts — the same playbook context re-sent as the user types
// successive "- name:" lines — so most of each request's prefill recomputes
// KV rows an earlier request already produced. This cache is a radix trie
// (runs of tokens without a branch or a snapshot share one node) over
// tokenized (kept) prompts whose nodes own compacted KvCache snapshots;
// a lookup walks the request's tokens through the trie and returns a clone
// of the best reusable snapshot, truncated to the shared span, so
// generation skips prefill for every shared token and only decodes the
// tail.
//
// Correctness invariant (the point of the design): a KV row is a
// deterministic function of the token sequence up to its position, so
// serving rows from the cache is bit-identical to recomputing them —
// cached and uncached generation produce the same bytes.
//
// Bounds: a byte budget with LRU eviction. Entries are keyed on token
// ids, so the cache MUST be clear()ed whenever the model weights,
// tokenizer, or context window change (e.g. on checkpoint reload);
// InferenceService::invalidate_caches() does this.
//
// Thread-safe: one mutex; clones happen under it (a clone is a bounded
// memcpy, cheap next to the prefill it saves).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "model/transformer.hpp"
#include "obs/metrics.hpp"

namespace wisdom::serve {

struct PrefixCacheOptions {
  // Upper bound on bytes held by snapshots (plus their token paths).
  // Inserts that would exceed it evict least-recently-used entries first;
  // a snapshot larger than the whole budget is rejected outright.
  std::size_t byte_budget = 32ull << 20;
};

// Monotone totals; bytes/entries are point-in-time. Identities that always
// hold (the eviction test asserts them exactly):
//   hits + misses == lookups
//   entries == stored - evictions - cleared
struct PrefixCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stored = 0;       // inserts that created a new entry
  std::uint64_t refreshed = 0;    // inserts that touched an existing entry
  std::uint64_t rejected = 0;     // inserts larger than the whole budget
  std::uint64_t evictions = 0;    // LRU removals to honor the byte budget
  std::uint64_t cleared = 0;      // entries dropped by clear()
  std::uint64_t tokens_reused = 0;  // prefill tokens served from cache
  std::size_t bytes = 0;
  std::size_t entries = 0;

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

class PrefixKvCache {
 public:
  // Registry handles mirrored on every update; any pointer may be null.
  struct MetricHooks {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* stored = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* tokens_reused = nullptr;
    obs::Gauge* bytes = nullptr;
    obs::Gauge* entries = nullptr;
    obs::Histogram* hit_tokens = nullptr;
  };

  explicit PrefixKvCache(PrefixCacheOptions options = {});
  ~PrefixKvCache();
  PrefixKvCache(const PrefixKvCache&) = delete;
  PrefixKvCache& operator=(const PrefixKvCache&) = delete;

  void bind_metrics(const MetricHooks& hooks);

  struct Hit {
    // Compacted clone holding exactly `reused_tokens` rows, ready to hand
    // to GenerateOptions::warm_cache.
    model::Transformer::KvCache cache;
    int reused_tokens = 0;
    // True when the cache covers the whole requested prompt (the clone
    // carries valid last-token logits, so prefill is skipped entirely).
    bool exact = false;
  };

  // Best reusable snapshot for this token sequence, or nullopt when no
  // cached prefix shares at least one token. Counts one lookup and
  // refreshes the used entry's LRU position.
  std::optional<Hit> lookup(std::span<const std::int32_t> tokens);

  // Stores a snapshot for this exact token sequence. The snapshot must
  // hold exactly tokens.size() rows (GenerateOptions::prompt_snapshot
  // produces this form). Inserting an already-cached sequence refreshes
  // its LRU position instead of storing twice.
  enum class InsertOutcome { Stored, Refreshed, Rejected };
  InsertOutcome insert(std::span<const std::int32_t> tokens,
                       model::Transformer::KvCache snapshot);

  // Drops every entry (checkpoint reload, tokenizer change). Monotone
  // counters survive; bytes/entries drop to zero.
  void clear();

  PrefixCacheStats stats() const;
  std::size_t bytes_held() const;

 private:
  struct Node;
  struct Entry {
    Node* node = nullptr;
    model::Transformer::KvCache cache;  // compact: length == node depth
    std::size_t bytes = 0;
    std::uint64_t tick = 0;  // last use (lookup serial)
    std::list<Entry*>::iterator lru_it;
  };
  struct Node {
    Node* parent = nullptr;
    // Tokens on the edge from the parent; empty only at the root. Every
    // other node holds an entry or branches, so a cached prompt costs a
    // node or two rather than one per token.
    std::vector<std::int32_t> label;
    std::vector<std::unique_ptr<Node>> children;  // sorted by label[0]
    std::unique_ptr<Entry> entry;
    // Where a child whose label starts with `token` is, or would go.
    std::vector<std::unique_ptr<Node>>::iterator slot(std::int32_t token);
    // The child whose label starts with `token`, or nullptr.
    Node* child(std::int32_t token);
  };

  // The most recently used entry in `node`'s subtree (including itself);
  // nullptr when the subtree holds no snapshot.
  static Entry* best_in_subtree(const Node* node);
  void touch(Entry* entry);
  // Splits `node`'s edge after `keep` tokens; returns the new upper node.
  static Node* split(Node* node, std::size_t keep);
  void remove_entry(Entry* entry);  // + prunes and re-compresses the path
  void evict_to_budget();
  void update_gauges();

  PrefixCacheOptions options_;
  MetricHooks hooks_;
  mutable std::mutex mu_;
  std::unique_ptr<Node> root_;
  std::list<Entry*> lru_;  // front = most recently used
  std::uint64_t tick_ = 0;
  std::size_t bytes_ = 0;
  PrefixCacheStats stats_;
};

}  // namespace wisdom::serve
