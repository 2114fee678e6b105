// Level 2 of the serving cache: a response memo.
//
// The Lightspeed production traffic study found many requests are exact
// repeats (the editor re-sends the same context + prompt as the user
// hesitates). For those, even a prefix-cache-warmed decode is wasted work:
// the service's decode is deterministic given (prompt, context, generation
// options, lint policy), so the full prior response can be replayed
// byte-for-byte. Degraded and fallback responses are never stored — they
// depend on deadlines and fault state, not just the key.
//
// Bounds: an entry-count cap with LRU eviction. Keyed on the literal
// request fields plus the option fields that shape the output, so a
// service reconfiguration cannot alias entries; still, clear() on
// checkpoint reload is mandatory (the model behind the memo changed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "serve/types.hpp"

namespace wisdom::serve {

struct ResponseCacheOptions {
  std::size_t max_entries = 256;
};

// Same identities as PrefixCacheStats:
//   hits + misses == lookups
//   entries == stored - evictions - cleared
struct ResponseCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stored = 0;
  std::uint64_t refreshed = 0;
  std::uint64_t evictions = 0;
  std::uint64_t cleared = 0;
  std::size_t bytes = 0;  // approximate: key + snippet payloads
  std::size_t entries = 0;

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

class ResponseCache {
 public:
  // Everything that shapes a non-degraded response's bytes.
  struct Key {
    std::string context;
    std::string prompt;
    int indent = 0;
    int max_new_tokens = 0;
    int lint_policy = 0;

    auto operator<=>(const Key&) const = default;
  };

  struct MetricHooks {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* stored = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Gauge* entries = nullptr;
  };

  explicit ResponseCache(ResponseCacheOptions options = {});

  void bind_metrics(const MetricHooks& hooks);

  // The memoized response, with `cached` already set. Per-request fields
  // (latency, trace id, server timing) are zeroed — the caller stamps its
  // own. Counts one lookup.
  std::optional<SuggestionResponse> lookup(const Key& key);

  // Stores a response. The caller must only pass non-degraded, successful
  // responses; insert() drops anything else as a safety net.
  void insert(const Key& key, const SuggestionResponse& response);

  void clear();
  ResponseCacheStats stats() const;

 private:
  struct Entry {
    Key key;
    SuggestionResponse response;
    std::size_t bytes = 0;
  };
  using EntryList = std::list<Entry>;

  void remove_entry(EntryList::iterator it);
  void update_gauges();

  ResponseCacheOptions options_;
  MetricHooks hooks_;
  mutable std::mutex mu_;
  EntryList lru_;  // front = most recently used
  std::map<Key, EntryList::iterator> index_;
  std::size_t bytes_ = 0;
  ResponseCacheStats stats_;
};

}  // namespace wisdom::serve
