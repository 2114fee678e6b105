#include "serve/response_cache.hpp"

namespace wisdom::serve {

namespace {

std::size_t entry_bytes(const ResponseCache::Key& key,
                        const SuggestionResponse& response) {
  std::size_t bytes = key.context.size() + key.prompt.size() +
                      response.snippet.size() + 256;
  for (const auto& d : response.diagnostics)
    bytes += d.rule.size() + d.message.size() + 64;
  return bytes;
}

}  // namespace

ResponseCache::ResponseCache(ResponseCacheOptions options)
    : options_(options) {
  if (options_.max_entries == 0) options_.max_entries = 1;
}

void ResponseCache::bind_metrics(const MetricHooks& hooks) {
  std::lock_guard<std::mutex> lock(mu_);
  hooks_ = hooks;
}

void ResponseCache::remove_entry(EntryList::iterator it) {
  bytes_ -= it->bytes;
  index_.erase(it->key);
  lru_.erase(it);
}

void ResponseCache::update_gauges() {
  stats_.bytes = bytes_;
  stats_.entries = lru_.size();
  if (hooks_.entries)
    hooks_.entries->set(static_cast<double>(lru_.size()));
}

std::optional<SuggestionResponse> ResponseCache::lookup(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    if (hooks_.misses) hooks_.misses->inc();
    return std::nullopt;
  }
  EntryList::iterator entry = it->second;
  lru_.splice(lru_.begin(), lru_, entry);
  ++stats_.hits;
  if (hooks_.hits) hooks_.hits->inc();
  SuggestionResponse out = entry->response;
  out.cached = true;
  return out;
}

void ResponseCache::insert(const Key& key,
                           const SuggestionResponse& response) {
  // Never memoize degraded/fallback/failed responses: their bytes depend
  // on deadlines and fault state, not on the key.
  if (!response.ok || response.degraded ||
      response.error != ServiceError::None)
    return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Deterministic decode: an exact repeat produced the same bytes, so
    // only the LRU position is news.
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.refreshed;
    update_gauges();
    return;
  }
  Entry entry;
  entry.key = key;
  entry.response = response;
  // Per-request fields are not part of the memo; the caller stamps fresh
  // ones on every hit.
  entry.response.latency_ms = 0.0;
  entry.response.trace_id.clear();
  entry.response.server_timing_ms.clear();
  entry.response.cached = false;
  entry.bytes = entry_bytes(key, response);
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  bytes_ += lru_.front().bytes;
  ++stats_.stored;
  if (hooks_.stored) hooks_.stored->inc();
  while (lru_.size() > options_.max_entries) {
    remove_entry(std::prev(lru_.end()));
    ++stats_.evictions;
    if (hooks_.evictions) hooks_.evictions->inc();
  }
  update_gauges();
}

void ResponseCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.cleared += lru_.size();
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  update_gauges();
}

ResponseCacheStats ResponseCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ResponseCacheStats out = stats_;
  out.bytes = bytes_;
  out.entries = lru_.size();
  return out;
}

}  // namespace wisdom::serve
