// Content-addressed result caching (ROADMAP "content-addressed caching on
// both sides of the wire"): a bounded LRU keyed by K. Its one user, the
// client's conditional-GET cache, keys by request path and stores the
// representation with the ETag that validates it, so coherence is the
// server's: a tag that stops validating brings the new representation back,
// which replaces the entry. No TTLs, no explicit invalidation broadcasts.
//
// Every cache is named; outcomes are exported through the metrics
// registry as cache_outcomes_total{cache=<name>, outcome=...} with the hit
// taxonomy shared by all caches in the middleware:
//   local_hit  — served without touching the wire (same-side cache)
//   cloud_hit  — the wire was touched but the body was not re-sent (304
//                revalidation)
//   recompute  — a cached result existed but its input digest changed
//   miss       — no cached result existed at all
// Counters (not gauges) only, so concurrent instances sharing one name
// aggregate instead of fighting (DESIGN.md "Content addressing & cache
// coherence").
//
// Thread-safety: all operations take the cache's internal mutex; V is
// copied out under it.
#pragma once

#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

namespace pmware::cache {

enum class CacheOutcome { LocalHit, CloudHit, Recompute, Miss };
const char* to_string(CacheOutcome outcome);

/// Increments cache_outcomes_total{cache=<name>, outcome=<outcome>}.
void record_outcome(const std::string& cache_name, CacheOutcome outcome);
/// Increments cache_evictions_total{cache=<name>} (LRU capacity evictions).
void record_eviction(const std::string& cache_name);

template <typename K, typename V>
class ContentCache {
 public:
  /// `name` labels this cache's metric series; `capacity` bounds the entry
  /// count (>= 1), least-recently-used evicted first.
  ContentCache(std::string name, std::size_t capacity)
      : name_(std::move(name)), capacity_(capacity == 0 ? 1 : capacity) {}

  /// The cached value for `key`, if any. Hits refresh LRU recency.
  std::optional<V> lookup(const K& key) {
    const std::scoped_lock lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.value;
  }

  /// Inserts or replaces the entry for `key`; evicts the least-recently-used
  /// entry beyond capacity.
  void put(const K& key, V value) {
    const std::scoped_lock lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return;
    }
    lru_.push_front(key);
    map_.emplace(key, Entry{std::move(value), lru_.begin()});
    while (map_.size() > capacity_) {
      const auto victim = map_.find(lru_.back());
      lru_.erase(victim->second.lru_it);
      map_.erase(victim);
      record_eviction(name_);
    }
  }

  std::size_t size() const {
    const std::scoped_lock lock(mu_);
    return map_.size();
  }
  std::size_t capacity() const { return capacity_; }

  /// Records one taxonomy outcome against this cache's metric series.
  void record(CacheOutcome outcome) const { record_outcome(name_, outcome); }

 private:
  struct Entry {
    V value;
    typename std::list<K>::iterator lru_it;
  };

  mutable std::mutex mu_;
  std::string name_;
  std::size_t capacity_;
  std::list<K> lru_;  ///< front = most recently used
  std::map<K, Entry> map_;
};

}  // namespace pmware::cache
