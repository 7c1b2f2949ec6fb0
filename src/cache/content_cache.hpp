// Content-addressed result caching (ROADMAP "content-addressed caching on
// both sides of the wire"): a bounded LRU keyed by K whose entries carry
// the content digest ("version") of the inputs that produced them. A
// lookup presents the digest of the CURRENT inputs; an entry only hits
// while its stored digest still matches, so coherence is structural — no
// TTLs, no explicit invalidation broadcasts. Stale entries are dropped on
// sight and reported as such, which is what lets callers distinguish a
// ccache-style `recompute` (had a result, inputs changed) from a `miss`
// (never computed).
//
// Every cache instance is named; outcomes are exported through the metrics
// registry as cache_outcomes_total{cache=<name>, outcome=...} with the hit
// taxonomy shared by all caches in the middleware:
//   local_hit  — served without touching the wire (same-side cache)
//   cloud_hit  — the wire was touched but the expensive work was skipped
//                (304 revalidation, server-side offload replay)
//   recompute  — a cached result existed but its input digest changed
//   miss       — no cached result existed at all
// Counters (not gauges) only, so concurrent instances sharing one name
// aggregate instead of fighting (DESIGN.md "Content addressing & cache
// coherence").
//
// Thread-safety: all operations take the cache's internal mutex; V is
// copied out under it.
#pragma once

#include <cstdint>
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
/// Increments cache_evictions_total{cache=<name>} (capacity evictions, not
/// staleness drops — those surface as `recompute` outcomes).
void record_eviction(const std::string& cache_name);

template <typename K, typename V>
class ContentCache {
 public:
  /// `name` labels this cache's metric series; `capacity` bounds the entry
  /// count (>= 1), least-recently-used evicted first.
  ContentCache(std::string name, std::size_t capacity)
      : name_(std::move(name)), capacity_(capacity == 0 ? 1 : capacity) {}

  struct Lookup {
    /// The cached value when its stored digest matched `version`.
    std::optional<V> value;
    /// True when an entry existed but its digest mismatched (it has been
    /// dropped) — the caller is about to *recompute*, not fill a cold miss.
    bool stale = false;
  };

  /// Looks up `key` against the current input digest `version`. A digest
  /// mismatch drops the entry and reports stale. Hits refresh LRU recency.
  Lookup lookup(const K& key, std::uint64_t version) {
    const std::scoped_lock lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) return {};
    if (it->second.version != version) {
      drop_locked(it);
      return {std::nullopt, true};
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return {it->second.value, false};
  }

  /// Inserts or replaces the entry for `key` with the digest of the inputs
  /// that produced `value`; evicts the least-recently-used entry beyond
  /// capacity.
  void put(const K& key, V value, std::uint64_t version) {
    const std::scoped_lock lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.value = std::move(value);
      it->second.version = version;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return;
    }
    lru_.push_front(key);
    map_.emplace(key, Entry{std::move(value), version, lru_.begin()});
    while (map_.size() > capacity_) {
      const auto victim = map_.find(lru_.back());
      drop_locked(victim);
      record_eviction(name_);
    }
  }

  std::size_t size() const {
    const std::scoped_lock lock(mu_);
    return map_.size();
  }
  std::size_t capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

  /// Records one taxonomy outcome against this cache's metric series.
  void record(CacheOutcome outcome) const { record_outcome(name_, outcome); }

 private:
  struct Entry {
    V value;
    std::uint64_t version = 0;
    typename std::list<K>::iterator lru_it;
  };

  /// Caller holds mu_.
  void drop_locked(typename std::map<K, Entry>::iterator it) {
    lru_.erase(it->second.lru_it);
    map_.erase(it);
  }

  mutable std::mutex mu_;
  std::string name_;
  std::size_t capacity_;
  std::list<K> lru_;  ///< front = most recently used
  std::map<K, Entry> map_;
};

}  // namespace pmware::cache
