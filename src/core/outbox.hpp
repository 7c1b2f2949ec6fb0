// Store-and-forward sync outbox for the PMS (the MOSDEN-style answer to
// intermittent connectivity): failed or pending cloud syncs are queued as
// small (kind, key) work items — the payload is re-serialized from local
// state at delivery time, so a replayed entry always carries CURRENT
// content — and drained FIFO on housekeeping ticks. Bounded: when full,
// the oldest entry is evicted (and counted) rather than blocking.
//
// Ordering and idempotency rules are documented in DESIGN.md "Failure
// model & recovery".
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "util/json.hpp"
#include "util/simtime.hpp"

namespace pmware::core {

/// What a queued sync item refers to. Keys are indices into local state:
/// day number, place uid, route-log index, or encounter-log range.
enum class SyncKind : std::uint8_t {
  ProfileDay = 0,     ///< key = day index
  PlaceUpsert = 1,    ///< key = place uid
  PlaceDelete = 2,    ///< key = place uid
  Route = 3,          ///< key = route-log index (doubles as replay seq)
  EncounterBatch = 4, ///< [key, key2) = encounter-log index range
};
const char* kind_name(SyncKind kind);

struct OutboxConfig {
  /// Max queued entries; enqueue past this evicts the oldest. The default
  /// comfortably covers a multi-day outage for one participant (a day is a
  /// handful of profile/place/route/encounter items).
  std::size_t capacity = 256;
};

struct OutboxEntry {
  SyncKind kind;
  std::uint64_t key = 0;
  std::uint64_t key2 = 0;   ///< EncounterBatch only: one-past-last index
  SimTime enqueued_at = 0;
  int attempts = 0;         ///< failed delivery attempts so far
  /// Boot epoch (cloud registration session) the entry was enqueued under.
  /// Routes/encounters qualify their replay sequence numbers with it so a
  /// restarted device's fresh log indices can never collide with — or be
  /// deduplicated against — a previous incarnation's (DESIGN.md "Failure
  /// model & recovery"). Entries restored from a checkpoint keep the epoch
  /// they were enqueued under.
  std::uint64_t epoch = 0;
};

/// Bounded FIFO of pending sync work. Single-threaded like the PMS that
/// owns it.
class SyncOutbox {
 public:
  explicit SyncOutbox(OutboxConfig config = {}) : config_(config) {}

  struct EnqueueResult {
    bool appended = false;              ///< false: deduped into an entry
    std::optional<OutboxEntry> evicted; ///< oldest entry dropped for space
  };

  /// Queues one work item. Entries dedup by (kind, key) — re-enqueueing a
  /// still-pending day or place is a no-op, since delivery reads current
  /// state anyway. EncounterBatch keeps at most one entry *per epoch*,
  /// widening its [key, key2) range to cover both batches: ranges from
  /// different boot epochs index different log incarnations and must never
  /// merge. `epoch` stamps newly appended entries.
  EnqueueResult enqueue(SyncKind kind, std::uint64_t key, std::uint64_t key2,
                        SimTime now, std::uint64_t epoch = 0);

  /// Drops a pending entry (e.g. the upsert of a place being forgotten, so
  /// replay cannot resurrect it). True if one was removed.
  bool remove(SyncKind kind, std::uint64_t key);

  /// Attempts delivery of one entry; prior failed attempts are visible in
  /// `entry.attempts`. Return true on success (or skip), false to stop.
  using Sender = std::function<bool(const OutboxEntry& entry)>;

  /// Delivers entries front-to-back through `sender`, removing each on
  /// success. Stops at the first failure — FIFO order is preserved across
  /// outages and a dead cloud costs one request per drain, not one per
  /// entry. Returns the number delivered.
  std::size_t drain(const Sender& sender);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::deque<OutboxEntry>& entries() const { return entries_; }
  const OutboxConfig& config() const { return config_; }

  /// Every pending entry as a JSON array (front first), preserving
  /// enqueued_at / attempts / epoch so a restored queue resumes exactly
  /// where the crashed one stopped.
  Json save() const;

  struct LoadResult {
    std::size_t loaded = 0;   ///< entries now queued
    std::size_t evicted = 0;  ///< oldest entries dropped to fit capacity
  };

  /// Replaces the queue with the entries of a save() array. FIFO order,
  /// dedup state, and per-entry metadata round-trip; entries beyond
  /// capacity evict oldest-first exactly like live enqueues (the caller
  /// counts LoadResult::evicted against its eviction metric). Later
  /// enqueue() calls re-dedup against the restored entries. Throws
  /// JsonError on a malformed entry, leaving the queue as it was.
  LoadResult load(const Json& entries);

 private:
  OutboxConfig config_;
  std::deque<OutboxEntry> entries_;
};

}  // namespace pmware::core
