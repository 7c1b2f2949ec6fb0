#include "core/outbox.hpp"

#include <algorithm>

#include "core/codec.hpp"

namespace pmware::core {

const char* kind_name(SyncKind kind) {
  switch (kind) {
    case SyncKind::ProfileDay: return "profile";
    case SyncKind::PlaceUpsert: return "place";
    case SyncKind::PlaceDelete: return "place_delete";
    case SyncKind::Route: return "route";
    case SyncKind::EncounterBatch: return "encounter";
  }
  return "?";
}

SyncOutbox::EnqueueResult SyncOutbox::enqueue(SyncKind kind, std::uint64_t key,
                                              std::uint64_t key2, SimTime now,
                                              std::uint64_t epoch) {
  EnqueueResult result;
  for (OutboxEntry& entry : entries_) {
    if (entry.kind != kind) continue;
    if (kind == SyncKind::EncounterBatch) {
      // One batch entry covers everything pending — but only within a boot
      // epoch: [key, key2) ranges index that epoch's encounter log, so
      // widening across epochs would splice two different logs into one
      // replay range.
      if (entry.epoch != epoch) continue;
      entry.key = std::min(entry.key, key);
      entry.key2 = std::max(entry.key2, key2);
      return result;
    }
    if (entry.key == key) return result;  // already queued
  }
  if (config_.capacity > 0 && entries_.size() >= config_.capacity) {
    result.evicted = entries_.front();
    entries_.pop_front();
  }
  entries_.push_back({kind, key, key2, now, 0, epoch});
  result.appended = true;
  return result;
}

bool SyncOutbox::remove(SyncKind kind, std::uint64_t key) {
  const auto it =
      std::find_if(entries_.begin(), entries_.end(), [&](const OutboxEntry& e) {
        return e.kind == kind && e.key == key;
      });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

Json SyncOutbox::save() const { return array_of(entries_); }

SyncOutbox::LoadResult SyncOutbox::load(const Json& entries) {
  std::vector<OutboxEntry> decoded;
  for (const Json& j : entries.as_array())
    decoded.push_back(outbox_entry_from_json(j));
  LoadResult result;
  entries_.clear();
  for (const OutboxEntry& entry : decoded) {
    if (config_.capacity > 0 && entries_.size() >= config_.capacity) {
      entries_.pop_front();
      ++result.evicted;
    }
    entries_.push_back(entry);
  }
  result.loaded = entries_.size();
  return result;
}

std::size_t SyncOutbox::drain(const Sender& sender) {
  std::size_t delivered = 0;
  while (!entries_.empty()) {
    OutboxEntry& front = entries_.front();
    if (!sender(front)) {
      ++front.attempts;
      break;
    }
    entries_.pop_front();
    ++delivered;
  }
  return delivered;
}

}  // namespace pmware::core
