// JSON codecs for the shared model: the only module that knows a record's
// shape on the REST wire (paper §2.3.3), in PMS checkpoints and in exported
// JSONL logs. Decoders are total: a missing or mistyped required field, an
// unknown enum name, an out-of-range integer or an inverted time window
// throws JsonError, so callers decode a whole body before they touch any
// state.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algorithms/gca.hpp"
#include "algorithms/routes.hpp"
#include "cache/digest.hpp"
#include "core/events.hpp"
#include "core/model.hpp"
#include "core/outbox.hpp"
#include "util/json.hpp"

namespace pmware::core {

struct LoggedVisit;

/// Digests travel as 16 hex digits; the decoder accepts 1–16.
std::string hex64(std::uint64_t value);
std::uint64_t hex64_from_json(const Json& j);

Json to_json(const world::CellId& cell);
world::CellId cell_from_json(const Json& j);

Json to_json(const geo::LatLng& p);
geo::LatLng latlng_from_json(const Json& j);

Json to_json(const algorithms::PlaceSignature& sig);
algorithms::PlaceSignature signature_from_json(const Json& j);

/// {t, cell}: one serving-cell observation of a route.
Json to_json(const algorithms::CellObservation& obs);
algorithms::CellObservation cell_observation_from_json(const Json& j);

/// {from, to, start, end}, plus "cells" ({t, cell}) and "gps" ({lat, lng,
/// t}) when non-empty.
Json to_json(const algorithms::RouteObservation& route);
algorithms::RouteObservation route_observation_from_json(const Json& j);

/// A route observation plus its "use_count" (checkpointed route store).
Json to_json(const algorithms::CanonicalRoute& route);
algorithms::CanonicalRoute canonical_route_from_json(const Json& j);
/// {route_uid, from, to, use_count}: one entry of the route listing.
Json route_summary_to_json(std::size_t uid,
                           const algorithms::CanonicalRoute& route);

/// {route_uid, from, to, start, end, high_accuracy}
Json to_json(const RouteEvent& event);
RouteEvent route_event_from_json(const Json& j);

/// {contact, place, start, end}
Json to_json(const EncounterEntry& encounter);
EncounterEntry encounter_from_json(const Json& j);
EncounterEntry to_entry(const EncounterEvent& event);

/// {still, walking, vehicle}
Json to_json(const ActivitySummary& activity);
ActivitySummary activity_from_json(const Json& j);

/// {uid, begin, end}
Json to_json(const LoggedVisit& visit);
LoggedVisit logged_visit_from_json(const Json& j);

Json to_json(const PlaceRecord& record);
PlaceRecord place_record_from_json(const Json& j);
/// GET /api/users/:id/places: {places}, in uid order.
Json place_listing_to_json(const std::map<PlaceUid, PlaceRecord>& places);
std::vector<PlaceRecord> place_listing_from_json(const Json& j);

Json to_json(const MobilityProfile& profile);
MobilityProfile profile_from_json(const Json& j);

/// {kind, key, key2, enqueued_at, attempts, epoch}: one queued sync item.
Json to_json(const OutboxEntry& entry);
OutboxEntry outbox_entry_from_json(const Json& j);

/// The discover response {places, visits}. The decoder rebuilds
/// cell_to_place and requires every visit to name a returned place.
Json to_json(const algorithms::GcaResult& result);
algorithms::GcaResult gca_result_from_json(const Json& j);

// --- Request and response bodies of the REST API ---

/// Length and movement digest of the GSM stream the cloud already holds.
struct PrefixClaim {
  std::size_t len = 0;
  std::uint64_t digest = 0;
};
/// Most observations one run-length body (a discover request or a
/// checkpoint's GSM log) may expand to. A year of one-minute GSM reads is
/// ~525k; the decoder rejects a larger total before it allocates, so a
/// hostile run count cannot reserve unbounded memory.
inline constexpr std::size_t kMaxExpandedObservations = std::size_t{1} << 22;

/// A GSM observation stream, run-length encoded:
///   {"cells": [<cell>, ...], "runs": [t0, period, count, cell_index, ...]}
/// "cells" is the stream's cell dictionary in order of first use; each
/// 4-tuple of "runs" is a maximal stretch of reads of one cell at a constant
/// positive gap (a single read has period 0), so any time sequence
/// round-trips exactly. The decoder validates every run and bounds the
/// expanded total by kMaxExpandedObservations before it expands them.
Json observation_runs_to_json(
    std::span<const algorithms::CellObservation> observations);
std::vector<algorithms::CellObservation> observation_runs_from_json(
    const Json& j);

/// POST /api/places/discover: the observation runs plus {prefix_len,
/// prefix_digest} for a suffix upload; prefix_len counts expanded
/// observations.
struct DiscoverRequest {
  std::vector<algorithms::CellObservation> observations;
  std::optional<PrefixClaim> prefix;
};
Json discover_request_to_json(
    std::span<const algorithms::CellObservation> observations,
    std::optional<PrefixClaim> prefix);
DiscoverRequest discover_request_from_json(const Json& j);

/// POST /api/users/:id/routes: a route plus its replay sequence number.
struct RouteUpload {
  std::optional<std::uint64_t> seq;
  algorithms::RouteObservation route;
};
Json to_json(const RouteUpload& upload);
RouteUpload route_upload_from_json(const Json& j);

/// /api/users/:id/contacts: {encounters}; uploads also carry the device-side
/// log index "first_index" of the first entry.
struct EncounterBatch {
  std::optional<std::uint64_t> first_index;
  std::vector<EncounterEntry> encounters;
};
Json to_json(const EncounterBatch& batch);
EncounterBatch encounter_batch_from_json(const Json& j);

/// Register and token-refresh responses; only registration has "session".
struct SessionGrant {
  world::DeviceId user = 0;
  std::string token;
  SimTime expires_at = 0;
  std::optional<std::uint64_t> session;
};
Json to_json(const SessionGrant& grant);
SessionGrant session_grant_from_json(const Json& j);

/// Place upsert response: {uid}, plus the resolved "location" if any.
struct PlaceEcho {
  PlaceUid uid = kNoPlaceUid;
  std::optional<geo::LatLng> location;
};
Json to_json(const PlaceEcho& echo);
PlaceEcho place_echo_from_json(const Json& j);

/// Folds observations into a movement digest (see movement_digest).
inline void fold_movement(
    std::uint64_t& h,
    std::span<const algorithms::CellObservation> observations) {
  for (const auto& obs : observations) {
    cache::fold(h, static_cast<std::uint64_t>(obs.t));
    cache::fold(h, obs.cell.key());
  }
}

/// Content digest of a movement-graph upload — the cache key of GCA
/// offload results (DESIGN.md "Content addressing & cache coherence").
/// Device and cloud must derive it identically from the observation list,
/// so both fold the same (t, packed cell) pairs; the digest is computed on
/// each side, never sent on the wire (request bodies stay byte-identical
/// whether caching is on or off).
inline std::uint64_t movement_digest(
    std::span<const algorithms::CellObservation> observations) {
  std::uint64_t h = cache::kDigestBasis;
  fold_movement(h, observations);
  return h;
}

/// A JSON array of `encode(item)` for each of `items`, by default the
/// item's codec encoding.
template <typename Range, typename Encode>
Json array_of(const Range& items, Encode encode) {
  Json arr = Json::array();
  for (const auto& item : items) arr.push_back(encode(item));
  return arr;
}
template <typename Range>
Json array_of(const Range& items) {
  return array_of(items, [](const auto& item) { return to_json(item); });
}

/// Decodes every element of the array `j[key]` with `decode`.
template <typename T, typename Decode>
std::vector<T> array_at(const Json& j, const char* key, Decode decode) {
  std::vector<T> out;
  for (const auto& e : j.at(key).as_array()) out.push_back(decode(e));
  return out;
}

}  // namespace pmware::core
