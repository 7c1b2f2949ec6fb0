#include "core/codec.hpp"

#include <charconv>
#include <limits>

#include "core/inference_engine.hpp"
#include "util/strfmt.hpp"

namespace pmware::core {

const char* to_string(Granularity g) {
  switch (g) {
    case Granularity::Area: return "area";
    case Granularity::Building: return "building";
    case Granularity::Room: return "room";
  }
  return "?";
}

namespace {

std::int64_t int_at(const Json& j, const char* key) {
  return j.at(key).as_int();
}

/// Non-negative integer field that must fit in T.
template <typename T>
T uint_at(const Json& j, const char* key) {
  const std::int64_t value = int_at(j, key);
  if (value < 0 ||
      static_cast<std::uint64_t>(value) > std::numeric_limits<T>::max())
    throw JsonError(std::string("out of range: ") + key);
  return static_cast<T>(value);
}

template <typename T>
std::optional<T> optional_uint_at(const Json& j, const char* key) {
  if (!j.contains(key)) return std::nullopt;
  return uint_at<T>(j, key);
}

/// A [begin, end] pair of time fields; an inverted window is malformed.
TimeWindow window_at(const Json& j, const char* begin, const char* end) {
  const SimTime b = int_at(j, begin);
  const SimTime e = int_at(j, end);
  if (e < b) throw JsonError(std::string("inverted window: ") + end);
  return TimeWindow{b, e};
}

Granularity granularity_from_string(const std::string& s) {
  if (s == "area") return Granularity::Area;
  if (s == "building") return Granularity::Building;
  if (s == "room") return Granularity::Room;
  throw JsonError("unknown granularity: " + s);
}

}  // namespace

std::string hex64(std::uint64_t value) {
  return strfmt("%016llx", static_cast<unsigned long long>(value));
}

std::uint64_t hex64_from_json(const Json& j) {
  const std::string& text = j.as_string();
  const char* last = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), last, value, 16);
  if (text.size() > 16 || ec != std::errc() || end != last)
    throw JsonError("bad hex64: " + text);
  return value;
}

Json to_json(const world::CellId& cell) {
  return Json::Object{
      {"mcc", static_cast<std::int64_t>(cell.mcc)},
      {"mnc", static_cast<std::int64_t>(cell.mnc)},
      {"lac", static_cast<std::int64_t>(cell.lac)},
      {"cid", static_cast<std::int64_t>(cell.cid)},
      {"radio", cell.radio == world::Radio::Gsm2G ? "2g" : "3g"}};
}

world::CellId cell_from_json(const Json& j) {
  const std::string& radio = j.at("radio").as_string();
  if (radio != "2g" && radio != "3g")
    throw JsonError("unknown radio: " + radio);
  return {uint_at<std::uint16_t>(j, "mcc"), uint_at<std::uint16_t>(j, "mnc"),
          uint_at<std::uint16_t>(j, "lac"), uint_at<std::uint32_t>(j, "cid"),
          radio == "3g" ? world::Radio::Umts3G : world::Radio::Gsm2G};
}

Json to_json(const geo::LatLng& p) {
  return Json::Object{{"lat", p.lat}, {"lng", p.lng}};
}

geo::LatLng latlng_from_json(const Json& j) {
  return {j.at("lat").as_double(), j.at("lng").as_double()};
}

Json to_json(const algorithms::PlaceSignature& sig) {
  if (const auto* c = std::get_if<algorithms::CellSignature>(&sig))
    return Json::Object{{"kind", "cells"},
                        {"cells", array_of(c->cells)}};
  if (const auto* w = std::get_if<algorithms::WifiSignature>(&sig))
    return Json::Object{{"kind", "wifi"},
                        {"aps", array_of(w->aps, [](world::Bssid b) {
                           return Json(static_cast<std::uint64_t>(b));
                         })}};
  const auto& g = std::get<algorithms::GpsSignature>(sig);
  return Json::Object{
      {"kind", "gps"}, {"center", to_json(g.center)}, {"radius_m", g.radius_m}};
}

algorithms::PlaceSignature signature_from_json(const Json& j) {
  const std::string kind = j.at("kind").as_string();
  if (kind == "cells") {
    algorithms::CellSignature sig;
    for (const auto& c : j.at("cells").as_array())
      sig.cells.insert(cell_from_json(c));
    return sig;
  }
  if (kind == "wifi") {
    algorithms::WifiSignature sig;
    for (const auto& b : j.at("aps").as_array()) {
      if (b.as_int() < 0) throw JsonError("negative bssid");
      sig.aps.insert(static_cast<world::Bssid>(b.as_int()));
    }
    return sig;
  }
  if (kind == "gps")
    return algorithms::GpsSignature{latlng_from_json(j.at("center")),
                                    j.at("radius_m").as_double()};
  throw JsonError("unknown signature kind: " + kind);
}

Json to_json(const algorithms::CellObservation& obs) {
  Json j = Json::Object{{"t", obs.t}};
  j.set("cell", to_json(obs.cell));
  return j;
}

algorithms::CellObservation cell_observation_from_json(const Json& j) {
  return {int_at(j, "t"), cell_from_json(j.at("cell"))};
}

Json to_json(const algorithms::RouteObservation& route) {
  Json j = Json::Object{{"from", static_cast<std::uint64_t>(route.from_place)},
                        {"to", static_cast<std::uint64_t>(route.to_place)},
                        {"start", route.window.begin},
                        {"end", route.window.end}};
  Json cells = Json::array();
  for (std::size_t i = 0; i < route.cells.cells.size(); ++i)
    cells.push_back(to_json(algorithms::CellObservation{
        route.cells.times[i], route.cells.cells[i]}));
  if (cells.size() > 0) j.set("cells", std::move(cells));
  Json gps = Json::array();  // {lat, lng, t} fixes
  for (std::size_t i = 0; i < route.gps.points.size(); ++i) {
    Json fix = to_json(route.gps.points[i]);
    fix.set("t", route.gps.times[i]);
    gps.push_back(std::move(fix));
  }
  if (gps.size() > 0) j.set("gps", std::move(gps));
  return j;
}

algorithms::RouteObservation route_observation_from_json(const Json& j) {
  algorithms::RouteObservation route;
  route.from_place = uint_at<std::size_t>(j, "from");
  route.to_place = uint_at<std::size_t>(j, "to");
  route.window = window_at(j, "start", "end");
  if (j.contains("cells")) {
    for (const auto& c : j.at("cells").as_array()) {
      const algorithms::CellObservation obs = cell_observation_from_json(c);
      route.cells.times.push_back(obs.t);
      route.cells.cells.push_back(obs.cell);
    }
  }
  if (j.contains("gps")) {
    for (const auto& g : j.at("gps").as_array()) {
      route.gps.times.push_back(int_at(g, "t"));
      route.gps.points.push_back(latlng_from_json(g));
    }
  }
  return route;
}

Json to_json(const algorithms::CanonicalRoute& route) {
  Json j = to_json(route.representative);
  j.set("use_count", static_cast<std::uint64_t>(route.use_count));
  return j;
}

algorithms::CanonicalRoute canonical_route_from_json(const Json& j) {
  return {route_observation_from_json(j), uint_at<std::size_t>(j, "use_count")};
}

Json route_summary_to_json(std::size_t uid,
                           const algorithms::CanonicalRoute& route) {
  return Json::Object{
      {"route_uid", static_cast<std::uint64_t>(uid)},
      {"from", static_cast<std::uint64_t>(route.representative.from_place)},
      {"to", static_cast<std::uint64_t>(route.representative.to_place)},
      {"use_count", static_cast<std::uint64_t>(route.use_count)}};
}

Json to_json(const RouteEvent& event) {
  return Json::Object{{"route_uid", event.route_uid},
                      {"from", event.from},
                      {"to", event.to},
                      {"start", event.window.begin},
                      {"end", event.window.end},
                      {"high_accuracy", event.high_accuracy}};
}

RouteEvent route_event_from_json(const Json& j) {
  return {uint_at<std::uint64_t>(j, "route_uid"), uint_at<PlaceUid>(j, "from"),
          uint_at<PlaceUid>(j, "to"), window_at(j, "start", "end"),
          j.at("high_accuracy").as_bool()};
}

Json to_json(const EncounterEntry& encounter) {
  return Json::Object{
      {"contact", static_cast<std::uint64_t>(encounter.contact)},
      {"place", static_cast<std::uint64_t>(encounter.place)},
      {"start", encounter.start},
      {"end", encounter.end}};
}

EncounterEntry encounter_from_json(const Json& j) {
  const TimeWindow window = window_at(j, "start", "end");
  return {uint_at<world::DeviceId>(j, "contact"), uint_at<PlaceUid>(j, "place"),
          window.begin, window.end};
}

EncounterEntry to_entry(const EncounterEvent& event) {
  return {event.contact, event.place, event.window.begin, event.window.end};
}

Json to_json(const ActivitySummary& activity) {
  return Json::Object{{"still", activity.still},
                      {"walking", activity.walking},
                      {"vehicle", activity.vehicle}};
}

ActivitySummary activity_from_json(const Json& j) {
  return {int_at(j, "still"), int_at(j, "walking"), int_at(j, "vehicle")};
}

Json to_json(const LoggedVisit& visit) {
  return Json::Object{{"uid", static_cast<std::uint64_t>(visit.uid)},
                      {"begin", visit.window.begin},
                      {"end", visit.window.end}};
}

LoggedVisit logged_visit_from_json(const Json& j) {
  return {uint_at<PlaceUid>(j, "uid"), window_at(j, "begin", "end")};
}

Json to_json(const PlaceRecord& record) {
  Json j = Json::Object{
      {"uid", static_cast<std::uint64_t>(record.uid)},
      {"label", record.label},
      {"granularity", to_string(record.granularity)},
      {"visit_count", static_cast<std::uint64_t>(record.visit_count)},
      {"total_dwell", static_cast<std::int64_t>(record.total_dwell)}};
  j.set("signature", to_json(record.signature));
  if (record.location) j.set("location", to_json(*record.location));
  return j;
}

PlaceRecord place_record_from_json(const Json& j) {
  PlaceRecord record;
  record.uid = uint_at<PlaceUid>(j, "uid");
  record.signature = signature_from_json(j.at("signature"));
  record.label = j.at("label").as_string();
  if (j.contains("location"))
    record.location = latlng_from_json(j.at("location"));
  record.granularity = granularity_from_string(j.at("granularity").as_string());
  record.visit_count = uint_at<std::size_t>(j, "visit_count");
  record.total_dwell = int_at(j, "total_dwell");
  return record;
}

Json place_listing_to_json(const std::map<PlaceUid, PlaceRecord>& places) {
  Json j = Json::object();
  j.set("places", array_of(places, [](const auto& entry) {
          return to_json(entry.second);
        }));
  return j;
}

std::vector<PlaceRecord> place_listing_from_json(const Json& j) {
  return array_at<PlaceRecord>(j, "places", place_record_from_json);
}

Json to_json(const MobilityProfile& profile) {
  Json j = Json::Object{{"user", static_cast<std::uint64_t>(profile.user)},
                        {"day", profile.day}};
  j.set("places", array_of(profile.places, [](const PlaceVisitEntry& v) {
          return Json(Json::Object{
              {"place", static_cast<std::uint64_t>(v.place)},
              {"arrival", v.arrival},
              {"departure", v.departure}});
        }));
  j.set("routes", array_of(profile.routes, [](const RouteEntry& r) {
          return Json(Json::Object{
              {"route", static_cast<std::uint64_t>(r.route_uid)},
              {"start", r.start},
              {"end", r.end}});
        }));
  j.set("encounters", array_of(profile.encounters));
  if (!profile.activity.empty()) j.set("activity", to_json(profile.activity));
  return j;
}

MobilityProfile profile_from_json(const Json& j) {
  MobilityProfile profile;
  profile.user = uint_at<world::DeviceId>(j, "user");
  profile.day = int_at(j, "day");
  profile.places = array_at<PlaceVisitEntry>(j, "places", [](const Json& e) {
    const TimeWindow stay = window_at(e, "arrival", "departure");
    return PlaceVisitEntry{uint_at<PlaceUid>(e, "place"), stay.begin, stay.end};
  });
  profile.routes = array_at<RouteEntry>(j, "routes", [](const Json& e) {
    const TimeWindow trip = window_at(e, "start", "end");
    return RouteEntry{uint_at<std::uint64_t>(e, "route"), trip.begin, trip.end};
  });
  profile.encounters =
      array_at<EncounterEntry>(j, "encounters", encounter_from_json);
  if (j.contains("activity"))
    profile.activity = activity_from_json(j.at("activity"));
  return profile;
}

Json to_json(const OutboxEntry& entry) {
  return Json::Object{{"kind", static_cast<std::int64_t>(entry.kind)},
                      {"key", entry.key},
                      {"key2", entry.key2},
                      {"enqueued_at", entry.enqueued_at},
                      {"attempts", static_cast<std::int64_t>(entry.attempts)},
                      {"epoch", entry.epoch}};
}

OutboxEntry outbox_entry_from_json(const Json& j) {
  const auto kind = uint_at<std::uint8_t>(j, "kind");
  if (kind > static_cast<std::uint8_t>(SyncKind::EncounterBatch))
    throw JsonError("unknown sync kind " + std::to_string(kind));
  return {static_cast<SyncKind>(kind), uint_at<std::uint64_t>(j, "key"),
          uint_at<std::uint64_t>(j, "key2"), int_at(j, "enqueued_at"),
          uint_at<int>(j, "attempts"), uint_at<std::uint64_t>(j, "epoch")};
}

Json to_json(const algorithms::GcaResult& result) {
  Json j = Json::object();
  j.set("places", array_of(result.places, [](const algorithms::CellCluster& c) {
          Json p = Json::Object{
              {"total_dwell", static_cast<std::int64_t>(c.total_dwell)}};
          p.set("signature", to_json(algorithms::PlaceSignature(c.signature)));
          return p;
        }));
  j.set("visits",
        array_of(result.visits, [](const algorithms::DiscoveredVisit& v) {
          return Json(Json::Object{
              {"place", static_cast<std::uint64_t>(v.place_index)},
              {"arrival", v.window.begin},
              {"departure", v.window.end}});
        }));
  return j;
}

algorithms::GcaResult gca_result_from_json(const Json& j) {
  algorithms::GcaResult result;
  for (const auto& p : j.at("places").as_array()) {
    auto sig = signature_from_json(p.at("signature"));
    auto* cells = std::get_if<algorithms::CellSignature>(&sig);
    if (cells == nullptr) throw JsonError("GCA place without a cell signature");
    for (const auto& cell : cells->cells)
      result.cell_to_place[cell] = result.places.size();
    result.places.push_back({std::move(*cells), int_at(p, "total_dwell")});
  }
  result.visits = array_at<algorithms::DiscoveredVisit>(
      j, "visits", [&result](const Json& v) {
        const auto place = uint_at<std::size_t>(v, "place");
        if (place >= result.places.size())
          throw JsonError("GCA visit names an unknown place");
        return algorithms::DiscoveredVisit{
            place, window_at(v, "arrival", "departure")};
      });
  return result;
}

Json observation_runs_to_json(
    std::span<const algorithms::CellObservation> observations) {
  Json::Array cells;
  std::map<world::CellId, std::int64_t> dictionary;
  Json::Array runs;
  for (std::size_t i = 0; i < observations.size();) {
    const algorithms::CellObservation& first = observations[i];
    const auto same_cell = [&](std::size_t k) {
      return k < observations.size() && observations[k].cell == first.cell;
    };
    // The gap to the next read of the same cell fixes the period; a repeat
    // or a step back in time ends the run at one read.
    SimTime period = 0;
    std::size_t end = i + 1;
    if (same_cell(end) && observations[end].t > first.t) {
      period = observations[end].t - first.t;
      while (same_cell(end) &&
             observations[end].t - observations[end - 1].t == period)
        ++end;
    }
    const auto [entry, added] = dictionary.try_emplace(
        first.cell, static_cast<std::int64_t>(cells.size()));
    if (added) cells.push_back(to_json(first.cell));
    runs.push_back(first.t);
    runs.push_back(period);
    runs.push_back(static_cast<std::int64_t>(end - i));
    runs.push_back(entry->second);
    i = end;
  }
  Json j = Json::object();
  j.set("cells", Json(std::move(cells)));
  j.set("runs", Json(std::move(runs)));
  return j;
}

namespace {

/// One (t0, period, count, cell_index) tuple of an observation-runs body.
struct ObservationRun {
  SimTime t0 = 0;
  SimTime period = 0;
  std::int64_t count = 0;
  std::size_t cell = 0;
};

ObservationRun run_at(const Json::Array& runs, std::size_t at,
                      std::size_t dictionary_size) {
  const SimTime t0 = runs[at].as_int();
  const SimTime period = runs[at + 1].as_int();
  const std::int64_t count = runs[at + 2].as_int();
  const std::int64_t cell = runs[at + 3].as_int();
  if (count < 1) throw JsonError("run count below 1");
  if (period < 0) throw JsonError("negative run period");
  if (period == 0 && count > 1)
    throw JsonError("run of several reads with period 0");
  if (cell < 0 || static_cast<std::uint64_t>(cell) >= dictionary_size)
    throw JsonError("run names a cell outside the dictionary");
  SimTime span = 0;
  SimTime last = 0;
  if (__builtin_mul_overflow(period, count - 1, &span) ||
      __builtin_add_overflow(t0, span, &last))
    throw JsonError("run end time overflows");
  return {t0, period, count, static_cast<std::size_t>(cell)};
}

}  // namespace

std::vector<algorithms::CellObservation> observation_runs_from_json(
    const Json& j) {
  const std::vector<world::CellId> cells =
      array_at<world::CellId>(j, "cells", cell_from_json);
  const Json::Array& encoded = j.at("runs").as_array();
  if (encoded.size() % 4 != 0)
    throw JsonError("runs length is not a multiple of 4");
  // Validate every run and bound the expanded total before any allocation
  // that scales with a claimed count.
  std::vector<ObservationRun> runs;
  runs.reserve(encoded.size() / 4);
  std::size_t total = 0;
  for (std::size_t at = 0; at < encoded.size(); at += 4) {
    runs.push_back(run_at(encoded, at, cells.size()));
    const auto count = static_cast<std::uint64_t>(runs.back().count);
    if (count > kMaxExpandedObservations - total)
      throw JsonError("runs expand past kMaxExpandedObservations");
    total += static_cast<std::size_t>(count);
  }
  std::vector<algorithms::CellObservation> observations;
  observations.reserve(total);
  for (const ObservationRun& run : runs)
    for (std::int64_t k = 0; k < run.count; ++k)
      observations.push_back({run.t0 + k * run.period, cells[run.cell]});
  return observations;
}

Json discover_request_to_json(
    std::span<const algorithms::CellObservation> observations,
    std::optional<PrefixClaim> prefix) {
  Json j = observation_runs_to_json(observations);
  if (prefix) {
    j.set("prefix_len", static_cast<std::int64_t>(prefix->len));
    j.set("prefix_digest", hex64(prefix->digest));
  }
  return j;
}

DiscoverRequest discover_request_from_json(const Json& j) {
  DiscoverRequest request{observation_runs_from_json(j), std::nullopt};
  if (j.contains("prefix_len"))
    request.prefix = PrefixClaim{uint_at<std::size_t>(j, "prefix_len"),
                                 hex64_from_json(j.at("prefix_digest"))};
  return request;
}

Json to_json(const RouteUpload& upload) {
  Json j = to_json(upload.route);
  if (upload.seq) j.set("seq", *upload.seq);
  return j;
}

RouteUpload route_upload_from_json(const Json& j) {
  return {optional_uint_at<std::uint64_t>(j, "seq"),
          route_observation_from_json(j)};
}

Json to_json(const EncounterBatch& batch) {
  Json j = Json::object();
  if (batch.first_index) j.set("first_index", *batch.first_index);
  j.set("encounters", array_of(batch.encounters));
  return j;
}

EncounterBatch encounter_batch_from_json(const Json& j) {
  return {optional_uint_at<std::uint64_t>(j, "first_index"),
          array_at<EncounterEntry>(j, "encounters", encounter_from_json)};
}

Json to_json(const SessionGrant& grant) {
  Json j = Json::Object{{"user", static_cast<std::uint64_t>(grant.user)},
                        {"token", grant.token},
                        {"expires_at", grant.expires_at}};
  if (grant.session) j.set("session", *grant.session);
  return j;
}

SessionGrant session_grant_from_json(const Json& j) {
  return {uint_at<world::DeviceId>(j, "user"), j.at("token").as_string(),
          int_at(j, "expires_at"),
          optional_uint_at<std::uint64_t>(j, "session")};
}

Json to_json(const PlaceEcho& echo) {
  Json j = Json::Object{{"uid", static_cast<std::uint64_t>(echo.uid)}};
  if (echo.location) j.set("location", to_json(*echo.location));
  return j;
}

PlaceEcho place_echo_from_json(const Json& j) {
  PlaceEcho echo{uint_at<PlaceUid>(j, "uid"), std::nullopt};
  if (j.contains("location"))
    echo.location = latlng_from_json(j.at("location"));
  return echo;
}

}  // namespace pmware::core
