// Life-log visualization (paper §3, Figure 4): the mobility-history app that
// ships with PMWare. Renders
//   (a) the map of discovered places (Figure 4a / 5b) as ASCII and as an
//       SVG file written next to the binary,
//   (b) per-day timelines of the user's stays (Figure 4c), and
//   (c) exports the visit log and place records as JSONL (the app's local
//       storage), reloading them to show the round trip.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "apps/lifelog.hpp"
#include "cloud/cloud_instance.hpp"
#include "core/persistence.hpp"
#include "core/pms.hpp"
#include "mobility/schedule.hpp"
#include "util/logging.hpp"
#include "viz/map_render.hpp"

using namespace pmware;

int main() {
  set_log_level(LogLevel::Warn);
  Rng rng(31);
  world::WorldConfig world_config;
  auto world = world::generate_world(world_config, rng);
  auto participants = mobility::make_participants(*world, 1, rng);
  mobility::ScheduleConfig schedule;
  schedule.days = 5;
  const mobility::Trace trace =
      mobility::build_trace(*world, participants[0], schedule, rng);

  cloud::GeoLocationService geoloc(world->cell_location_db());
  geoloc.set_ap_db(world->ap_location_db());
  cloud::CloudInstance cloud(cloud::CloudConfig{}, std::move(geoloc),
                             rng.fork(1));
  auto device = std::make_unique<sensing::Device>(
      world, sensing::oracle_from_trace(trace), sensing::DeviceConfig{},
      rng.fork(2));
  auto client = std::make_unique<net::RestClient>(
      &cloud.router(), net::NetworkConditions{0.0, 1}, rng.fork(3));
  core::PmwareMobileService pms(std::move(device), core::PmsConfig{},
                                std::move(client), rng.fork(4));
  pms.register_with_cloud(0);

  apps::LifeLog lifelog;
  lifelog.connect(pms);

  for (int day = 0; day < schedule.days; ++day) {
    pms.run(TimeWindow{start_of_day(day), start_of_day(day + 1)});
    for (const auto& visit : pms.inference().visit_log()) {
      const core::PlaceRecord* record = pms.places().get(visit.uid);
      if (record == nullptr || !record->label.empty()) continue;
      const SimTime mid = (visit.window.begin + visit.window.end) / 2;
      if (const auto truth = trace.place_at(mid))
        lifelog.tag(visit.uid, world::to_string(world->place(*truth).category),
                    start_of_day(day + 1));
    }
  }
  pms.shutdown(days(schedule.days));

  // (a) The place map. Positions come back from the cloud's geo-location
  // resolution during sync.
  viz::MapExtent extent{world->config().origin, world->config().extent_m};
  std::vector<viz::MapMarker> markers;
  const auto* user_store = cloud.storage().find_user(1);
  if (user_store != nullptr) {
    for (const auto& [uid, record] : user_store->places) {
      if (!record.location) continue;
      viz::MapMarker marker;
      marker.position = *record.location;
      marker.label = record.label.empty() ? "(untagged)" : record.label;
      marker.glyph = record.label.empty() ? 'o' : record.label[0];
      marker.color = record.label == "home" ? "#cc4444" : "#4466cc";
      markers.push_back(std::move(marker));
    }
  }
  std::printf("--- discovered places (glyph = first letter of label) ---\n");
  std::printf("%s", viz::render_ascii_map(extent, markers, 60, 20).c_str());

  const std::string svg = viz::render_svg_map(extent, markers);
  std::ofstream("lifelog_places.svg") << svg;
  std::printf("SVG map written to lifelog_places.svg (%zu bytes)\n\n",
              svg.size());

  // (b) Day timelines from the visit log.
  for (int day = 1; day <= 2; ++day) {
    std::vector<viz::TimelineEntry> entries;
    for (const auto& visit : pms.inference().visit_log()) {
      const core::PlaceRecord* record = pms.places().get(visit.uid);
      std::string label = record != nullptr && !record->label.empty()
                              ? record->label
                              : "place-" + std::to_string(visit.uid);
      entries.push_back({visit.window, label,
                         label.empty() ? '?' : static_cast<char>(
                                                   std::toupper(label[0]))});
    }
    std::printf("%s\n", viz::render_day_timeline(day, entries).c_str());
  }

  // (c) Persistence round trip: the app's local storage.
  std::stringstream visits_file, places_file;
  core::write_jsonl(visits_file, pms.inference().visit_log());
  core::write_place_records(places_file, pms.places());
  const auto visits_back =
      core::read_jsonl(visits_file, core::logged_visit_from_json);
  const auto places_back =
      core::read_jsonl(places_file, core::place_record_from_json);
  std::printf("persisted and reloaded %zu visits and %zu place records "
              "(JSONL)\n",
              visits_back.size(), places_back.size());
  std::printf("%s", lifelog.render_place_list().c_str());
  return 0;
}
