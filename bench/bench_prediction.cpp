// Experiment A4 — the analytics & prediction engine (paper §2.3.2). The
// paper lists three example queries; this harness runs an 8-week simulation,
// lets the PMS sync mobility profiles to the cloud, and then scores the
// cloud's answers against ground truth:
//
//   Q1 "what time does the user typically reach home in the evening?"
//   Q2 "when will the next visit to place A be?"
//   Q3 "how frequently does the user visit shopping malls?"
#include <cstdio>

#include <cmath>

#include "cloud/cloud_instance.hpp"
#include "core/pms.hpp"
#include "mobility/participant.hpp"
#include "mobility/schedule.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"
#include "telemetry/export.hpp"
#include "telemetry/log.hpp"

using namespace pmware;

namespace {

constexpr int kDays = 56;  // 8 weeks of history

/// Ground-truth evening home arrivals (time-of-day of the arrival of each
/// home stay that starts after 15:00).
std::vector<double> truth_home_arrivals(const mobility::Trace& trace,
                                        world::PlaceId home) {
  std::vector<double> out;
  for (const auto& v : trace.visits()) {
    if (v.place != home) continue;
    const SimDuration tod = time_of_day(v.window.begin);
    if (tod >= hours(15)) out.push_back(static_cast<double>(tod));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      telemetry::bench_json_path(argc, argv, "prediction");
  set_log_level(LogLevel::Error);
  telemetry::apply_log_level_flag(argc, argv);
  Rng rng(20141208);
  Rng world_rng = rng.fork(1);
  world::WorldConfig wc;
  auto world = world::generate_world(wc, world_rng);
  Rng prng = rng.fork(2);
  const auto participants = mobility::make_participants(*world, 1, prng);
  const mobility::Participant& user = participants[0];
  Rng trng = rng.fork(3);
  mobility::ScheduleConfig sc;
  sc.days = kDays;
  const mobility::Trace trace = mobility::build_trace(*world, user, sc, trng);

  cloud::GeoLocationService geoloc(world->cell_location_db());
  geoloc.set_ap_db(world->ap_location_db());
  cloud::CloudInstance cloud(cloud::CloudConfig{}, std::move(geoloc),
                             rng.fork(4));

  auto device = std::make_unique<sensing::Device>(
      world, sensing::oracle_from_trace(trace), sensing::DeviceConfig{},
      rng.fork(5));
  auto client = std::make_unique<net::RestClient>(
      &cloud.router(), net::NetworkConditions{0.01, 1}, rng.fork(6));
  core::PmwareMobileService pms(std::move(device), core::PmsConfig{},
                                std::move(client), rng.fork(7));
  core::PlaceAlertRequest request;
  request.app = "bench";
  request.granularity = core::Granularity::Building;
  pms.apps().register_place_alerts(request);
  pms.register_with_cloud(0);
  pms.run(TimeWindow{0, days(kDays)});
  pms.shutdown(days(kDays));

  std::printf("=== A4: analytics & prediction engine over %d days of synced "
              "profiles ===\n\n",
              kDays);

  // Identify the discovered "home": the place occupied at 03:00 most often.
  std::map<core::PlaceUid, int> night_votes;
  for (const auto& v : pms.inference().visit_log())
    for (int day = 0; day < kDays; ++day)
      if (v.window.contains(start_of_day(day) + hours(3))) ++night_votes[v.uid];
  core::PlaceUid home_uid = 0;
  int best_votes = 0;
  for (const auto& [uid, votes] : night_votes)
    if (votes > best_votes) home_uid = uid, best_votes = votes;
  const world::DeviceId uid = *pms.user_id();

  // --- Q1: typical evening home arrival.
  const auto predicted_tod =
      cloud.analytics().typical_arrival_tod(uid, home_uid);
  const auto truth_arrivals = truth_home_arrivals(trace, user.home);
  double truth_mean = mean_of(truth_arrivals);
  std::printf("Q1  typical evening home arrival\n");
  if (predicted_tod) {
    std::printf("    predicted %s   truth mean %s   error %s\n",
                format_duration(*predicted_tod).c_str(),
                format_duration(static_cast<SimDuration>(truth_mean)).c_str(),
                format_duration(std::llabs(*predicted_tod -
                                           static_cast<SimDuration>(truth_mean)))
                    .c_str());
  } else {
    std::printf("    no prediction (insufficient history)\n");
  }

  // --- Q2: next-visit prediction for home, asked every noon of the final
  // two weeks; a hit = ground truth has a home arrival within 90 min of the
  // prediction.
  int asked = 0, answered = 0, hits = 0;
  RunningStats error_minutes;
  for (int day = kDays - 14; day < kDays - 1; ++day) {
    const SimTime now = start_of_day(day) + hours(12);
    const auto predicted = cloud.analytics().predict_next_visit(uid, home_uid, now);
    ++asked;
    if (!predicted) continue;
    ++answered;
    // Nearest true home arrival after `now`.
    std::optional<SimTime> nearest;
    for (const auto& v : trace.visits()) {
      if (v.place != user.home || v.window.begin <= now) continue;
      if (!nearest || std::llabs(v.window.begin - *predicted) <
                          std::llabs(*nearest - *predicted))
        nearest = v.window.begin;
    }
    if (!nearest) continue;
    const double err_min =
        std::abs(static_cast<double>(*nearest - *predicted)) / 60.0;
    error_minutes.add(err_min);
    if (err_min <= 90) ++hits;
  }
  std::printf("Q2  next home visit (asked daily at noon, last 2 weeks)\n");
  std::printf("    answered %d/%d, hit (<=90 min) %d/%d, mean |error| %.0f min\n",
              answered, asked, hits, answered, error_minutes.mean());

  // --- Q3: mall visit frequency. Tag places whose *dominant* ground-truth
  // category is Mall — the same judgement a user makes in the life-log UI
  // (a coarse GSM cluster that merely brushes the mall must not be tagged).
  std::map<core::PlaceUid, std::map<world::PlaceCategory, SimDuration>> overlap;
  for (const auto& v : pms.inference().visit_log()) {
    for (const auto& tv : trace.significant_visits(minutes(10))) {
      const SimDuration o = v.window.overlap_length(tv.window);
      if (o > 0) overlap[v.uid][world->place(tv.place).category] += o;
    }
  }
  for (const auto& [place_uid, categories] : overlap) {
    SimDuration best = 0;
    for (const auto& [category, o] : categories) best = std::max(best, o);
    const auto mall_it = categories.find(world::PlaceCategory::Mall);
    // A merged "mall complex" (mall + its cinema) still reads as a mall to
    // the user tagging it — accept Mall when it carries most of the dwell.
    if (mall_it != categories.end() && mall_it->second >= (best * 4) / 5)
      pms.tag_place(place_uid, "mall", days(kDays));
  }
  std::vector<core::PlaceUid> mall_uids = pms.places().with_label("mall");
  // With no mall tagged there is nothing to predict: 0.00 vs a truth of
  // 0.00 would read as a met shape, so the question is reported unanswered.
  const bool q3_evaluated = !mall_uids.empty();
  if (q3_evaluated) {
    const double predicted_freq =
        cloud.analytics().visit_frequency_per_week(uid, mall_uids);
    // Ground truth mall visits per week.
    std::size_t truth_mall_visits = 0;
    for (const auto& v : trace.significant_visits(minutes(10)))
      if (world->place(v.place).category == world::PlaceCategory::Mall)
        ++truth_mall_visits;
    const double truth_freq = static_cast<double>(truth_mall_visits) /
                              (static_cast<double>(kDays) / 7.0);
    std::printf("Q3  mall visit frequency (%zu place(s) tagged 'mall')\n",
                mall_uids.size());
    std::printf("    predicted %.2f / week   truth %.2f / week\n",
                predicted_freq, truth_freq);
    std::printf("    (a merged mall+cinema complex counts its cinema stays"
                " too —\n     the paper's merged-place caveat surfaces"
                " here)\n");
  } else {
    std::printf("Q3 not evaluated (no place tagged 'mall')\n");
  }

  std::printf("\nshape check: Q1 error within tens of minutes, Q2 hit rate\n"
              "well above half, %s\n",
              q3_evaluated ? "Q3 within ~1 visit/week of truth."
                           : "Q3 not evaluated.");
  if (!json_path.empty() &&
      !telemetry::write_bench_json(json_path, "prediction",
                                   Json::object(), {0, 1, kDays}))
    return 1;
  return 0;
}
