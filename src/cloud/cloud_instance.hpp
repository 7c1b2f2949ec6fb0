// The PMWare Cloud Instance (PCI, paper §2.3): REST endpoints for
// registration, place/route discovery offloading, mobility-profile sync,
// social contacts, geo-location, and analytics.
//
// Requests carry the simulation clock in an "X-Sim-Time" header (the
// in-process stand-in for wall-clock), and a bearer token in
// "Authorization" for everything except registration.
//
// Dispatch is concurrent: the router takes no lock, per-user handlers lock
// only the owning storage shard, and cross-user routes (/healthz, /metrics,
// /tracez) read all-shards snapshots or the thread-safe telemetry registry
// (see DESIGN.md "Concurrency model").
#pragma once

#include <chrono>
#include <string>

#include "cloud/analytics.hpp"
#include "cloud/geolocation.hpp"
#include "cloud/storage.hpp"
#include "cloud/token_service.hpp"
#include "net/router.hpp"
#include "util/rng.hpp"

namespace pmware::cloud {

struct CloudConfig {
  // 28h: long enough that the nightly housekeeping refresh runs
  // with >4h of validity to spare, short enough to be exercised daily.
  SimDuration token_ttl = hours(28);
  /// Per-request wall-clock SLO: handlers slower than this increment
  /// cloud_slo_violations_total{route=...}. Default 1 ms — generous for
  /// in-process handlers, so violations flag real regressions (a GCA
  /// recluster blowing up, a pathological JSON body), not noise.
  double slo_wall_us = 1000.0;
  /// Storage shard count: requests for different users contend only when
  /// their ids hash to the same shard. 1 degenerates to the old fully
  /// serialized cloud (useful as a determinism baseline).
  std::size_t shards = CloudStorage::kDefaultShards;
  /// Scripted server-side failures (outage windows, per-route error rates,
  /// added latency); empty = healthy cloud. Injected in front of auth and
  /// handlers, so a rejected request never mutates state — see
  /// net/fault.hpp and `FaultPlan::parse` for the --fault-plan grammar.
  net::FaultPlan fault_plan;
  /// Has no effect: the cloud keeps no result cache, and its ETags and 304
  /// answers are always on. Kept only because the benchmark's study runner
  /// assigns it; see ROADMAP.md for its removal.
  bool cache = true;
};

class CloudInstance {
 public:
  CloudInstance(CloudConfig config, GeoLocationService geoloc, Rng rng);

  /// The REST surface; hand this to a net::RestClient.
  const net::Router& router() const { return router_; }

  // Direct (non-REST) access for tests and local tooling.
  /// The router itself, for mounting extra routes next to the API's.
  net::Router& mutable_router() { return router_; }
  CloudStorage& storage() { return storage_; }
  const CloudStorage& storage() const { return storage_; }
  TokenService& tokens() { return tokens_; }
  const AnalyticsEngine& analytics() const { return analytics_; }
  const GeoLocationService& geolocation() const { return geoloc_; }

  /// Header names of the simulated transport (canonical names live with the
  /// HTTP model in net/http.hpp; this alias keeps existing callers working).
  static constexpr const char* kSimTimeHeader = net::kSimTimeHeader;

 private:
  void register_routes();

  /// Current simulated time as reported by the caller (0 if absent).
  static SimTime request_time(const net::HttpRequest& request);

  /// Stamps a strong ETag on a successful response and collapses it to a
  /// bodyless 304 when the request's If-None-Match already names it.
  static net::HttpResponse conditional(const net::HttpRequest& request,
                                       net::HttpResponse response);

  /// Validates the bearer token; returns the authenticated user or nullopt.
  std::optional<world::DeviceId> authed_user(
      const net::HttpRequest& request) const;

  /// 401 unless the token is valid AND matches the :id path parameter.
  std::optional<net::HttpResponse> require_user(
      const net::HttpRequest& request, const net::PathParams& params,
      world::DeviceId& user_out) const;

  /// Wipe-tombstone gate for mutating handlers: 410 Gone when the request's
  /// X-PMWare-Session is at or below the user's wipe tombstone (a replay
  /// from a wiped incarnation — it must never resurrect pre-wipe data).
  std::optional<net::HttpResponse> require_writable(
      const net::HttpRequest& request, world::DeviceId user) const;

  CloudConfig config_;
  /// Process start, for /healthz uptime (wall clock — the one clock the
  /// simulated transport does not fake).
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  GeoLocationService geoloc_;
  TokenService tokens_;
  CloudStorage storage_;
  AnalyticsEngine analytics_;
  net::Router router_;
};

}  // namespace pmware::cloud
