// Catch-all forwarding router between the simulated phones and the cloud.
// Every request the middleware's RestClient delivers is matched by one of
// the patterns "/:s1" ... "/:s1/.../:s8" (for each method) and forwarded to
// the target router unchanged, which lets the benchmark time each cloud
// request from outside, record the PMS -> cloud stream for replay, and open
// a span around it in the traced pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/http.hpp"
#include "net/router.hpp"
#include "spans.hpp"

namespace pmware::perfbench {

/// The cloud routes the benchmark reports separately; everything else is
/// Other.
enum class Route : std::uint8_t {
  Register,
  TokenRefresh,
  Discover,
  PlacesGet,
  PlacesPut,
  Label,
  ProfilesPut,
  ProfilesGet,
  RoutesPost,
  UserDelete,
  Other,
};
inline constexpr std::size_t kRouteCount = 11;

/// Metric-name stem of a route, e.g. "discover".
const char* route_name(Route route);
/// Classifies a request by method and generalized path.
Route classify(net::Method method, const std::string& path);

/// One forwarded request.
struct Exchange {
  Route route = Route::Other;
  int status = 0;
  std::int64_t handle_ns = 0;  ///< wall time of the target's handle()
  std::size_t request_bytes = 0;   ///< serialized body; counting mode only
  std::size_t response_bytes = 0;  ///< serialized body; counting mode only
};

/// One captured request with the outcome the live cloud gave it.
struct CapturedRequest {
  net::HttpRequest request;
  int status = 0;
  std::uint64_t body_digest = 0;  ///< FNV-1a of the serialized response body
};

/// FNV-1a over a string.
std::uint64_t fnv1a(const std::string& bytes);

class Proxy {
 public:
  Proxy();
  // The router's handlers capture `this`.
  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  /// The router clients send to.
  const net::Router& router() const { return router_; }

  /// Forward target; must outlive every request sent through the proxy.
  void set_target(const net::Router* target) { target_ = target; }
  /// Opens a span per forwarded request; null = untraced.
  void set_spans(SpanRecorder* spans) { spans_ = spans; }
  /// Serializes bodies to count bytes (costs time; off in timed passes).
  void set_counting(bool counting) { counting_ = counting; }
  /// Records every forwarded request and its outcome; null = off.
  void set_capture(std::vector<CapturedRequest>* capture) { capture_ = capture; }

  /// Exchanges since the last clear().
  const std::vector<Exchange>& exchanges() const { return exchanges_; }
  void clear() {
    exchanges_.clear();
    handle_ns_total_ = 0;
  }
  /// Running sum of handle_ns, for nested-time accounting.
  std::int64_t handle_ns_total() const { return handle_ns_total_; }

 private:
  net::HttpResponse forward(const net::HttpRequest& request);

  net::Router router_;
  const net::Router* target_ = nullptr;
  SpanRecorder* spans_ = nullptr;
  bool counting_ = false;
  std::vector<CapturedRequest>* capture_ = nullptr;
  std::vector<Exchange> exchanges_;
  std::int64_t handle_ns_total_ = 0;
};

}  // namespace pmware::perfbench
