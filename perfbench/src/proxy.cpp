#include "proxy.hpp"

#include "net/fault.hpp"

namespace pmware::perfbench {

namespace {

constexpr int kMaxSegments = 8;

struct RouteKey {
  net::Method method;
  const char* generalized;
  Route route;
};

constexpr RouteKey kRoutes[] = {
    {net::Method::Post, "/api/register", Route::Register},
    {net::Method::Post, "/api/token/refresh", Route::TokenRefresh},
    {net::Method::Post, "/api/places/discover", Route::Discover},
    {net::Method::Get, "/api/users/:n/places", Route::PlacesGet},
    {net::Method::Put, "/api/users/:n/places/:n", Route::PlacesPut},
    {net::Method::Post, "/api/users/:n/places/:n/label", Route::Label},
    {net::Method::Put, "/api/users/:n/profiles/:n", Route::ProfilesPut},
    {net::Method::Get, "/api/users/:n/profiles/:n", Route::ProfilesGet},
    {net::Method::Post, "/api/users/:n/routes", Route::RoutesPost},
    {net::Method::Delete, "/api/users/:n", Route::UserDelete},
};

}  // namespace

const char* route_name(Route route) {
  switch (route) {
    case Route::Register: return "register";
    case Route::TokenRefresh: return "token_refresh";
    case Route::Discover: return "discover";
    case Route::PlacesGet: return "places_get";
    case Route::PlacesPut: return "places_put";
    case Route::Label: return "label";
    case Route::ProfilesPut: return "profiles_put";
    case Route::ProfilesGet: return "profiles_get";
    case Route::RoutesPost: return "routes_post";
    case Route::UserDelete: return "user_delete";
    case Route::Other: return "other";
  }
  return "other";
}

Route classify(net::Method method, const std::string& path) {
  const std::string generalized = net::generalized_path(path);
  for (const RouteKey& key : kRoutes)
    if (key.method == method && generalized == key.generalized)
      return key.route;
  return Route::Other;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Proxy::Proxy() {
  const auto handler = [this](const net::HttpRequest& request,
                              const net::PathParams&) {
    return forward(request);
  };
  for (const net::Method method : {net::Method::Get, net::Method::Post,
                                   net::Method::Put, net::Method::Delete}) {
    std::string pattern;
    for (int s = 1; s <= kMaxSegments; ++s) {
      pattern += "/:s" + std::to_string(s);
      router_.add_route(method, pattern, handler);
    }
  }
}

net::HttpResponse Proxy::forward(const net::HttpRequest& request) {
  Exchange exchange;
  exchange.route = classify(request.method, request.path);
  net::HttpResponse response;
  {
    const ScopedSpan span(
        spans_,
        spans_ ? std::string("cloud ") + net::to_string(request.method) + " " +
                     net::generalized_path(request.path)
               : std::string(),
        "cloud");
    const std::int64_t begin = now_ns();
    response = target_->handle(request);
    exchange.handle_ns = now_ns() - begin;
  }
  exchange.status = response.status;
  handle_ns_total_ += exchange.handle_ns;
  if (counting_ || capture_) {
    const std::string body = response.body.dump();
    exchange.response_bytes = body.size();
    exchange.request_bytes = request.body.dump().size();
    if (capture_) capture_->push_back({request, response.status, fnv1a(body)});
  }
  exchanges_.push_back(exchange);
  return response;
}

}  // namespace pmware::perfbench
