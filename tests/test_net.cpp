#include "net/client.hpp"
#include "net/http.hpp"
#include "net/router.hpp"

#include <gtest/gtest.h>

namespace pmware::net {
namespace {

void fill_echo_router(Router& router) {
  router.add_route(Method::Get, "/ping",
                   [](const HttpRequest&, const PathParams&) {
                     Json body = Json::object();
                     body.set("pong", true);
                     return HttpResponse::json(std::move(body));
                   });
  router.add_route(Method::Get, "/users/:id/places/:uid",
                   [](const HttpRequest&, const PathParams& params) {
                     Json body = Json::object();
                     body.set("id", params.at("id"));
                     body.set("uid", params.at("uid"));
                     return HttpResponse::json(std::move(body));
                   });
  router.add_route(Method::Post, "/echo",
                   [](const HttpRequest& req, const PathParams&) {
                     return HttpResponse::json(req.body);
                   });
}

TEST(Router, ExactMatch) {
  Router router;
  fill_echo_router(router);
  HttpRequest request{Method::Get, "/ping", {}, {}, {}};
  const HttpResponse response = router.handle(request);
  EXPECT_TRUE(response.ok());
  EXPECT_TRUE(response.body.at("pong").as_bool());
}

TEST(Router, PathParamsCaptured) {
  Router router;
  fill_echo_router(router);
  HttpRequest request{Method::Get, "/users/7/places/1234", {}, {}, {}};
  const HttpResponse response = router.handle(request);
  EXPECT_TRUE(response.ok());
  EXPECT_EQ(response.body.at("id").as_string(), "7");
  EXPECT_EQ(response.body.at("uid").as_string(), "1234");
}

TEST(Router, MethodMismatchIs404) {
  Router router;
  fill_echo_router(router);
  HttpRequest request{Method::Post, "/ping", {}, {}, {}};
  EXPECT_EQ(router.handle(request).status, kStatusNotFound);
}

TEST(Router, UnknownPathIs404) {
  Router router;
  fill_echo_router(router);
  HttpRequest request{Method::Get, "/nope", {}, {}, {}};
  const HttpResponse response = router.handle(request);
  EXPECT_EQ(response.status, kStatusNotFound);
  EXPECT_FALSE(response.ok());
}

TEST(Router, SegmentCountMustMatch) {
  Router router;
  fill_echo_router(router);
  HttpRequest request{Method::Get, "/users/7/places", {}, {}, {}};
  EXPECT_EQ(router.handle(request).status, kStatusNotFound);
  HttpRequest longer{Method::Get, "/users/7/places/1/extra", {}, {}, {}};
  EXPECT_EQ(router.handle(longer).status, kStatusNotFound);
}

TEST(Router, TrailingSlashIsTolerated) {
  Router router;
  fill_echo_router(router);
  HttpRequest request{Method::Get, "/ping/", {}, {}, {}};
  EXPECT_TRUE(router.handle(request).ok());
}

TEST(Router, OnlyOneTrailingSlashIsTolerated) {
  Router router;
  fill_echo_router(router);
  // "/ping//" has an interior empty segment after the first slash is
  // trimmed; it must not collapse into "/ping".
  HttpRequest request{Method::Get, "/ping//", {}, {}, {}};
  EXPECT_EQ(router.handle(request).status, kStatusNotFound);
}

TEST(Router, EmptySegmentNeverBindsParam) {
  Router router;
  fill_echo_router(router);
  // Historically split() dropped empty segments, so "/users//places/9"
  // collapsed to three segments and could never hit the 4-segment route —
  // but "/users/7/places/" bound uid="" via the trailing-slash trim. Both
  // must 404: a ":param" capture is never empty.
  HttpRequest interior{Method::Get, "/users//places/9", {}, {}, {}};
  EXPECT_EQ(router.handle(interior).status, kStatusNotFound);
  HttpRequest double_interior{Method::Get, "/users///9", {}, {}, {}};
  EXPECT_EQ(router.handle(double_interior).status, kStatusNotFound);
  // With the trailing slash trimmed this is 3 segments, not a 4-segment
  // path with uid="".
  HttpRequest trailing{Method::Get, "/users/7/places/", {}, {}, {}};
  EXPECT_EQ(router.handle(trailing).status, kStatusNotFound);
}

TEST(Router, OverlappingPatternsPreferLiteral) {
  Router router;
  int id_hits = 0, literal_hits = 0;
  // Param route registered FIRST: specificity, not registration order,
  // must pick the literal route for "/api/users/all".
  router.add_route(Method::Get, "/api/users/:id",
                   [&id_hits](const HttpRequest&, const PathParams&) {
                     ++id_hits;
                     return HttpResponse::json(Json::object());
                   });
  router.add_route(Method::Get, "/api/users/all",
                   [&literal_hits](const HttpRequest&, const PathParams&) {
                     ++literal_hits;
                     return HttpResponse::json(Json::object());
                   });
  EXPECT_TRUE(router.handle({Method::Get, "/api/users/all", {}, {}, {}}).ok());
  EXPECT_EQ(literal_hits, 1);
  EXPECT_EQ(id_hits, 0);
  EXPECT_TRUE(router.handle({Method::Get, "/api/users/7", {}, {}, {}}).ok());
  EXPECT_EQ(id_hits, 1);
}

TEST(Router, OverlappingPatternsDifferentArity) {
  Router router;
  fill_echo_router(router);
  std::string seen;
  router.add_route(Method::Get, "/users/:id",
                   [&seen](const HttpRequest&, const PathParams& params) {
                     seen = params.at("id");
                     return HttpResponse::json(Json::object());
                   });
  // "/users/:id" and "/users/:id/places/:uid" overlap by prefix only;
  // segment count keeps them apart.
  EXPECT_TRUE(router.handle({Method::Get, "/users/42", {}, {}, {}}).ok());
  EXPECT_EQ(seen, "42");
  const auto deep = router.handle({Method::Get, "/users/42/places/7", {}, {}, {}});
  EXPECT_TRUE(deep.ok());
  EXPECT_EQ(deep.body.at("uid").as_string(), "7");
}

TEST(Router, TieBreaksByRegistrationOrder) {
  Router router;
  std::string winner;
  router.add_route(Method::Get, "/a/:x/b",
                   [&winner](const HttpRequest&, const PathParams&) {
                     winner = "first";
                     return HttpResponse::json(Json::object());
                   });
  router.add_route(Method::Get, "/a/:y/b",
                   [&winner](const HttpRequest&, const PathParams&) {
                     winner = "second";
                     return HttpResponse::json(Json::object());
                   });
  EXPECT_TRUE(router.handle({Method::Get, "/a/1/b", {}, {}, {}}).ok());
  EXPECT_EQ(winner, "first");  // equal specificity: first registered wins
}

TEST(Router, PostBodyRoundTrips) {
  Router router;
  fill_echo_router(router);
  HttpRequest request{Method::Post, "/echo", {}, {}, {}};
  request.body = Json::parse(R"({"x": 5, "y": [1,2]})");
  const HttpResponse response = router.handle(request);
  EXPECT_EQ(response.body, request.body);
}

TEST(Client, DeliversAndCountsRequests) {
  Router router;
  fill_echo_router(router);
  RestClient client(&router, NetworkConditions{0.0, 2}, Rng(1));
  HttpRequest request{Method::Get, "/ping", {}, {}, {}};
  const HttpResponse response = client.send(request);
  EXPECT_TRUE(response.ok());
  EXPECT_EQ(client.stats().requests, 1u);
  EXPECT_EQ(client.stats().failures, 0u);
  EXPECT_EQ(client.stats().total_latency, 2);
}

TEST(Client, AttachesAuthToken) {
  Router router;
  router.add_route(Method::Get, "/whoami",
                   [](const HttpRequest& req, const PathParams&) {
                     Json body = Json::object();
                     const auto it = req.headers.find("Authorization");
                     body.set("auth", it == req.headers.end() ? "" : it->second);
                     return HttpResponse::json(std::move(body));
                   });
  RestClient client(&router, NetworkConditions{}, Rng(1));
  client.set_auth_token("tok-123");
  HttpRequest request{Method::Get, "/whoami", {}, {}, {}};
  const HttpResponse response = client.send(request);
  EXPECT_EQ(response.body.at("auth").as_string(), "Bearer tok-123");
}

TEST(Client, ExplicitAuthHeaderWins) {
  Router router;
  router.add_route(Method::Get, "/whoami",
                   [](const HttpRequest& req, const PathParams&) {
                     Json body = Json::object();
                     body.set("auth", req.headers.at("Authorization"));
                     return HttpResponse::json(std::move(body));
                   });
  RestClient client(&router, NetworkConditions{}, Rng(1));
  client.set_auth_token("tok-default");
  HttpRequest request{Method::Get, "/whoami", {}, {}, {}};
  request.with_header("Authorization", "Bearer tok-explicit");
  EXPECT_EQ(client.send(request).body.at("auth").as_string(),
            "Bearer tok-explicit");
}

TEST(Client, RetriesTransientFailures) {
  Router router;
  fill_echo_router(router);
  // 50% loss: with 2 retries most requests eventually succeed.
  RestClient client(&router, NetworkConditions{0.5, 0}, Rng(3));
  int ok = 0;
  for (int i = 0; i < 200; ++i) {
    HttpRequest request{Method::Get, "/ping", {}, {}, {}};
    if (client.send(request, 2).ok()) ++ok;
  }
  EXPECT_GT(ok, 160);  // 1 - 0.5^3 = 87.5% expected
  EXPECT_GT(client.stats().retries, 50u);
  EXPECT_GT(client.stats().failures, 50u);
}

TEST(Client, TotalLossReturns503) {
  Router router;
  fill_echo_router(router);
  RestClient client(&router, NetworkConditions{1.0, 0}, Rng(3));
  HttpRequest request{Method::Get, "/ping", {}, {}, {}};
  const HttpResponse response = client.send(request, 2);
  EXPECT_EQ(response.status, kStatusServiceUnavailable);
  EXPECT_EQ(client.stats().requests, 3u);  // initial + 2 retries
}

TEST(Client, CountsBytesSent) {
  Router router;
  fill_echo_router(router);
  RestClient client(&router, NetworkConditions{}, Rng(1));
  HttpRequest request{Method::Post, "/echo", {}, {}, {}};
  request.body = Json::parse(R"({"payload": "0123456789"})");
  client.send(request);
  EXPECT_GE(client.stats().bytes_sent, 10u);
}

TEST(Http, StatusHelpers) {
  EXPECT_TRUE(HttpResponse::json(Json::object()).ok());
  EXPECT_TRUE(HttpResponse::json(Json::object(), kStatusCreated).ok());
  const HttpResponse err = HttpResponse::error(kStatusBadRequest, "nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.body.at("error").as_string(), "nope");
}

TEST(Http, MethodNames) {
  EXPECT_STREQ(to_string(Method::Get), "GET");
  EXPECT_STREQ(to_string(Method::Post), "POST");
  EXPECT_STREQ(to_string(Method::Put), "PUT");
  EXPECT_STREQ(to_string(Method::Delete), "DELETE");
}

}  // namespace
}  // namespace pmware::net
