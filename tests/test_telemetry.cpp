#include "telemetry/export.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cloud/cloud_instance.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/router.hpp"
#include "util/json.hpp"

namespace pmware::telemetry {
namespace {

// ---------------------------------------------------------------- counters

TEST(MetricsRegistry, CounterStartsAtZeroAndAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("requests_total");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(4);
  EXPECT_EQ(reg.counter("requests_total").value(), 5u);
}

TEST(MetricsRegistry, SameNameAndLabelsIsTheSameSeries) {
  MetricsRegistry reg;
  reg.counter("hits_total", {{"route", "/a"}}).inc();
  reg.counter("hits_total", {{"route", "/a"}}).inc();
  EXPECT_EQ(reg.counter_value("hits_total", {{"route", "/a"}}), 2u);
}

TEST(MetricsRegistry, DifferentLabelsAreDistinctSeries) {
  MetricsRegistry reg;
  reg.counter("hits_total", {{"route", "/a"}}).inc(1);
  reg.counter("hits_total", {{"route", "/b"}}).inc(10);
  reg.counter("hits_total").inc(100);
  EXPECT_EQ(reg.counter_value("hits_total", {{"route", "/a"}}), 1u);
  EXPECT_EQ(reg.counter_value("hits_total", {{"route", "/b"}}), 10u);
  EXPECT_EQ(reg.counter_value("hits_total"), 100u);
  EXPECT_EQ(reg.family_total("hits_total"), 111u);
}

TEST(MetricsRegistry, LabelOrderDoesNotMatter) {
  // LabelSet is a sorted map, so insertion order cannot create duplicates.
  MetricsRegistry reg;
  reg.counter("x_total", {{"a", "1"}, {"b", "2"}}).inc();
  reg.counter("x_total", {{"b", "2"}, {"a", "1"}}).inc();
  EXPECT_EQ(reg.counter_value("x_total", {{"b", "2"}, {"a", "1"}}), 2u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("thing");
  EXPECT_THROW(reg.gauge("thing"), TelemetryError);
  EXPECT_THROW(reg.histogram("thing", {}, 0, 1, 4), TelemetryError);
  reg.gauge("level");
  EXPECT_THROW(reg.counter("level"), TelemetryError);
}

TEST(MetricsRegistry, FindersReturnNullForMissingSeries) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("nope", {}), nullptr);
  EXPECT_EQ(reg.counter_value("nope"), 0u);
  reg.counter("present", {{"k", "v"}});
  EXPECT_EQ(reg.find_counter("present", {}), nullptr);
  EXPECT_NE(reg.find_counter("present", {{"k", "v"}}), nullptr);
}

// ------------------------------------------------------------------ gauges

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("battery_pct", {{"device", "d0"}});
  g.set(80);
  g.add(-12.5);
  EXPECT_DOUBLE_EQ(reg.gauge("battery_pct", {{"device", "d0"}}).value(), 67.5);
}

// -------------------------------------------------------------- histograms

TEST(MetricsRegistry, HistogramObservationsLandInBuckets) {
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("latency_s", {}, 0, 10, 5);
  h.observe(1);    // bucket 0 ([0,2))
  h.observe(3);    // bucket 1
  h.observe(9.5);  // bucket 4
  h.observe(42);   // clamped into bucket 4
  EXPECT_EQ(h.buckets().total(), 4u);
  EXPECT_EQ(h.buckets().count(0), 1u);
  EXPECT_EQ(h.buckets().count(1), 1u);
  EXPECT_EQ(h.buckets().count(4), 2u);
  EXPECT_DOUBLE_EQ(h.stats().sum(), 55.5);
  EXPECT_DOUBLE_EQ(h.stats().max(), 42.0);
}

TEST(MetricsRegistry, HistogramRedeclarationWithNewBoundsThrows) {
  MetricsRegistry reg;
  reg.histogram("h", {{"i", "a"}}, 0, 10, 5);
  // Same bounds, new labels: fine.
  reg.histogram("h", {{"i", "b"}}, 0, 10, 5);
  EXPECT_THROW(reg.histogram("h", {{"i", "c"}}, 0, 20, 5), TelemetryError);
  EXPECT_THROW(reg.histogram("h", {{"i", "d"}}, 0, 10, 8), TelemetryError);
}

// ------------------------------------------------------------------- reset

TEST(MetricsRegistry, ResetClearsFamiliesAndKeepsInstanceLabelsFresh) {
  MetricsRegistry reg;
  reg.counter("a_total").inc(3);
  const std::string first = reg.next_instance_label("c");
  reg.reset();
  EXPECT_EQ(reg.family_count(), 0u);
  EXPECT_EQ(reg.counter_value("a_total"), 0u);
  // Instance ids survive reset, so pre-reset instances never collide with
  // post-reset ones.
  EXPECT_NE(reg.next_instance_label("c"), first);
}

TEST(MetricsRegistry, GlobalRegistryResetIsolatesTests) {
  registry().reset();
  registry().counter("isolation_probe_total").inc();
  EXPECT_EQ(registry().counter_value("isolation_probe_total"), 1u);
  registry().reset();
  EXPECT_EQ(registry().counter_value("isolation_probe_total"), 0u);
}

// ------------------------------------------------------------------- spans

TEST(Tracer, SpansNestParentChild) {
  Tracer tracer;
  {
    Span outer(tracer, "housekeeping", 100);
    {
      Span inner(tracer, "gca_offload", 100);
      inner.finish(100);
    }
    outer.finish(100);
  }
  ASSERT_EQ(tracer.records().size(), 2u);
  const SpanRecord& outer = tracer.records()[0];
  const SpanRecord& inner = tracer.records()[1];
  EXPECT_EQ(outer.name, "housekeeping");
  EXPECT_EQ(outer.parent, SpanRecord::kNoParent);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.name, "gca_offload");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_TRUE(outer.finished);
  EXPECT_TRUE(inner.finished);
  // The parent's wall clock ran strictly longer than (or as long as) the
  // child's: it opened earlier and closed later.
  EXPECT_GE(outer.wall_ns, inner.wall_ns);
}

TEST(Tracer, SimAndWallClocksAreAccountedSeparately) {
  Tracer tracer;
  {
    Span span(tracer, "pms.run", hours(9));
    span.finish(hours(18));
  }
  const SpanRecord& record = tracer.records()[0];
  EXPECT_EQ(record.sim_begin, hours(9));
  EXPECT_EQ(record.sim_end, hours(18));
  EXPECT_EQ(record.sim_duration(), hours(9));
  // Wall time is real elapsed time — nanoseconds, not nine hours.
  EXPECT_GE(record.wall_ns, 0);
  EXPECT_LT(record.wall_ns, 1'000'000'000);
}

TEST(Tracer, UnfinishedSpanClosesAtItsOwnSimBegin) {
  Tracer tracer;
  { Span span(tracer, "zero_sim_work", 500); }
  const SpanRecord& record = tracer.records()[0];
  EXPECT_TRUE(record.finished);
  EXPECT_EQ(record.sim_begin, 500);
  EXPECT_EQ(record.sim_end, 500);
}

TEST(Tracer, ScopedTimerReadsTheSimClockAtBothEnds) {
  Tracer tracer;
  SimTime now = minutes(5);
  {
    ScopedTimer timer(tracer, "scheduler.run", [&now] { return now; });
    now = minutes(30);  // sim time advances while the scope runs
  }
  const SpanRecord& record = tracer.records()[0];
  EXPECT_EQ(record.sim_begin, minutes(5));
  EXPECT_EQ(record.sim_end, minutes(30));
  EXPECT_EQ(record.sim_duration(), minutes(25));
}

TEST(Tracer, CapDropsSpansInsteadOfGrowing) {
  Tracer tracer(/*max_records=*/2);
  { Span a(tracer, "a", 0); }
  { Span b(tracer, "b", 0); }
  { Span c(tracer, "c", 0); }
  EXPECT_EQ(tracer.records().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
  EXPECT_EQ(tracer.open_depth(), 0u);
}

// --------------------------------------------------------------- exporters

void fill_exporter_fixture(MetricsRegistry& reg) {
  reg.counter("net_requests_total", {{"instance", "c0"}},
              "requests attempted")
      .inc(7);
  reg.gauge("sensing_duty_cycle", {{"interface", "gsm"}}).set(1.0 / 60.0);
  reg.histogram("cloud_handler_wall_us", {{"route", "/metrics"}}, 0, 100, 4)
      .observe(25);
}

TEST(Exporters, PrometheusTextShape) {
  MetricsRegistry reg;
  fill_exporter_fixture(reg);
  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE net_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP net_requests_total requests attempted"),
            std::string::npos);
  EXPECT_NE(text.find("net_requests_total{instance=\"c0\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sensing_duty_cycle gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cloud_handler_wall_us histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("cloud_handler_wall_us_bucket{route=\"/metrics\",le=\"50\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("cloud_handler_wall_us_bucket{route=\"/metrics\",le=\"+Inf\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("cloud_handler_wall_us_count{route=\"/metrics\"} 1"),
            std::string::npos);
}

TEST(Exporters, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("odd_total", {{"k", "a\"b\\c\nd"}}).inc();
  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("odd_total{k=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
}

TEST(Exporters, JsonRoundTripsThroughTheParser) {
  MetricsRegistry reg;
  fill_exporter_fixture(reg);
  const Json exported = to_json(reg);
  const Json reparsed = Json::parse(exported.dump());
  EXPECT_EQ(reparsed, exported);

  const Json& metrics = reparsed.at("metrics");
  EXPECT_EQ(metrics.at("net_requests_total").at("kind").as_string(),
            "counter");
  const Json& series =
      metrics.at("net_requests_total").at("series")[0];
  EXPECT_EQ(series.at("labels").at("instance").as_string(), "c0");
  EXPECT_EQ(series.at("value").as_int(), 7);

  const Json& hist = metrics.at("cloud_handler_wall_us").at("series")[0];
  EXPECT_EQ(hist.at("count").as_int(), 1);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_double(), 25.0);
  // Buckets are sparse: only the [25, 50) bucket saw the observation.
  ASSERT_EQ(hist.at("buckets").size(), 1u);
  EXPECT_DOUBLE_EQ(hist.at("buckets")[0].at("lo").as_double(), 25.0);
  EXPECT_DOUBLE_EQ(hist.at("buckets")[0].at("hi").as_double(), 50.0);
  EXPECT_EQ(hist.at("buckets")[0].at("count").as_int(), 1);
}

TEST(Exporters, ZeroCountHistogramEmitsNoBucketSeries) {
  MetricsRegistry reg;
  reg.histogram("cloud_handler_wall_us", {{"route", "/cold"}}, 0, 5000, 20);
  const std::string text = to_prometheus(reg);
  // Lazily materialized: no per-bucket lines for an untouched series, just
  // the mandatory +Inf / _sum / _count.
  EXPECT_EQ(text.find("route=\"/cold\",le=\"250\""), std::string::npos);
  EXPECT_NE(
      text.find("cloud_handler_wall_us_bucket{route=\"/cold\",le=\"+Inf\"} 0"),
      std::string::npos);
  EXPECT_NE(text.find("cloud_handler_wall_us_count{route=\"/cold\"} 0"),
            std::string::npos);

  const Json exported = to_json(reg);
  const Json& hist =
      exported.at("metrics").at("cloud_handler_wall_us").at("series")[0];
  EXPECT_EQ(hist.at("buckets").size(), 0u);
}

TEST(Exporters, SpansExportParentLinks) {
  Tracer tracer;
  {
    Span outer(tracer, "outer", 10);
    Span inner(tracer, "inner", 20);
    inner.finish(30);
    outer.finish(40);
  }
  const Json spans = Json::parse(spans_to_json(tracer).dump());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].at("name").as_string(), "outer");
  EXPECT_FALSE(spans[0].contains("parent"));
  EXPECT_EQ(spans[1].at("name").as_string(), "inner");
  EXPECT_EQ(spans[1].at("parent").as_int(), spans[0].at("id").as_int());
  EXPECT_EQ(spans[1].at("sim_begin").as_int(), 20);
  EXPECT_EQ(spans[1].at("sim_end").as_int(), 30);
}

// ------------------------------------------------- middleware-facing views

TEST(TelemetryViews, ClientStatsIsAViewOverTheRegistry) {
  registry().reset();
  net::Router router;
  router.add_route(net::Method::Get, "/ping",
                   [](const net::HttpRequest&, const net::PathParams&) {
                     return net::HttpResponse::json(Json::object());
                   });
  net::RestClient client(&router, net::NetworkConditions{0.0, 3}, Rng(1));
  net::HttpRequest request;
  request.path = "/ping";
  client.send(request);
  client.send(request);

  EXPECT_EQ(client.stats().requests, 2u);
  EXPECT_EQ(client.stats().total_latency, 6);
  EXPECT_EQ(registry().counter_value(
                "net_requests_total", {{"instance", client.instance_label()}}),
            2u);
  // Reset wipes the series; the view reads zeros rather than dangling.
  registry().reset();
  EXPECT_EQ(client.stats().requests, 0u);
}

TEST(TelemetryViews, TwoClientsKeepSeparateSeries) {
  registry().reset();
  net::Router router;
  router.add_route(net::Method::Get, "/ping",
                   [](const net::HttpRequest&, const net::PathParams&) {
                     return net::HttpResponse::json(Json::object());
                   });
  net::RestClient a(&router, net::NetworkConditions{}, Rng(1));
  net::RestClient b(&router, net::NetworkConditions{}, Rng(2));
  net::HttpRequest request;
  request.path = "/ping";
  a.send(request);
  a.send(request);
  b.send(request);
  EXPECT_EQ(a.stats().requests, 2u);
  EXPECT_EQ(b.stats().requests, 1u);
  EXPECT_EQ(registry().family_total("net_requests_total"), 3u);
}

TEST(TelemetryViews, RouterObserverSeesPatternsNotConcretePaths) {
  registry().reset();
  net::Router router;
  router.add_route(net::Method::Get, "/users/:id/places",
                   [](const net::HttpRequest&, const net::PathParams&) {
                     return net::HttpResponse::json(Json::object());
                   });
  std::vector<std::string> seen;
  router.set_observer([&seen](net::Method, const std::string& pattern,
                              int status, double wall_us) {
    seen.push_back(pattern);
    EXPECT_EQ(status, 200);
    EXPECT_GE(wall_us, 0.0);
  });
  net::HttpRequest request;
  request.path = "/users/7/places";
  router.handle(request);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "/users/:id/places");
}


// ------------------------------------------------------------ trace context

TEST(TraceContext, RootsAllocateFreshIdsAndChildrenInherit) {
  Tracer tracer;
  {
    Span a(tracer, "a", 0);
    {
      Span child(tracer, "a.child", 0);
      child.finish(0);
    }
    a.finish(0);
  }
  {
    Span b(tracer, "b", 0);
    b.finish(0);
  }
  ASSERT_EQ(tracer.records().size(), 3u);
  const SpanRecord& a = tracer.records()[0];
  const SpanRecord& child = tracer.records()[1];
  const SpanRecord& b = tracer.records()[2];
  EXPECT_NE(a.trace_id, 0u);
  EXPECT_EQ(child.trace_id, a.trace_id);
  EXPECT_NE(b.trace_id, 0u);
  EXPECT_NE(b.trace_id, a.trace_id);
}

TEST(TraceContext, CurrentContextTracksTheInnermostOpenSpan) {
  Tracer tracer;
  EXPECT_FALSE(tracer.current_context().valid());
  Span a(tracer, "a", 0);
  const TraceContext outer = tracer.current_context();
  ASSERT_TRUE(outer.valid());
  EXPECT_EQ(outer.span_id, tracer.records()[0].id);
  {
    Span b(tracer, "b", 0);
    const TraceContext inner = tracer.current_context();
    EXPECT_EQ(inner.span_id, tracer.records()[1].id);
    EXPECT_EQ(inner.trace_id, outer.trace_id);
    b.finish(0);
  }
  EXPECT_EQ(tracer.current_context().span_id, outer.span_id);
  a.finish(0);
  EXPECT_FALSE(tracer.current_context().valid());
}

TEST(TraceContext, RemoteParentJoinsTheCarriedTrace) {
  // The simulated request boundary: the "client" span closes before the
  // "handler" span opens (no shared stack), yet the carried context parents
  // the handler under the client.
  Tracer tracer;
  TraceContext carried;
  {
    Span client(tracer, "net.send", 0);
    carried = tracer.current_context();
    client.finish(5);
  }
  {
    Span handler(tracer, "cloud.handler", 5, carried);
    handler.finish(5);
  }
  ASSERT_EQ(tracer.records().size(), 2u);
  const SpanRecord& client = tracer.records()[0];
  const SpanRecord& handler = tracer.records()[1];
  EXPECT_EQ(handler.parent, client.id);
  EXPECT_EQ(handler.trace_id, client.trace_id);
  EXPECT_EQ(handler.depth, client.depth + 1);
}

TEST(TraceContext, InvalidRemoteParentFallsBackToTheLocalStack) {
  Tracer tracer;
  {
    Span handler(tracer, "cloud.handler", 0, TraceContext{});
    handler.finish(0);
  }
  EXPECT_EQ(tracer.records()[0].parent, SpanRecord::kNoParent);
  EXPECT_EQ(tracer.records()[0].depth, 0u);
  EXPECT_NE(tracer.records()[0].trace_id, 0u);
}

TEST(Tracer, TraceIdsStayMonotonicAcrossReset) {
  Tracer tracer;
  {
    Span a(tracer, "a", 0);
    a.finish(0);
  }
  const std::uint64_t first = tracer.records()[0].trace_id;
  tracer.reset();
  {
    Span b(tracer, "b", 0);
    b.finish(0);
  }
  EXPECT_GT(tracer.records()[0].trace_id, first);
}

TEST(Tracer, OverflowDropsSpansButKeepsNestingConsistent) {
  Tracer tracer(/*max_records=*/2);
  Span outer(tracer, "outer", 0);  // record 0
  const TraceContext outer_ctx = tracer.current_context();
  {
    Span a(tracer, "a", 0);  // record 1
    a.finish(0);
  }
  {
    Span b(tracer, "b", 0);  // dropped: never recorded, never on the stack
    // current_context degrades to the enclosing recorded span, so anything
    // propagated from inside a dropped span still joins the right trace.
    EXPECT_EQ(tracer.current_context().span_id, outer_ctx.span_id);
    b.finish(0);  // harmless no-op: there is no record to close
  }
  {
    Span c(tracer, "c", 0);  // also dropped
    c.finish(0);
  }
  outer.finish(10);
  EXPECT_EQ(tracer.records().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 2u);
  EXPECT_TRUE(tracer.records()[0].finished);
  EXPECT_EQ(tracer.records()[0].sim_end, 10);
  EXPECT_EQ(tracer.open_depth(), 0u);
}

// -------------------------------------------------- cross-boundary tracing

TEST(TracePropagation, ClientAndHandlerSpansFormOneTrace) {
  tracer().reset();
  registry().reset();
  net::Router router;
  router.add_route(net::Method::Get, "/api/users/:id/places",
                   [](const net::HttpRequest&, const net::PathParams&) {
                     return net::HttpResponse::json(Json::object());
                   });
  net::RestClient client(&router, net::NetworkConditions{0.0, 2}, Rng(1));
  net::HttpRequest request;
  request.path = "/api/users/7/places";
  request.headers[net::kSimTimeHeader] = "100";
  ASSERT_TRUE(client.send(request).ok());

  ASSERT_EQ(tracer().records().size(), 2u);
  const SpanRecord& send = tracer().records()[0];
  const SpanRecord& handler = tracer().records()[1];
  // Numeric path segments generalize so span names aggregate per endpoint.
  EXPECT_EQ(send.name, "net.send GET /api/users/:n/places");
  EXPECT_EQ(send.parent, SpanRecord::kNoParent);
  EXPECT_EQ(handler.name, "cloud./api/users/:id/places");
  EXPECT_EQ(handler.parent, send.id);
  EXPECT_EQ(handler.trace_id, send.trace_id);
  EXPECT_EQ(handler.depth, 1u);
  // Client span covers the simulated round-trip; handler runs at arrival.
  EXPECT_EQ(send.sim_begin, 100);
  EXPECT_EQ(send.sim_end, 102);
  EXPECT_EQ(handler.sim_begin, 100);
  EXPECT_TRUE(send.finished);
  EXPECT_TRUE(handler.finished);
}

TEST(TracePropagation, UntracedDirectRouterCallRecordsNoSpan) {
  tracer().reset();
  net::Router router;
  router.add_route(net::Method::Get, "/ping",
                   [](const net::HttpRequest&, const net::PathParams&) {
                     return net::HttpResponse::json(Json::object());
                   });
  net::HttpRequest request;
  request.path = "/ping";  // no trace-context headers
  ASSERT_TRUE(router.handle(request).ok());
  EXPECT_TRUE(tracer().records().empty());
}

TEST(TracePropagation, RegistrationAgainstTheCloudYieldsOneTwoSpanTrace) {
  // The deterministic end-to-end tree: one PMS-style request through the
  // real cloud instance produces exactly one trace whose handler span is a
  // child of the client span.
  tracer().reset();
  registry().reset();
  cloud::CloudInstance cloud(cloud::CloudConfig{},
                             cloud::GeoLocationService({}), Rng(1));
  net::RestClient client(&cloud.router(), net::NetworkConditions{0.0, 1},
                         Rng(2));
  net::HttpRequest request;
  request.method = net::Method::Post;
  request.path = "/api/register";
  request.headers[net::kSimTimeHeader] = "0";
  request.body = Json::object();
  request.body.set("imei", "111");
  request.body.set("email", "a@b.c");
  ASSERT_EQ(client.send(request).status, net::kStatusCreated);

  ASSERT_EQ(tracer().records().size(), 2u);
  const SpanRecord& send = tracer().records()[0];
  const SpanRecord& handler = tracer().records()[1];
  EXPECT_EQ(send.name, "net.send POST /api/register");
  EXPECT_EQ(handler.name, "cloud./api/register");
  EXPECT_EQ(handler.parent, send.id);
  EXPECT_EQ(handler.trace_id, send.trace_id);
  EXPECT_NE(send.trace_id, 0u);
  EXPECT_GE(send.wall_ns, handler.wall_ns);
}

// ----------------------------------------------------------- flame folding

std::vector<SpanRecord> flame_fixture() {
  // Handcrafted records (parents before children, as the tracer guarantees):
  //   day 0: a (3 us wall) > a;b (1 us)
  //   day 1: a (0.5 us)
  std::vector<SpanRecord> spans(3);
  spans[0] = {"a", 0, SpanRecord::kNoParent, 0, 1, start_of_day(0),
              start_of_day(0), 3000, true};
  spans[1] = {"b", 1, 0, 1, 1, start_of_day(0), start_of_day(0), 1000, true};
  spans[2] = {"a", 2, SpanRecord::kNoParent, 0, 2, start_of_day(1),
              start_of_day(1), 500, true};
  return spans;
}

TEST(Exporters, FlameByDayFoldsSelfTimePerDay) {
  const Json flame = flame_by_day(flame_fixture());
  ASSERT_EQ(flame.size(), 2u);
  EXPECT_EQ(flame[0].at("day").as_int(), 0);
  // Parent self time = 3 us - 1 us child = 2 us.
  EXPECT_DOUBLE_EQ(flame[0].at("stacks").at("a").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(flame[0].at("stacks").at("a;b").as_double(), 1.0);
  EXPECT_EQ(flame[1].at("day").as_int(), 1);
  EXPECT_DOUBLE_EQ(flame[1].at("stacks").at("a").as_double(), 0.5);
}

TEST(Exporters, FlameClampsNegativeSelfTimeToZero) {
  // A child whose wall cost exceeds its parent's (clock jitter between the
  // two steady_clock reads) must not produce a negative stack value.
  std::vector<SpanRecord> spans(2);
  spans[0] = {"p", 0, SpanRecord::kNoParent, 0, 1, 0, 0, 100, true};
  spans[1] = {"c", 1, 0, 1, 1, 0, 0, 250, true};
  const Json flame = flame_by_day(spans);
  EXPECT_DOUBLE_EQ(flame[0].at("stacks").at("p").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(flame[0].at("stacks").at("p;c").as_double(), 0.25);
}

TEST(Exporters, SlowestTracesRankByRootWallTime) {
  std::vector<SpanRecord> spans(3);
  spans[0] = {"fast", 0, SpanRecord::kNoParent, 0, 1, 0, 0, 1000, true};
  spans[1] = {"slow", 1, SpanRecord::kNoParent, 0, 2, 0, 10, 5000, true};
  spans[2] = {"slow.child", 2, 1, 1, 2, 0, 10, 2000, true};
  const Json top = slowest_traces_json(spans, 5);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].at("root").as_string(), "slow");
  EXPECT_DOUBLE_EQ(top[0].at("wall_us").as_double(), 5.0);
  EXPECT_EQ(top[0].at("span_count").as_int(), 2);
  EXPECT_EQ(top[0].at("spans").size(), 2u);
  EXPECT_EQ(top[0].at("sim_duration_s").as_int(), 10);
  EXPECT_EQ(top[1].at("root").as_string(), "fast");

  const Json only_one = slowest_traces_json(spans, 1);
  ASSERT_EQ(only_one.size(), 1u);
  EXPECT_EQ(only_one[0].at("root").as_string(), "slow");

  const Json truncated = slowest_traces_json(spans, 5, /*max_spans_per_trace=*/1);
  EXPECT_EQ(truncated[0].at("spans").size(), 1u);
  EXPECT_TRUE(truncated[0].at("spans_truncated").as_bool());
}

TEST(Exporters, DiagnosticsSummaryNamesTheSlowestTrace) {
  Tracer tracer;
  {
    Span slow(tracer, "study.participant.p00", 0);
    slow.finish(hours(1));
  }
  const std::string digest = diagnostics_summary(tracer, registry());
  EXPECT_NE(digest.find("slowest trace: study.participant.p00"),
            std::string::npos);
  EXPECT_NE(digest.find("cloud SLO violations:"), std::string::npos);
  EXPECT_NE(digest.find("log ring:"), std::string::npos);
}

// -------------------------------------------------------- exporter escaping

TEST(Exporters, PrometheusEscapesHelpText) {
  MetricsRegistry reg;
  reg.counter("esc_total", {}, "first line\nback\\slash").inc();
  const std::string text = to_prometheus(reg);
  // Exposition format: HELP escapes newline and backslash (quotes stay).
  EXPECT_NE(text.find("# HELP esc_total first line\\nback\\\\slash\n"),
            std::string::npos);
  EXPECT_EQ(text.find("# HELP esc_total first line\nback"), std::string::npos);
}

// ----------------------------------------------------------- bench writing

TEST(Exporters, BenchJsonCarriesSchemaVersionRunMetaAndFlame) {
  registry().reset();
  tracer().reset();
  registry().counter("bench_probe_total").inc();
  {
    Span span(tracer(), "bench.op", start_of_day(3));
    span.finish(start_of_day(3));
  }
  const std::string path = ::testing::TempDir() + "pmware_bench_unit.json";
  Json extra = Json::object();
  extra.set("answer", 42);
  ASSERT_TRUE(write_bench_json(path, "unit", std::move(extra),
                               RunMeta{20141208, 8, 14}));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Json doc = Json::parse(buffer.str());
  EXPECT_EQ(doc.at("schema_version").as_int(), kBenchSchemaVersion);
  // Pin the current version: 10 dropped the deployment-study sweep blocks
  // that only restated ctest assertions. Bumping kBenchSchemaVersion means
  // updating this test and the history comment in export.hpp together.
  EXPECT_EQ(kBenchSchemaVersion, 10);
  EXPECT_TRUE(doc.contains("timeseries"));
  EXPECT_TRUE(doc.at("timeseries").contains("points"));
  EXPECT_GT(doc.at("process").at("peak_rss_bytes").as_int(), 0);
  EXPECT_TRUE(doc.at("metrics").contains("pmware_build_info"));
  EXPECT_EQ(doc.at("bench").as_string(), "unit");
  EXPECT_EQ(doc.at("run").at("seed").as_int(), 20141208);
  EXPECT_EQ(doc.at("run").at("threads").as_int(), 8);
  EXPECT_EQ(doc.at("run").at("sim_days").as_int(), 14);
  EXPECT_EQ(doc.at("results").at("answer").as_int(), 42);
  EXPECT_TRUE(doc.at("metrics").contains("bench_probe_total"));
  ASSERT_EQ(doc.at("spans").size(), 1u);
  EXPECT_NE(doc.at("spans")[0].at("trace_id").as_int(), 0);
  ASSERT_EQ(doc.at("flame").size(), 1u);
  EXPECT_EQ(doc.at("flame")[0].at("day").as_int(), 3);
  EXPECT_TRUE(doc.at("flame")[0].at("stacks").contains("bench.op"));
}

// -------------------------------------------------------- structured logging

/// Restores the global log threshold on scope exit; tests below lower it.
struct LogLevelGuard {
  LogLevel prev = log_level();
  ~LogLevelGuard() { set_log_level(prev); }
};

TEST(Logger, RingWrapsKeepingTheNewestRecords) {
  LogLevelGuard guard;
  set_log_level(LogLevel::Debug);
  Logger log(/*capacity=*/3);
  log.set_echo(false);
  for (int i = 0; i < 5; ++i)
    log.write(LogLevel::Info, "t", i, "m" + std::to_string(i));
  EXPECT_EQ(log.total(), 5u);
  EXPECT_EQ(log.capacity(), 3u);
  const std::vector<LogRecord> recent = log.recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].message, "m2");  // oldest retained first
  EXPECT_EQ(recent[1].message, "m3");
  EXPECT_EQ(recent[2].message, "m4");
  EXPECT_EQ(recent[2].sim_time, 4);
}

TEST(Logger, ThresholdDropsRecordsBelowLevel) {
  LogLevelGuard guard;
  set_log_level(LogLevel::Warn);
  Logger log(8);
  log.set_echo(false);
  log.write(LogLevel::Debug, "t", 0, "dropped");
  log.write(LogLevel::Info, "t", 0, "dropped");
  log.write(LogLevel::Warn, "t", 0, "kept");
  log.write(LogLevel::Error, "t", 0, "kept");
  EXPECT_EQ(log.total(), 2u);
  EXPECT_EQ(log.recent().front().level, LogLevel::Warn);
}

TEST(Logger, RecordsCorrelateWithTheOpenSpan) {
  LogLevelGuard guard;
  set_log_level(LogLevel::Info);
  tracer().reset();
  Logger log(8);
  log.set_echo(false);
  log.write(LogLevel::Info, "t", 1, "outside any span");
  {
    Span span(tracer(), "op", 42);
    log.write(LogLevel::Info, "t", 42, "inside the span");
    span.finish(42);
  }
  const std::vector<LogRecord> recent = log.recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].trace_id, 0u);
  EXPECT_EQ(recent[1].trace_id, tracer().records()[0].trace_id);
  EXPECT_EQ(recent[1].span_id, tracer().records()[0].id);
  EXPECT_EQ(recent[1].sim_time, 42);
  EXPECT_GT(recent[1].wall_us, 0);
}

TEST(Logger, ParseLogLevelAcceptsNamesCaseInsensitively) {
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("Error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("loud"), std::nullopt);
}

TEST(Logger, ApplyLogLevelFlagSetsTheGlobalThreshold) {
  LogLevelGuard guard;
  const char* argv_ok[] = {"bench", "--log-level", "error"};
  EXPECT_TRUE(apply_log_level_flag(3, const_cast<char**>(argv_ok)));
  EXPECT_EQ(log_level(), LogLevel::Error);
  const char* argv_bad[] = {"bench", "--log-level", "shout"};
  EXPECT_FALSE(apply_log_level_flag(3, const_cast<char**>(argv_bad)));
  EXPECT_EQ(log_level(), LogLevel::Error);  // unchanged on parse failure
  const char* argv_absent[] = {"bench", "--json"};
  EXPECT_TRUE(apply_log_level_flag(2, const_cast<char**>(argv_absent)));
}

}  // namespace
}  // namespace pmware::telemetry
