// Self-test of the benchmark's own machinery:
//  * the proxy forwards every CloudInstance route with an identical status
//    and body;
//  * the study runner leaves study::DeploymentStudy's content digest, with
//    and without device churn;
//  * the sync replay is deterministic and reproduces the live pass;
//  * the estimator takes per-unit medians across passes times C_ref/C_run;
//  * a percentile is reportable only with at least 10 samples beyond it;
//  * span self time subtracts the children.
// Run with `python3 perfbench/run.py --selftest`; exits non-zero on failure.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "cloud/cloud_instance.hpp"
#include "estimator.hpp"
#include "proxy.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "study/deployment.hpp"
#include "study_runner.hpp"

namespace pb = pmware::perfbench;
using namespace pmware;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

pb::StudySpec small_spec(bool churn) {
  pb::StudySpec spec;
  spec.participants = 3;
  spec.days = churn ? 8 : 3;
  spec.seed = pb::kCitySeed;  // DeploymentStudy draws its world from it
  spec.churn = churn;
  return spec;
}

/// Status and serialized body, or the exception a handler threw.
std::string outcome(const net::Router& router, const net::HttpRequest& request,
                    bool with_body) {
  try {
    const net::HttpResponse response = router.handle(request);
    return std::to_string(response.status) +
           (with_body ? " " + response.body.dump() : std::string());
  } catch (const std::exception& e) {
    return std::string("threw ") + e.what();
  }
}

net::HttpRequest request(net::Method method, std::string path,
                         const std::string& token) {
  net::HttpRequest r;
  r.method = method;
  r.path = std::move(path);
  r.headers[net::kSimTimeHeader] = "3600";
  if (!token.empty()) r.headers["Authorization"] = "Bearer " + token;
  return r;
}

void test_proxy_forwards_every_route() {
  const pb::StudySetup setup(small_spec(false), nullptr);
  const auto direct = pb::make_cloud(setup);
  const auto proxied = pb::make_cloud(setup);
  pb::Proxy proxy;
  proxy.set_target(&proxied->router());

  net::HttpRequest reg = request(net::Method::Post, "/api/register", "");
  reg.body = Json::object();
  reg.body.set("imei", "358240050000001");
  reg.body.set("email", "selftest@pmware.org");
  const net::HttpResponse registered = direct->router().handle(reg);
  check(outcome(proxy.router(), reg, true) ==
            std::to_string(registered.status) + " " + registered.body.dump(),
        "register through the proxy");
  const std::string token = registered.body.get_string("token", "");
  const std::string user =
      std::to_string(registered.body.at("user").as_int());
  const std::string u = "/api/users/" + user;

  struct Case {
    net::Method method;
    std::string path;
    bool compare_body;  ///< telemetry routes report live process state
  };
  const std::vector<Case> cases = {
      {net::Method::Get, "/metrics", false},
      {net::Method::Get, "/timeseries", false},
      {net::Method::Get, "/alertz", false},
      {net::Method::Get, "/healthz", false},
      {net::Method::Get, "/tracez", false},
      {net::Method::Post, "/api/register", true},
      {net::Method::Post, "/api/token/refresh", true},
      {net::Method::Post, "/api/places/discover", true},
      {net::Method::Get, u + "/places", true},
      {net::Method::Put, u + "/places/1", true},
      {net::Method::Post, u + "/places/1/label", true},
      {net::Method::Put, u + "/profiles/0", true},
      {net::Method::Get, u + "/profiles/0", true},
      {net::Method::Post, u + "/routes", true},
      {net::Method::Get, u + "/routes", true},
      {net::Method::Post, u + "/contacts", true},
      {net::Method::Get, u + "/contacts", true},
      {net::Method::Get, u + "/analytics/activity/0", true},
      {net::Method::Get, "/api/geo/cell/404/10/1/1", true},
      {net::Method::Get, u + "/analytics/arrival/1", true},
      {net::Method::Get, u + "/analytics/next_visit/1", true},
      {net::Method::Get, u + "/analytics/departure/1", true},
      {net::Method::Get, u + "/analytics/next_place/1", true},
      {net::Method::Get, u + "/analytics/frequency", true},
      {net::Method::Delete, u + "/places/1", true},
      {net::Method::Delete, u, true},
  };
  check(cases.size() == direct->router().route_count(),
        "one case per cloud route");
  for (const Case& c : cases) {
    const net::HttpRequest r = request(c.method, c.path, token);
    const std::string want = outcome(direct->router(), r, c.compare_body);
    const std::string got = outcome(proxy.router(), r, c.compare_body);
    check(want == got, "proxy forwards " + std::string(net::to_string(c.method)) +
                           " " + c.path + ": " + want + " vs " + got);
  }
  check(proxy.exchanges().size() == cases.size() + 1,
        "proxy logs one exchange per request");

  // Real traffic: a small study's stream, forwarded and direct.
  pb::Proxy capture_proxy;
  std::vector<pb::CapturedRequest> stream;
  capture_proxy.set_capture(&stream);
  pb::PassOptions options;
  options.proxy = &capture_proxy;
  (void)pb::run_study_pass(setup, options);
  const auto direct2 = pb::make_cloud(setup);
  const auto proxied2 = pb::make_cloud(setup);
  proxy.clear();
  proxy.set_target(&proxied2->router());
  std::size_t mismatches = 0;
  for (const pb::CapturedRequest& c : stream)
    if (outcome(direct2->router(), c.request, true) !=
        outcome(proxy.router(), c.request, true))
      ++mismatches;
  check(!stream.empty() && mismatches == 0,
        "captured study traffic forwards identically (" +
            std::to_string(mismatches) + " of " +
            std::to_string(stream.size()) + " differ)");
  std::size_t others = 0;
  for (const pb::Exchange& e : proxy.exchanges())
    others += e.route == pb::Route::Other;
  check(others == 0, "every study request maps to a named route");
}

void test_runner_matches_study(bool churn) {
  const pb::StudySpec spec = small_spec(churn);
  const pb::StudySetup setup(spec, nullptr);
  pb::Proxy proxy;
  pb::PassOptions options;
  options.proxy = &proxy;
  const pb::PassResult pass = pb::run_study_pass(setup, options);

  study::StudyConfig config = setup.config;
  config.timeseries.enabled = false;
  config.alerts = false;
  study::DeploymentStudy reference(config);
  const study::StudyResult result = reference.run();
  check(pass.digest == result.storage_digest,
        std::string("runner digest equals DeploymentStudy's") +
            (churn ? " under churn" : ""));
  check(pass.undrained == 0, "outbox drained");
  check(pass.restore_failures == 0, "restores of intact checkpoints succeed");
  if (churn) check(pass.restores > 0, "churn schedule exercises restore");
}

void test_replay_deterministic() {
  const pb::StudySetup setup(small_spec(false), nullptr);
  pb::Proxy proxy;
  std::vector<pb::CapturedRequest> stream;
  proxy.set_capture(&stream);
  pb::PassOptions options;
  options.proxy = &proxy;
  const pb::PassResult live = pb::run_study_pass(setup, options);
  proxy.set_capture(nullptr);

  const pb::ReplayResult a =
      pb::run_replay_pass(setup, stream, proxy, {}, nullptr, true);
  const pb::ReplayResult b =
      pb::run_replay_pass(setup, stream, proxy, {}, nullptr, true);
  check(a.status_mismatches == 0 && a.body_mismatches == 0,
        "replay reproduces every captured status and body");
  check(a.digest == live.digest, "replay digest equals the live pass's");
  check(a.digest == b.digest && a.send_ns.size() == b.send_ns.size(),
        "two replays agree");
  bool same_routes = a.exchanges.size() == b.exchanges.size();
  for (std::size_t i = 0; same_routes && i < a.exchanges.size(); ++i)
    same_routes = a.exchanges[i].route == b.exchanges[i].route &&
                  a.exchanges[i].status == b.exchanges[i].status &&
                  a.exchanges[i].request_bytes == b.exchanges[i].request_bytes &&
                  a.exchanges[i].response_bytes == b.exchanges[i].response_bytes;
  check(same_routes, "two replays exchange the same requests and bytes");
}

void test_estimator() {
  pb::UnitTimes times;
  check(times.add_pass({1, 10, 100}), "first pass");
  check(times.add_pass({3, 30, 300}), "second pass");
  check(times.add_pass({2, 20, 900}), "third pass");
  check(!times.add_pass({1, 2}), "a pass with other units is refused");
  const std::vector<double> medians = times.unit_medians();
  check(medians == std::vector<double>({2, 20, 300}), "per-unit medians");
  check(times.total() == 322, "total of per-unit medians");
  check(pb::calibrated(322, 7.0, 14.0) == 161, "scaled by C_ref / C_run");
  check(pb::median({4, 1, 3, 2}) == 2.5, "even-length median");
  check(pb::quantile({1, 2, 3, 4, 5}, 0.25) == 2, "quartile");
}

void test_percentile_rule() {
  check(pb::samples_beyond(1000, 0.99) == 10, "p99 of 1000 has 10 beyond");
  check(pb::percentile_reportable(1000, 0.99), "p99 of 1000 is reportable");
  check(!pb::percentile_reportable(999, 0.99), "p99 of 999 is not");
  check(pb::percentile_reportable(20, 0.5), "p50 of 20 is reportable");
  check(!pb::percentile_reportable(19, 0.5), "p50 of 19 is not");
  check(pb::percentile_reportable(100, 0.9), "p90 of 100 is reportable");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(pb::percentile(v, 0.9) == 90, "nearest-rank p90");
}

void test_span_self_time() {
  pb::SpanRecorder spans;
  const std::size_t root = spans.open("root", "a");
  const std::size_t child = spans.open("child", "b");
  spans.close(child);
  spans.close(root);
  const auto self = spans.self_ns_by_layer();
  const auto& r = spans.records();
  const double root_ns = static_cast<double>(r[root].end_ns - r[root].start_ns);
  const double child_ns =
      static_cast<double>(r[child].end_ns - r[child].start_ns);
  check(self.at("a") == root_ns - child_ns && self.at("b") == child_ns,
        "self time subtracts children");
  check(r[child].parent == root && r[child].trace_id == r[root].trace_id,
        "child joins the root's trace");
  const std::size_t second = spans.open("second", "a");
  spans.close(second);
  check(spans.records()[second].trace_id != r[root].trace_id,
        "a new root starts a new trace");
}

}  // namespace

int main() {
  try {
    test_estimator();
    test_percentile_rule();
    test_span_self_time();
    test_proxy_forwards_every_route();
    test_runner_matches_study(false);
    test_runner_matches_study(true);
    test_replay_deterministic();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: exception: %s\n", e.what());
    ++g_failures;
  }
  std::printf("perfbench self-test: %s (%d failure%s)\n",
              g_failures == 0 ? "ok" : "FAILED", g_failures,
              g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
