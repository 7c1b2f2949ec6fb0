#include "replay.hpp"

#include "net/client.hpp"
#include "net/fault.hpp"

namespace pmware::perfbench {

ReplayResult run_replay_pass(const StudySetup& setup,
                             const std::vector<CapturedRequest>& stream,
                             Proxy& proxy,
                             const std::function<void()>& between_units,
                             SpanRecorder* spans, bool counting) {
  reset_telemetry();
  ReplayResult out;
  out.send_ns.reserve(stream.size());
  out.handle_ns.reserve(stream.size());
  proxy.clear();
  proxy.set_counting(counting);
  const std::int64_t begin = now_ns();
  std::unique_ptr<cloud::CloudInstance> cloud;
  {
    const ScopedSpan span(spans, "cloud.construct", "cloud");
    cloud = make_cloud(setup);
  }
  proxy.set_target(&cloud->router());
  proxy.set_spans(spans);
  net::RestClient client(&proxy.router(), net::NetworkConditions{0.0, 0},
                         Rng(setup.spec.seed));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const CapturedRequest& captured = stream[i];
    net::HttpResponse response;
    {
      const ScopedSpan span(
          spans,
          spans ? std::string("net.send ") +
                      net::to_string(captured.request.method) + " " +
                      net::generalized_path(captured.request.path)
                : std::string(),
          "net");
      const std::int64_t send_begin = now_ns();
      response = client.send(captured.request);
      out.send_ns.push_back(static_cast<double>(now_ns() - send_begin));
    }
    // Without loss every request reaches the proxy exactly once.
    out.handle_ns.push_back(
        proxy.exchanges().size() > i
            ? static_cast<double>(proxy.exchanges()[i].handle_ns)
            : 0.0);
    if (response.status != captured.status) ++out.status_mismatches;
    if (counting && fnv1a(response.body.dump()) != captured.body_digest)
      ++out.body_mismatches;
    if (between_units && (i + 1) % kReplayHookEvery == 0) between_units();
  }
  out.digest = cloud->storage().content_digest();
  out.wall_ns = now_ns() - begin;
  out.exchanges = proxy.exchanges();
  out.counters = read_counters();
  proxy.set_target(nullptr);
  proxy.set_spans(nullptr);
  proxy.set_counting(false);
  return out;
}

}  // namespace pmware::perfbench
