#include "net/client.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "net/fault.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pmware::net {

namespace {

using telemetry::LabelSet;
using telemetry::registry;

constexpr const char* kRequests = "net_requests_total";
constexpr const char* kFailures = "net_failures_total";
constexpr const char* kRetries = "net_retries_total";
constexpr const char* kBytesSent = "net_bytes_sent_total";
constexpr const char* kLatency = "net_sim_latency_seconds_total";
constexpr const char* kBackoff = "net_backoff_seconds_total";
constexpr const char* kBreakerOpens = "net_breaker_open_total";
constexpr const char* kBreakerFastFails = "net_breaker_fast_fail_total";
constexpr const char* kBreakerState = "net_breaker_state";
constexpr const char* kNotModified = "net_not_modified_total";
constexpr const char* kBytesSaved = "net_bytes_saved_total";

/// Name of every client-side conditional cache's metric series; instances
/// aggregate (the taxonomy uses counters, never gauges).
constexpr const char* kConditionalCacheName = "net_conditional";

LabelSet instance_labels(const std::string& instance) {
  return {{"instance", instance}};
}

}  // namespace

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half-open";
  }
  return "?";
}

RestClient::RestClient(const Router* server, NetworkConditions conditions,
                       Rng rng)
    : server_(server),
      conditions_(conditions),
      rng_(rng),
      instance_(registry().next_instance_label("c")),
      requests_(kRequests, instance_labels(instance_),
                "REST requests attempted (incl. retries)"),
      failures_(kFailures, instance_labels(instance_),
                "transport-level losses observed"),
      retries_(kRetries, instance_labels(instance_),
               "REST retries after transport loss"),
      bytes_sent_(kBytesSent, instance_labels(instance_),
                  "serialized JSON body bytes sent"),
      latency_(kLatency, instance_labels(instance_),
               "simulated round-trip seconds accumulated"),
      backoff_(kBackoff, instance_labels(instance_),
               "simulated seconds spent in retry backoff waits"),
      breaker_opens_(kBreakerOpens, instance_labels(instance_),
                     "circuit breaker transitions to open"),
      breaker_fast_fails_(kBreakerFastFails, instance_labels(instance_),
                          "sends rejected while the circuit breaker was open"),
      not_modified_(kNotModified, instance_labels(instance_),
                    "conditional GETs resolved as 304 Not Modified"),
      bytes_saved_(kBytesSaved, instance_labels(instance_),
                   "response body bytes 304s did not re-transfer"),
      breaker_state_gauge_(kBreakerState, instance_labels(instance_),
                           "circuit breaker state: 0 closed, 1 open, 2 half-open"),
      request_bytes_("net_request_bytes", {}, 0, 4096, 16,
                     "request body size distribution, bytes") {
  enter_state(BreakerState::Closed);
}

void RestClient::set_cache_policy(CachePolicy policy) {
  cache_policy_ = policy;
  if (!policy.enabled) {
    conditional_cache_.reset();
    return;
  }
  conditional_cache_ =
      std::make_unique<cache::ContentCache<std::string, CachedRepresentation>>(
          kConditionalCacheName, policy.capacity);
}

void RestClient::enter_state(BreakerState state) {
  state_ = state;
  breaker_state_gauge_.set(static_cast<double>(state));
}

void RestClient::record_outcome(bool delivered, SimTime sim_now) {
  if (breaker_.failure_threshold <= 0) return;  // breaker disabled
  if (delivered) {
    consecutive_failures_ = 0;
    if (state_ != BreakerState::Closed) enter_state(BreakerState::Closed);
    return;
  }
  ++consecutive_failures_;
  // A failed half-open probe re-opens immediately; a closed breaker opens
  // once the consecutive-failure threshold is met.
  if (state_ == BreakerState::HalfOpen ||
      consecutive_failures_ >= breaker_.failure_threshold) {
    enter_state(BreakerState::Open);
    open_until_ = sim_now + breaker_.cooldown_s;
    breaker_opens_.inc();
  }
}

HttpResponse RestClient::send(const HttpRequest& request, int max_retries) {
  const SimTime sim_now = request.sim_time();

  // Breaker gate: while open and inside the cooldown, fail fast without
  // consuming RNG draws or network counters — callers see an ordinary 503
  // and fall back (GCA runs locally, PMS parks work in its outbox). Once
  // the cooldown elapses the next send() becomes the half-open probe.
  if (breaker_.failure_threshold > 0 && state_ == BreakerState::Open) {
    if (sim_now < open_until_) {
      breaker_fast_fails_.inc();
      return HttpResponse::error(kStatusServiceUnavailable,
                                 "circuit breaker open");
    }
    enter_state(BreakerState::HalfOpen);
  }

  HttpRequest outgoing = request;
  if (!token_.empty() && outgoing.headers.find("Authorization") ==
                             outgoing.headers.end())
    outgoing.headers["Authorization"] = "Bearer " + token_;

  // Conditional transfer: replay the remembered ETag for this GET so an
  // unchanged representation collapses to a bodyless 304. A caller-supplied
  // If-None-Match always passes through untouched (and its 304, if any, is
  // the caller's to interpret). The extra header never perturbs fault rolls
  // — the injector hashes path/body/attempt only (net/fault.hpp).
  const bool conditional =
      conditional_cache_ != nullptr && outgoing.method == Method::Get &&
      outgoing.headers.find(kIfNoneMatchHeader) == outgoing.headers.end();
  std::optional<CachedRepresentation> remembered;
  std::string cache_key;
  if (conditional) {
    cache_key = outgoing.path;
    for (const auto& [k, v] : outgoing.query) cache_key += "&" + k + "=" + v;
    remembered = conditional_cache_->lookup(cache_key);
    if (remembered) outgoing.headers[kIfNoneMatchHeader] = remembered->etag;
  }

  // A half-open breaker admits exactly one probe: no retries, so a dead
  // server costs one round-trip per cooldown instead of a full retry burst.
  int retries = max_retries >= 0 ? max_retries : retry_.max_retries;
  if (state_ == BreakerState::HalfOpen) retries = 0;

  // One client span covers the request including retries and backoff. It
  // nests under whatever span the calling thread has open (pms.housekeeping,
  // a GCA offload, ...) or roots a fresh trace, and its context rides the
  // trace-context headers so the server-side handler span joins the same
  // tree — the device↔cloud boundary stays one causal trace.
  telemetry::Span span(telemetry::tracer(),
                       std::string("net.send ") + to_string(outgoing.method) +
                           " " + generalized_path(outgoing.path),
                       sim_now);
  outgoing.set_trace_context(telemetry::tracer().current_context());

  const std::size_t body_bytes = outgoing.body.dump().size();

  HttpResponse response =
      HttpResponse::error(kStatusServiceUnavailable, "network unreachable");
  // Simulated elapsed time: one round-trip per attempt, plus backoff waits,
  // plus any server-injected latency.
  SimDuration elapsed = 0;
  for (int attempt = 0; attempt <= retries; ++attempt) {
    if (attempt > 0) {
      SimDuration backoff = retry_.backoff_base_s;
      for (int i = 1; i < attempt && backoff < retry_.backoff_cap_s; ++i)
        backoff *= 2;
      backoff = std::min(backoff, retry_.backoff_cap_s);
      if (retry_.jitter > 0.0 && backoff > 0) {
        const auto max_jitter =
            static_cast<SimDuration>(retry_.jitter * static_cast<double>(backoff));
        if (max_jitter > 0) backoff += rng_.uniform_int(0, max_jitter);
      }
      elapsed += backoff;
      backoff_.inc(static_cast<std::uint64_t>(backoff));
      retries_.inc();
    }
    requests_.inc();
    bytes_sent_.inc(body_bytes);
    request_bytes_.observe(static_cast<double>(body_bytes));
    latency_.inc(static_cast<std::uint64_t>(conditions_.latency_s));
    elapsed += conditions_.latency_s;
    // Sim-time is frozen across this loop, so retries of one logical request
    // are byte-identical; the attempt header is what lets a deterministic
    // server-side fault roll (net/fault.hpp) treat each retry as fresh.
    outgoing.headers[kAttemptHeader] = std::to_string(attempt);
    if (rng_.bernoulli(conditions_.failure_prob)) {
      failures_.inc();
      continue;  // request lost; retry
    }
    response = server_->handle(outgoing);
    if (response.sim_latency_s > 0) {
      latency_.inc(static_cast<std::uint64_t>(response.sim_latency_s));
      elapsed += response.sim_latency_s;
    }
    // A server 503 (outage window, injected error) is as retryable as a
    // transport loss; any other status means the service answered.
    if (response.status != kStatusServiceUnavailable) break;
  }
  if (conditional) {
    if (response.status == kStatusNotModified && remembered) {
      // The server validated our tag: resolve the 304 from the cached body
      // so the caller sees an ordinary 200 — a cloud_hit that moved headers
      // instead of the representation.
      not_modified_.inc();
      bytes_saved_.inc(remembered->body.dump().size());
      conditional_cache_->record(cache::CacheOutcome::CloudHit);
      response.status = kStatusOk;
      response.body = remembered->body;
    } else if (response.ok()) {
      const auto etag = response.headers.find(kETagHeader);
      if (etag != response.headers.end()) {
        // Full representation with a validator: remember it. A prior entry
        // whose tag no longer validates means the content changed upstream.
        conditional_cache_->record(remembered ? cache::CacheOutcome::Recompute
                                              : cache::CacheOutcome::Miss);
        conditional_cache_->put(cache_key, {etag->second, response.body});
      }
    }
  }
  span.finish(sim_now + elapsed);
  record_outcome(response.status != kStatusServiceUnavailable, sim_now);
  return response;
}

ClientStats RestClient::stats() const {
  const auto& reg = registry();
  const LabelSet labels = instance_labels(instance_);
  ClientStats stats;
  stats.requests = reg.counter_value(kRequests, labels);
  stats.failures = reg.counter_value(kFailures, labels);
  stats.retries = reg.counter_value(kRetries, labels);
  stats.bytes_sent = reg.counter_value(kBytesSent, labels);
  stats.total_latency =
      static_cast<SimDuration>(reg.counter_value(kLatency, labels));
  stats.backoff_s = static_cast<SimDuration>(reg.counter_value(kBackoff, labels));
  stats.breaker_opens = reg.counter_value(kBreakerOpens, labels);
  stats.breaker_fast_fails = reg.counter_value(kBreakerFastFails, labels);
  stats.not_modified = reg.counter_value(kNotModified, labels);
  stats.bytes_saved = reg.counter_value(kBytesSaved, labels);
  return stats;
}

}  // namespace pmware::net
