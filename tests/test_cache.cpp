// Cache-subsystem tests: the generic ContentCache (LRU, hit taxonomy),
// ETag generation / If-None-Match matching, conditional transfer end-to-end
// through RestClient + CloudInstance (including under injected faults and
// with the cloud's half switched off), the GCA offload with the cache off,
// analytics reads around a write, the place PUT/GET purity guarantee strong
// ETags rest on, and cache-on/off study equivalence.
#include "cache/content_cache.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/digest.hpp"
#include "cache/etag.hpp"
#include "cloud/cloud_instance.hpp"
#include "core/codec.hpp"
#include "net/client.hpp"
#include "net/fault.hpp"
#include "study/deployment.hpp"
#include "telemetry/metrics.hpp"

namespace pmware {
namespace {

using net::HttpRequest;
using net::HttpResponse;
using net::Method;

std::uint64_t outcome_count(const char* cache, const char* outcome) {
  const auto* c = telemetry::registry().find_counter(
      "cache_outcomes_total", {{"cache", cache}, {"outcome", outcome}});
  return c == nullptr ? 0 : static_cast<std::uint64_t>(c->value());
}

// --- ContentCache ---------------------------------------------------------

TEST(ContentCache, HitReturnsValueAndRefreshesRecency) {
  cache::ContentCache<std::string, int> cache("t", 2);
  cache.put("a", 1);
  cache.put("b", 2);
  // Touch "a" so "b" is now least recently used...
  EXPECT_EQ(cache.lookup("a"), 1);
  cache.put("c", 3);  // ...and the insert beyond capacity evicts "b".
  EXPECT_EQ(cache.lookup("a"), 1);
  EXPECT_EQ(cache.lookup("c"), 3);
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ContentCache, PutReplacesValueInPlace) {
  cache::ContentCache<int, std::string> cache("t", 2);
  cache.put(1, "old");
  cache.put(1, "new");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(1), "new");
}

TEST(ContentCache, CapacityZeroClampsToOne) {
  cache::ContentCache<int, int> cache("t", 0);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(2), 20);
}

TEST(ContentCache, TaxonomyAndEvictionsExportedAsCounters) {
  telemetry::registry().reset();
  cache::ContentCache<int, int> cache("taxo", 1);
  cache.record(cache::CacheOutcome::LocalHit);
  cache.record(cache::CacheOutcome::CloudHit);
  cache.record(cache::CacheOutcome::CloudHit);
  cache.record(cache::CacheOutcome::Recompute);
  cache.record(cache::CacheOutcome::Miss);
  cache.put(1, 1);
  cache.put(2, 2);  // evicts 1
  EXPECT_EQ(outcome_count("taxo", "local_hit"), 1u);
  EXPECT_EQ(outcome_count("taxo", "cloud_hit"), 2u);
  EXPECT_EQ(outcome_count("taxo", "recompute"), 1u);
  EXPECT_EQ(outcome_count("taxo", "miss"), 1u);
  const auto* ev = telemetry::registry().find_counter("cache_evictions_total",
                                                      {{"cache", "taxo"}});
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(ev->value()), 1u);
}

// --- Digest primitives ----------------------------------------------------

// SplitMix64's reference outputs from seed 0 (Steele, Lea & Flood; the same
// vectors test_rng pins for Rng's seeding): output k is the finalizer of
// k golden gammas. Fault rolls and shard placement both hash with it.
TEST(Digest, SplitMix64FinalizerMatchesReferenceOutputs) {
  constexpr std::uint64_t gamma = 0x9e3779b97f4a7c15ULL;
  static_assert(cache::splitmix64(0) == 0xe220a8397b1dcdafULL);
  EXPECT_EQ(cache::splitmix64(gamma), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(cache::splitmix64(2 * gamma), 0x06c45d188009454fULL);
  EXPECT_EQ(cache::splitmix64(3 * gamma), 0xf88bb8a8724c81ecULL);
}

// kDigestBasis is 1469598103934665603, not FNV's published offset basis
// 14695981039346656037 (one digit short), so these are the repository's own
// answers; every golden digest and fault roll depends on them.
TEST(Digest, Fnv1aKnownAnswers) {
  EXPECT_EQ(cache::fnv1a(""), cache::kDigestBasis);
  EXPECT_EQ(cache::fnv1a("a"), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(cache::fnv1a("foobar"), 0x88fad7c0a8ff07f2ULL);
  // Chaining continues from the previous digest.
  EXPECT_EQ(cache::fnv1a("bar", cache::fnv1a("foo")), cache::fnv1a("foobar"));
}

// --- Movement digest ------------------------------------------------------

TEST(MovementDigest, SensitiveToTimeCellAndOrder) {
  auto cell = [](std::uint32_t cid) {
    world::CellId c;
    c.mcc = 262;
    c.mnc = 1;
    c.lac = 7;
    c.cid = cid;
    return c;
  };
  const std::vector<algorithms::CellObservation> a = {{0, cell(1)},
                                                      {60, cell(2)}};
  const std::vector<algorithms::CellObservation> same = a;
  EXPECT_EQ(core::movement_digest(a), core::movement_digest(same));

  std::vector<algorithms::CellObservation> longer = a;
  longer.push_back({120, cell(3)});
  EXPECT_NE(core::movement_digest(a), core::movement_digest(longer));

  const std::vector<algorithms::CellObservation> other_cell = {{0, cell(1)},
                                                               {60, cell(3)}};
  EXPECT_NE(core::movement_digest(a), core::movement_digest(other_cell));

  const std::vector<algorithms::CellObservation> other_time = {{0, cell(1)},
                                                               {61, cell(2)}};
  EXPECT_NE(core::movement_digest(a), core::movement_digest(other_time));

  const std::vector<algorithms::CellObservation> swapped = {{60, cell(2)},
                                                            {0, cell(1)}};
  EXPECT_NE(core::movement_digest(a), core::movement_digest(swapped));
}

// --- ETag edge cases ------------------------------------------------------

TEST(ETag, StrongEtagIsQuotedPadded16DigitHex) {
  const std::string etag = cache::strong_etag("{\"a\":1}");
  ASSERT_EQ(etag.size(), 18u);
  EXPECT_EQ(etag.front(), '"');
  EXPECT_EQ(etag.back(), '"');
  for (std::size_t i = 1; i + 1 < etag.size(); ++i)
    EXPECT_TRUE((etag[i] >= '0' && etag[i] <= '9') ||
                (etag[i] >= 'a' && etag[i] <= 'f'))
        << etag;
  EXPECT_EQ(etag, cache::strong_etag("{\"a\":1}"));  // deterministic
  EXPECT_NE(etag, cache::strong_etag("{\"a\":2}"));
}

TEST(ETag, MatchesExactAndListedCandidates) {
  EXPECT_TRUE(cache::etag_matches("\"abc\"", "\"abc\""));
  EXPECT_FALSE(cache::etag_matches("\"abd\"", "\"abc\""));
  EXPECT_TRUE(cache::etag_matches("\"x\", \"abc\", \"y\"", "\"abc\""));
  EXPECT_FALSE(cache::etag_matches("\"x\", \"y\"", "\"abc\""));
}

TEST(ETag, WeakComparisonIgnoresWeaknessPrefixes) {
  // RFC 7232 §3.2: If-None-Match uses the weak comparison — W/ prefixes
  // are stripped from both sides before comparing opaque tags.
  EXPECT_TRUE(cache::etag_matches("W/\"abc\"", "\"abc\""));
  EXPECT_TRUE(cache::etag_matches("\"abc\"", "W/\"abc\""));
  EXPECT_TRUE(cache::etag_matches("W/\"abc\"", "W/\"abc\""));
  EXPECT_FALSE(cache::etag_matches("W/\"abd\"", "\"abc\""));
}

TEST(ETag, StarMatchesAnyRepresentation) {
  EXPECT_TRUE(cache::etag_matches("*", "\"anything\""));
  EXPECT_TRUE(cache::etag_matches(" * ", "\"anything\""));
}

TEST(ETag, ToleratesUnquotedCandidatesAndWhitespace) {
  EXPECT_TRUE(cache::etag_matches("abc", "\"abc\""));
  EXPECT_TRUE(cache::etag_matches("  \"abc\"  ", "\"abc\""));
  EXPECT_TRUE(cache::etag_matches("x , abc", "\"abc\""));
}

TEST(ETag, EmptyHeaderNeverMatches) {
  EXPECT_FALSE(cache::etag_matches("", "\"abc\""));
  EXPECT_FALSE(cache::etag_matches("   ", "\"abc\""));
  EXPECT_FALSE(cache::etag_matches(",,", "\"abc\""));
}

// --- Conditional transfer end-to-end --------------------------------------

/// Minimal cloud + client pair; the client registers the device and keeps
/// the bearer token so tests talk to /api/users/<id>/... directly.
class ConditionalFixture : public ::testing::Test {
 protected:
  ConditionalFixture() { telemetry::registry().reset(); }

  void start(cloud::CloudConfig config = {},
             net::CachePolicy cache_policy = {true, 64}) {
    cloud_.emplace(config, cloud::GeoLocationService({}), Rng(1));
    client_.emplace(&cloud_->router(), net::NetworkConditions{}, Rng(2));
    client_->set_cache_policy(cache_policy);
    HttpRequest reg;
    reg.method = Method::Post;
    reg.path = "/api/register";
    reg.body = Json::object();
    reg.body.set("imei", "358240051111111");
    reg.body.set("email", "cache@test.pmware.org");
    const HttpResponse res = client_->send(reg);
    ASSERT_EQ(res.status, net::kStatusCreated);
    client_->set_auth_token(res.body.at("token").as_string());
    user_ = std::to_string(res.body.at("user").as_int());
  }

  HttpRequest request(Method method, std::string path, SimTime now = 0) {
    HttpRequest req;
    req.method = method;
    req.path = std::move(path);
    req.headers[cloud::CloudInstance::kSimTimeHeader] = std::to_string(now);
    return req;
  }

  HttpResponse put_place(core::PlaceUid uid, const std::string& label,
                         SimTime now = 0) {
    HttpRequest put =
        request(Method::Put, "/api/users/" + user_ + "/places/" +
                                 std::to_string(uid), now);
    core::PlaceRecord record;
    record.label = label;
    put.body = core::to_json(record);
    return client_->send(put);
  }

  std::optional<cloud::CloudInstance> cloud_;
  std::optional<net::RestClient> client_;
  std::string user_;
};

TEST_F(ConditionalFixture, RepeatGetRevalidatesTo304WithSameBody) {
  start();
  ASSERT_EQ(put_place(1, "home").status, net::kStatusCreated);
  const HttpResponse first =
      client_->send(request(Method::Get, "/api/users/" + user_ + "/places"));
  ASSERT_EQ(first.status, net::kStatusOk);
  EXPECT_EQ(client_->stats().not_modified, 0u);

  const HttpResponse second =
      client_->send(request(Method::Get, "/api/users/" + user_ + "/places"));
  // The caller still sees an ordinary 200; the wire moved a 304.
  EXPECT_EQ(second.status, net::kStatusOk);
  EXPECT_EQ(second.body.dump(), first.body.dump());
  EXPECT_EQ(client_->stats().not_modified, 1u);
  EXPECT_EQ(client_->stats().bytes_saved, first.body.dump().size());
  EXPECT_EQ(outcome_count("net_conditional", "cloud_hit"), 1u);
}

TEST_F(ConditionalFixture, ServerSide304CarriesNoBody) {
  start();
  ASSERT_EQ(put_place(1, "home").status, net::kStatusCreated);
  const HttpResponse full = cloud_->router().handle(
      request(Method::Get, "/api/users/" + user_ + "/places")
          .with_header("Authorization", "Bearer " + client_->auth_token()));
  ASSERT_EQ(full.status, net::kStatusOk);
  const auto etag = full.headers.find(net::kETagHeader);
  ASSERT_NE(etag, full.headers.end());

  HttpRequest revalidate =
      request(Method::Get, "/api/users/" + user_ + "/places")
          .with_header("Authorization", "Bearer " + client_->auth_token());
  revalidate.headers[net::kIfNoneMatchHeader] = etag->second;
  const HttpResponse res = cloud_->router().handle(revalidate);
  EXPECT_EQ(res.status, net::kStatusNotModified);
  EXPECT_TRUE(res.body.is_null());  // bodyless — the entire point
  // The 304 still names the representation it validated.
  ASSERT_NE(res.headers.find(net::kETagHeader), res.headers.end());
  EXPECT_EQ(res.headers.at(net::kETagHeader), etag->second);
}

TEST_F(ConditionalFixture, MutationInvalidatesThenRevalidatesAgain) {
  start();
  ASSERT_EQ(put_place(1, "home").status, net::kStatusCreated);
  const std::string path = "/api/users/" + user_ + "/places";
  client_->send(request(Method::Get, path));             // miss, fills cache
  ASSERT_EQ(put_place(2, "work").status, net::kStatusCreated);
  const HttpResponse changed = client_->send(request(Method::Get, path));
  // Stale tag: the full new representation comes back — a recompute.
  EXPECT_EQ(changed.status, net::kStatusOk);
  EXPECT_EQ(client_->stats().not_modified, 0u);
  EXPECT_EQ(outcome_count("net_conditional", "recompute"), 1u);
  // The refreshed entry validates on the next round trip.
  const HttpResponse again = client_->send(request(Method::Get, path));
  EXPECT_EQ(again.status, net::kStatusOk);
  EXPECT_EQ(again.body.dump(), changed.body.dump());
  EXPECT_EQ(client_->stats().not_modified, 1u);
}

TEST_F(ConditionalFixture, CacheOffNeverSendsIfNoneMatch) {
  start(cloud::CloudConfig{}, net::CachePolicy{false, 64});
  ASSERT_EQ(put_place(1, "home").status, net::kStatusCreated);
  const std::string path = "/api/users/" + user_ + "/places";
  const HttpResponse first = client_->send(request(Method::Get, path));
  const HttpResponse second = client_->send(request(Method::Get, path));
  EXPECT_EQ(first.status, net::kStatusOk);
  EXPECT_EQ(second.status, net::kStatusOk);
  EXPECT_EQ(second.body.dump(), first.body.dump());
  EXPECT_EQ(client_->stats().not_modified, 0u);
  // The cloud still stamps ETags; only revalidation needs the client's
  // cache.
  EXPECT_NE(second.headers.find(net::kETagHeader), second.headers.end());
}

TEST_F(ConditionalFixture, CallerSuppliedIfNoneMatchPassesThroughRaw) {
  start();
  ASSERT_EQ(put_place(1, "home").status, net::kStatusCreated);
  HttpRequest get = request(Method::Get, "/api/users/" + user_ + "/places");
  get.headers[net::kIfNoneMatchHeader] = "*";
  const HttpResponse res = client_->send(get);
  // The client must not intercept a conditional exchange it didn't start:
  // the raw 304 is the caller's to interpret.
  EXPECT_EQ(res.status, net::kStatusNotModified);
  EXPECT_EQ(client_->stats().not_modified, 0u);
}

TEST_F(ConditionalFixture, ConditionalGetsSurviveInjectedFaults) {
  cloud::CloudConfig config;
  config.fault_plan =
      net::FaultPlan::parse("route=/api/users,error=0.4,from=0,to=2d");
  start(config);
  net::RetryPolicy retry;
  retry.max_retries = 6;
  client_->set_retry_policy(retry);
  ASSERT_EQ(put_place(1, "home").status, net::kStatusCreated);

  const std::string path = "/api/users/" + user_ + "/places";
  std::string body;
  std::size_t delivered = 0;
  for (int round = 0; round < 20; ++round) {
    // Distinct sim-times so the deterministic fault rolls differ per round.
    const HttpResponse res =
        client_->send(request(Method::Get, path, minutes(round)));
    if (res.status != net::kStatusOk) continue;  // exhausted its retries
    ++delivered;
    // Every delivered response — revalidated or re-transferred — must carry
    // the same bytes; a 304 merged with a fault must never surface.
    if (body.empty())
      body = res.body.dump();
    else
      EXPECT_EQ(res.body.dump(), body);
  }
  EXPECT_GE(delivered, 10u);
  EXPECT_GE(client_->stats().not_modified, 1u);
}

// --- Place PUT/GET purity -------------------------------------------------

// Strong ETags are only valid if response bytes are a pure function of the
// last write — no counters, timestamps, or iteration-order noise in the
// representation. This is the regression test that guarantee rests on.
TEST_F(ConditionalFixture, PlaceGetBytesArePureFunctionOfLastPut) {
  start(cloud::CloudConfig{}, net::CachePolicy{false, 64});
  const std::string path = "/api/users/" + user_ + "/places";

  ASSERT_EQ(put_place(7, "gym").status, net::kStatusCreated);
  const std::string original = client_->send(request(Method::Get, path)).body.dump();

  // Idempotent re-PUT: identical stored state, identical bytes and ETag.
  ASSERT_EQ(put_place(7, "gym").status, net::kStatusCreated);
  const HttpResponse same = client_->send(request(Method::Get, path));
  EXPECT_EQ(same.body.dump(), original);
  EXPECT_EQ(same.headers.at(net::kETagHeader), cache::strong_etag(original));

  // Different content, different bytes...
  ASSERT_EQ(put_place(7, "pool").status, net::kStatusCreated);
  const std::string changed = client_->send(request(Method::Get, path)).body.dump();
  EXPECT_NE(changed, original);

  // ...and restoring the original write restores the original bytes.
  ASSERT_EQ(put_place(7, "gym").status, net::kStatusCreated);
  EXPECT_EQ(client_->send(request(Method::Get, path)).body.dump(), original);
}

// --- GCA offload with the cache switched off ------------------------------

TEST_F(ConditionalFixture, CacheOffRecomputesEveryDiscover) {
  cloud::CloudConfig config;
  config.cache = false;
  start(config);
  auto cell = [](std::uint32_t cid) {
    world::CellId c;
    c.mcc = 262;
    c.mnc = 1;
    c.lac = 7;
    c.cid = cid;
    return c;
  };
  std::vector<algorithms::CellObservation> observations;
  for (int m = 0; m < 120; ++m)
    observations.push_back({minutes(m), cell(m % 2 == 0 ? 10 : 11)});
  const auto user = static_cast<world::DeviceId>(std::stoul(user_));
  std::string body;
  for (std::size_t round = 0; round < 3; ++round) {
    HttpRequest req = request(Method::Post, "/api/places/discover");
    req.body = core::discover_request_to_json(observations, std::nullopt);
    const HttpResponse res = client_->send(req);
    ASSERT_EQ(res.status, net::kStatusOk);
    // Each identical POST ran one more pass over the user's retained GCA
    // state: nothing answered it from a stored result.
    const cloud::UserStore* store = cloud_->storage().find_user(user);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->gca.passes(), round + 1);
    if (body.empty())
      body = res.body.dump();
    else
      EXPECT_EQ(res.body.dump(), body);  // disabled cache changes no bytes
  }
}

// --- Analytics reads after a write ---------------------------------------

TEST_F(ConditionalFixture, AnalyticsGetsAroundAWriteReturnOldThenNew) {
  start(cloud::CloudConfig{}, net::CachePolicy{false, 64});
  core::MobilityProfile profile;
  profile.activity.still = hours(20);
  profile.activity.walking = hours(3);
  profile.activity.vehicle = hours(1);
  auto put_profile = [&]() {
    HttpRequest put =
        request(Method::Put, "/api/users/" + user_ + "/profiles/3");
    put.body = core::to_json(profile);
    return client_->send(put);
  };
  const std::string path = "/api/users/" + user_ + "/analytics/activity/3";

  ASSERT_EQ(put_profile().status, net::kStatusCreated);
  const HttpResponse before = client_->send(request(Method::Get, path));
  ASSERT_EQ(before.status, net::kStatusOk);
  EXPECT_EQ(before.body.at("walking").as_int(),
            static_cast<std::int64_t>(hours(3)));

  // The identical GET after a write to the same day answers from the new
  // profile: analytics are computed from storage on every request.
  profile.activity.walking = hours(5);
  ASSERT_EQ(put_profile().status, net::kStatusCreated);
  const HttpResponse after = client_->send(request(Method::Get, path));
  ASSERT_EQ(after.status, net::kStatusOk);
  EXPECT_EQ(after.body.at("walking").as_int(),
            static_cast<std::int64_t>(hours(5)));
  EXPECT_EQ(after.body.at("still").as_int(),
            static_cast<std::int64_t>(hours(20)));
}

// --- Cache-on/off study equivalence ---------------------------------------

/// Science results and stored cloud bytes must be independent of caching;
/// traffic counters legitimately differ (that's the savings), so this is
/// the `network_counters = false` comparison from test_study.cpp.
void expect_equivalent(const study::StudyResult& a, const study::StudyResult& b,
                       const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.participants.size(), b.participants.size());
  for (std::size_t i = 0; i < a.participants.size(); ++i) {
    const study::ParticipantResult& pa = a.participants[i];
    const study::ParticipantResult& pb = b.participants[i];
    EXPECT_EQ(pa.places_discovered, pb.places_discovered);
    EXPECT_EQ(pa.places_tagged, pb.places_tagged);
    EXPECT_EQ(pa.places_evaluable, pb.places_evaluable);
    EXPECT_EQ(pa.eval.outcomes, pb.eval.outcomes);
    EXPECT_EQ(pa.ad_likes, pb.ad_likes);
    EXPECT_EQ(pa.ad_dislikes, pb.ad_dislikes);
    EXPECT_EQ(pa.sensing_joules, pb.sensing_joules);  // bitwise
  }
  ASSERT_EQ(a.place_map.size(), b.place_map.size());
  for (std::size_t i = 0; i < a.place_map.size(); ++i) {
    EXPECT_EQ(a.place_map[i].uid, b.place_map[i].uid);
    EXPECT_EQ(a.place_map[i].label, b.place_map[i].label);
    EXPECT_EQ(a.place_map[i].location, b.place_map[i].location);
  }
  EXPECT_EQ(a.storage_stats, b.storage_stats);
  EXPECT_EQ(a.storage_digest, b.storage_digest);
}

TEST(CacheStudy, CachingNeverChangesResultsAcrossShardsAndThreads) {
  study::StudyConfig base;
  base.participants = 3;
  base.days = 4;
  base.cache = false;
  base.shards = 1;
  base.threads = 1;
  const study::StudyResult baseline = study::DeploymentStudy(base).run();
  EXPECT_NE(baseline.storage_digest, 0u);

  for (const int shards : {1, 16}) {
    for (const int threads : {1, 8}) {
      study::StudyConfig config = base;
      config.cache = true;
      config.shards = shards;
      config.threads = threads;
      const study::StudyResult run = study::DeploymentStudy(config).run();
      expect_equivalent(baseline, run,
                        "cache=on shards=" + std::to_string(shards) +
                            " threads=" + std::to_string(threads) +
                            " vs cache=off shards=1 threads=1");
    }
  }
}

TEST(CacheStudy, CachedStudyEquivalentUnderFaultPlan) {
  // Conditional GETs, offload caching, retries, the outbox, and injected
  // faults all composed: the cached faulted run must still converge to the
  // cache-off no-fault bytes once the outbox drains.
  study::StudyConfig base;
  base.participants = 3;
  base.days = 6;
  base.cache = false;
  const study::StudyResult baseline = study::DeploymentStudy(base).run();

  study::StudyConfig faulted = base;
  faulted.cache = true;
  faulted.fault_plan = net::FaultPlan::parse("outage=2d..3d");
  const study::StudyResult run = study::DeploymentStudy(faulted).run();
  expect_equivalent(baseline, run, "cache=on outage=2d..3d vs cache=off");
}

}  // namespace
}  // namespace pmware
