#include "cloud/token_service.hpp"

#include "cache/digest.hpp"
#include "util/strfmt.hpp"

namespace pmware::cloud {

TokenService::TokenService(Rng rng, SimDuration token_ttl)
    : rng_(rng), ttl_(token_ttl) {}

TokenService::TokenShard& TokenService::shard_of(
    const std::string& token) const {
  return token_shards_[cache::fnv1a(token) % kTokenShards];
}

std::string TokenService::mint_token() {
  // Two statements: argument evaluation order is unspecified.
  const auto high = static_cast<unsigned long long>(rng_.next());
  const auto low = static_cast<unsigned long long>(rng_.next());
  return strfmt("tok-%016llx%016llx", high, low);
}

TokenGrant TokenService::register_device(const std::string& imei,
                                         const std::string& email,
                                         SimTime now) {
  TokenGrant grant;
  {
    const std::scoped_lock lock(reg_mu_);
    const auto key = std::make_pair(imei, email);
    auto it = devices_.find(key);
    if (it == devices_.end())
      it = devices_.emplace(key, DeviceInfo{next_user_++, 0}).first;
    grant.user = it->second.user;
    grant.session = ++it->second.sessions;
    grant.token = mint_token();
  }
  grant.expires_at = now + ttl_;
  // Registration lock released before the token-shard lock: no operation
  // ever holds both, so the two lock families cannot deadlock.
  TokenShard& shard = shard_of(grant.token);
  const std::scoped_lock lock(shard.mu);
  shard.tokens[grant.token] = {grant.user, grant.expires_at};
  return grant;
}

std::optional<TokenGrant> TokenService::refresh(const std::string& token,
                                                SimTime now) {
  TokenGrant grant;
  {
    TokenShard& shard = shard_of(token);
    const std::scoped_lock lock(shard.mu);
    const auto it = shard.tokens.find(token);
    if (it == shard.tokens.end() || it->second.expires_at <= now)
      return std::nullopt;
    grant.user = it->second.user;
    // The old token dies the moment the exchange is decided; only its
    // owner (the device refreshing it) could race this, so the gap before
    // the replacement lands in its own shard is unobservable.
    shard.tokens.erase(it);
  }
  {
    const std::scoped_lock lock(reg_mu_);
    grant.token = mint_token();
  }
  grant.expires_at = now + ttl_;
  TokenShard& shard = shard_of(grant.token);
  const std::scoped_lock lock(shard.mu);
  shard.tokens[grant.token] = {grant.user, grant.expires_at};
  return grant;
}

std::optional<world::DeviceId> TokenService::validate(const std::string& token,
                                                      SimTime now) const {
  const TokenShard& shard = shard_of(token);
  const std::scoped_lock lock(shard.mu);
  const auto it = shard.tokens.find(token);
  if (it == shard.tokens.end() || it->second.expires_at <= now)
    return std::nullopt;
  return it->second.user;
}

std::size_t TokenService::token_count() const {
  std::size_t n = 0;
  for (const TokenShard& shard : token_shards_) {
    const std::scoped_lock lock(shard.mu);
    n += shard.tokens.size();
  }
  return n;
}

}  // namespace pmware::cloud
