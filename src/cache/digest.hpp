// Content-addressing primitives shared by every cache in the middleware:
// FNV-1a over byte strings, the SplitMix64 finalizer and the boost-style
// 64-bit fold for structured values. One definition instead of the
// per-module copies that used to live in core/pms.cpp, cloud/storage.cpp and
// net/fault.cpp — cache keys on both sides of the wire must derive
// identically or conditional transfer and offload caching silently degrade
// to 100% misses.
#pragma once

#include <cstdint>
#include <string_view>

namespace pmware::cache {

/// FNV offset basis: the seed of every digest, distinguishable from
/// "never folded anything" by construction.
inline constexpr std::uint64_t kDigestBasis = 1469598103934665603ull;

/// FNV-1a over `s`, continuing from `h` (chain calls to digest multiple
/// fragments without concatenating).
inline std::uint64_t fnv1a(std::string_view s,
                           std::uint64_t h = kDigestBasis) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// SplitMix64 finalizer (Steele, Lea & Flood): one golden-gamma step and
/// the avalanche mix. Fixed arithmetic, so every roll or placement keyed by
/// it is identical across platforms and standard libraries (std::hash would
/// not be). splitmix64(0) is SplitMix64's first output from seed 0.
inline constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-dependent accumulate of one 64-bit value into a running digest
/// (the classic hash_combine shape).
inline void fold(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

}  // namespace pmware::cache
