// 64-bit hash combining for the keys of the solve layer's hashed sets.
#pragma once

#include <cstdint>
#include <vector>

namespace smac::util {

/// Starting value of a hash_mix chain.
inline constexpr std::uint64_t kHashSeed = 0x243f6a8885a308d3ULL;

/// SplitMix64-style avalanche: mixes `v` into the running hash `h` with
/// full 64-bit diffusion (vector hashing via std::hash would need a loop
/// anyway; this keeps the combine explicit and portable).
inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

/// Mixes a length-prefixed integer sequence into `h`.
template <typename Int>
std::uint64_t hash_ints(std::uint64_t h, const std::vector<Int>& values) {
  h = hash_mix(h, static_cast<std::uint64_t>(values.size()));
  for (const Int v : values) h = hash_mix(h, static_cast<std::uint64_t>(v));
  return h;
}

}  // namespace smac::util
