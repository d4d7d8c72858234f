// xoshiro256++ with SplitMix64 stream seeding: ~1 ns per draw, one
// 256-bit state per owner, no heap. Decorrelated streams come from
// seeding SplitMix64 with (seed, stream) exactly like sim::RngStream
// derives its engines, so per-thread / per-policy sequences are
// independent. Lives in util so the dispatch-policy family can use it
// without a layering cycle.
#pragma once

#include <cstdint>

namespace blade::util {

/// SplitMix64 step — the same mixing function as sim::splitmix64 (the
/// sim layer forwards here), kept in util so sub-sim layers can derive
/// decorrelated stream seeds.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

class FastRng {
 public:
  explicit FastRng(std::uint64_t seed, std::uint64_t stream = 0) noexcept {
    // Fold the stream id into the seed through SplitMix64, then iterate
    // it to fill the 256-bit state. SplitMix64 output is
    // equidistributed, so an all-zero state (the one state xoshiro
    // cannot leave) is unreachable in practice; guard anyway since it
    // is cheap and the failure is silent.
    std::uint64_t z = splitmix64(seed ^ splitmix64(stream));
    for (std::uint64_t& s : s_) {
      z = splitmix64(z);
      s = z;
    }
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

  [[nodiscard]] std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the high 53 bits of one draw.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace blade::util
