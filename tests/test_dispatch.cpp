// Data-plane battery: the fused alias-table layout against a two-array
// reference (bitwise, on pinned RNG streams), and the xoshiro256++
// generator the dispatch-policy family draws from.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "util/alias_table.hpp"
#include "util/fast_rng.hpp"

namespace {

using namespace blade;

// --- fused alias layout vs two-array reference ----------------------------

/// The pre-fusion AliasTable layout: Vose's construction, verbatim, into
/// two parallel vectors. The fused bucket table must reproduce this
/// structure (and therefore every sample) bit for bit.
struct TwoArrayAlias {
  std::vector<double> prob;
  std::vector<std::uint32_t> alias;

  explicit TwoArrayAlias(const std::vector<double>& weights) {
    const std::size_t n = weights.size();
    double total = 0.0;
    for (double w : weights) total += w;
    std::vector<double> fractions(n);
    for (std::size_t i = 0; i < n; ++i) fractions[i] = weights[i] / total;
    std::vector<double> scaled(n);
    std::size_t heaviest = 0;
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = fractions[i] * static_cast<double>(n);
      if (fractions[i] > fractions[heaviest]) heaviest = i;
    }
    prob.assign(n, 0.0);
    alias.assign(n, static_cast<std::uint32_t>(heaviest));
    std::vector<std::uint32_t> small;
    std::vector<std::uint32_t> large;
    for (std::size_t i = 0; i < n; ++i) {
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t l = large.back();
      large.pop_back();
      prob[s] = scaled[s];
      alias[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    while (!large.empty()) {
      prob[large.back()] = 1.0;
      large.pop_back();
    }
    while (!small.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      prob[s] = fractions[s] > 0.0 ? 1.0 : 0.0;
    }
  }

  [[nodiscard]] std::size_t sample(double u1, double u2) const noexcept {
    const std::size_t n = prob.size();
    std::size_t i = static_cast<std::size_t>(u1 * static_cast<double>(n));
    if (i >= n) i = n - 1;
    return u2 < prob[i] ? i : alias[i];
  }
};

std::vector<std::vector<double>> alias_weight_cases() {
  return {
      {1.0},
      {1.0, 1.0, 1.0, 1.0},
      {0.25, 0.5, 0.125, 0.125},
      {5.0, 1.0, 0.0, 3.0, 0.0},  // removed servers stay unsampled
      {1e-9, 1.0, 1e9},
      {0.3, 0.0, 0.0, 0.0, 0.7},
      {7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0, 31.0, 37.0},
  };
}

TEST(AliasFusedLayout, BucketsMatchTwoArrayReferenceBitwise) {
  for (const auto& w : alias_weight_cases()) {
    const util::AliasTable fused(w);
    const TwoArrayAlias ref(w);
    ASSERT_EQ(fused.size(), ref.prob.size());
    for (std::size_t i = 0; i < fused.size(); ++i) {
      EXPECT_EQ(fused.bucket_prob(i), ref.prob[i]) << "i=" << i;
      EXPECT_EQ(fused.bucket_alias(i), ref.alias[i]) << "i=" << i;
    }
  }
}

// The acceptance regression: a pinned RNG stream drives both layouts;
// the routed sequence must be identical sample for sample, so swapping
// in the fused table cannot have changed a single routing decision.
TEST(AliasFusedLayout, PinnedRoutedSequenceMatchesReference) {
  for (const auto& w : alias_weight_cases()) {
    const util::AliasTable fused(w);
    const TwoArrayAlias ref(w);
    sim::RngStream rng_fused(2026, 7);
    sim::RngStream rng_ref(2026, 7);
    for (int k = 0; k < 4096; ++k) {
      const double a1 = rng_fused.uniform();
      const double a2 = rng_fused.uniform();
      const double b1 = rng_ref.uniform();
      const double b2 = rng_ref.uniform();
      ASSERT_EQ(a1, b1);
      const std::size_t got = fused.sample(a1, a2);
      ASSERT_EQ(got, ref.sample(b1, b2)) << "draw " << k;
      ASSERT_GT(w[got], 0.0) << "sampled a zero-weight index";
    }
  }
}

TEST(FastRngUnit, UniformInRangeAndStreamsDiffer) {
  util::FastRng a(5, 0);
  util::FastRng b(5, 1);
  int differ = 0;
  for (int k = 0; k < 10000; ++k) {
    const double u = a.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    differ += a.next() != b.next() ? 1 : 0;
  }
  EXPECT_GT(differ, 9000);
}

}  // namespace
