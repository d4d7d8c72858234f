// Walker/Vose alias method: O(n) construction, O(1) sampling from a
// fixed discrete distribution. The runtime controller publishes one of
// these per reconvergence epoch and the dispatcher draws from it per
// task, so sampling must not scan — two uniforms, one comparison.
//
// Storage is a single interleaved bucket array (acceptance probability
// and alias index side by side, 16 bytes per bucket) rather than two
// parallel vectors: a sample touches exactly one bucket, so the fused
// layout halves the cache lines the dispatch hot path pulls per draw.
// The AliasFusedLayout tests pin the routed sequence bitwise
// against a two-array reference on seeded RNG streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/status.hpp"

namespace blade::util {

class AliasTable {
 public:
  /// @param weights  unnormalized sampling weights; every entry must be
  ///                 finite and >= 0, at least one must be > 0. Zero
  ///                 entries are legal (a removed server) and are never
  ///                 returned by sample().
  explicit AliasTable(std::span<const double> weights);

  /// Why `weights` cannot back a table, or ok: rejects empty input,
  /// NaN/Inf/negative entries (with the offending index), an all-zero
  /// vector, and more than 2^32 entries. The constructor and try_make
  /// enforce exactly this predicate, so callers that must not throw
  /// (the runtime publish path) can pre-validate.
  [[nodiscard]] static Status validate_weights(std::span<const double> weights);

  /// Non-throwing construction: the table, or validate_weights' error.
  [[nodiscard]] static Expected<AliasTable> try_make(std::span<const double> weights);

  /// One sample's working set: acceptance probability and alias target
  /// interleaved so u1's bucket pick and u2's coin resolve within a
  /// single 16-byte load.
  struct Bucket {
    double prob = 0.0;          ///< bucket acceptance probability
    std::uint32_t alias = 0;    ///< bucket alias target
    std::uint32_t pad = 0;      ///< keeps buckets 16-byte aligned
  };
  static_assert(sizeof(Bucket) == 16, "AliasTable::Bucket must stay one 16-byte slot");

  [[nodiscard]] std::size_t size() const noexcept { return buckets_.size(); }

  /// Index i with probability fractions()[i], from two independent
  /// uniforms in [0, 1): u1 picks the bucket, u2 the bucket-vs-alias
  /// coin. Deterministic in (u1, u2), so a seeded RNG stream pins the
  /// whole routing sequence.
  [[nodiscard]] std::size_t sample(double u1, double u2) const noexcept {
    const std::size_t n = buckets_.size();
    std::size_t i = static_cast<std::size_t>(u1 * static_cast<double>(n));
    if (i >= n) i = n - 1;  // guards u1 == 1.0 and rounding at the edge
    const Bucket& b = buckets_[i];
    return u2 < b.prob ? i : b.alias;
  }

  /// The normalized weights (sums to 1): the routing fractions this
  /// table realizes.
  [[nodiscard]] const std::vector<double>& fractions() const noexcept { return fractions_; }

  /// Bucket introspection for the layout regression tests (and any
  /// exporter that wants the raw alias structure).
  [[nodiscard]] double bucket_prob(std::size_t i) const { return buckets_.at(i).prob; }
  [[nodiscard]] std::uint32_t bucket_alias(std::size_t i) const { return buckets_.at(i).alias; }

 private:
  AliasTable() = default;  // used by try_make after validation
  void build(std::span<const double> weights);

  std::vector<Bucket> buckets_;  ///< fused prob/alias pairs, one per index
  std::vector<double> fractions_;
};

}  // namespace blade::util
