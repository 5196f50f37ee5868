// Empirical cumulative distribution functions — the workhorse of every
// figure in the paper (Figs. 5, 6, 7 are CDF plots; Fig. 4 is a banded
// quantile map).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace shears::stats {

/// ECDF over a sample of doubles. Construction sorts a copy of the
/// sample once; all queries are then O(log n). The only mutation is
/// merge_sorted(), which keeps the sample sorted.
class Ecdf {
 public:
  Ecdf() = default;

  /// Builds from an arbitrary (unsorted) sample. NaNs must not be present.
  explicit Ecdf(std::vector<double> sample);

  /// Builds from an already-sorted sample without re-sorting — the merge
  /// paths below and the serving layer's shard refresh produce sorted
  /// data by construction. Throws std::invalid_argument when the input is
  /// not nondecreasing (every query assumes it).
  [[nodiscard]] static Ecdf from_sorted(std::vector<double> sorted);

  /// Exact merge: the ECDF of the union multiset of `parts` (null entries
  /// skipped). Because the full sample is retained, shard summaries merge
  /// without approximation — unlike streaming sketches, the merged
  /// quantiles equal those of an ECDF built over the concatenated raw
  /// samples in one shot, whatever the shard split was.
  [[nodiscard]] static Ecdf merged(std::span<const Ecdf* const> parts);

  /// Folds a sorted run into the sample in O(n + m): the buffer grows
  /// and the run is merged in from the back, so old elements below the
  /// run's minimum never move. A full buffer grows to an eighth more
  /// than it needs, so a sample extended by small daily runs reallocates
  /// only every few weeks without doubling its footprint. An empty ECDF
  /// adopts the run's buffer outright. The result equals merged() over
  /// the two parts. Throws std::invalid_argument, before touching the
  /// sample, when the run is not nondecreasing.
  void merge_sorted(std::vector<double> run);

  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }

  /// F(x): fraction of samples <= x. 0 for an empty ECDF.
  [[nodiscard]] double fraction_at_or_below(double x) const noexcept;

  /// Fraction of samples strictly below x.
  [[nodiscard]] double fraction_below(double x) const noexcept;

  /// Quantile with linear interpolation between order statistics
  /// (type-7 / numpy default). q is clamped to [0, 1]. NaN when the
  /// sample is empty — an empty ECDF has no quantiles, and a sentinel
  /// 0.0 would be indistinguishable from a real 0 ms RTT; check empty()
  /// first or let the NaN propagate.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Convenience: quantile(p / 100).
  [[nodiscard]] double percentile(double p) const noexcept {
    return quantile(p / 100.0);
  }

  /// Extremes of the sample; NaN when empty (same rationale as
  /// quantile()).
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double median() const noexcept { return quantile(0.5); }

  /// The sorted sample (for plot rendering).
  [[nodiscard]] const std::vector<double>& sorted() const noexcept {
    return sorted_;
  }

  /// Structural invariant, exposed for the property harness
  /// (shears_check): the retained sample is nondecreasing — every query
  /// (binary search, interpolation) assumes it.
  [[nodiscard]] bool invariants_ok() const noexcept {
    return std::is_sorted(sorted_.begin(), sorted_.end());
  }

  /// Evaluates the CDF at each of `points`, returning (x, F(x)) pairs —
  /// the series a plotting tool consumes.
  [[nodiscard]] std::vector<std::pair<double, double>> curve(
      const std::vector<double>& points) const;

  /// Uniformly spaced n-point rendering of the CDF over [min, max].
  [[nodiscard]] std::vector<std::pair<double, double>> curve(
      std::size_t n_points) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace shears::stats
