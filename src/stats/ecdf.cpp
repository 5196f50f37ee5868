#include "stats/ecdf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace shears::stats {

Ecdf::Ecdf(std::vector<double> sample) : sorted_(std::move(sample)) {
  std::sort(sorted_.begin(), sorted_.end());
}

Ecdf Ecdf::from_sorted(std::vector<double> sorted) {
  if (!std::is_sorted(sorted.begin(), sorted.end())) {
    throw std::invalid_argument("Ecdf::from_sorted: sample not sorted");
  }
  Ecdf ecdf;
  ecdf.sorted_ = std::move(sorted);
  return ecdf;
}

Ecdf Ecdf::merged(std::span<const Ecdf* const> parts) {
  std::size_t total = 0;
  for (const Ecdf* part : parts) {
    if (part != nullptr) total += part->size();
  }
  std::vector<double> out;
  out.reserve(total);
  for (const Ecdf* part : parts) {
    if (part == nullptr || part->empty()) continue;
    const std::size_t mid = out.size();
    out.insert(out.end(), part->sorted().begin(), part->sorted().end());
    std::inplace_merge(out.begin(),
                       out.begin() + static_cast<std::ptrdiff_t>(mid),
                       out.end());
  }
  Ecdf ecdf;
  ecdf.sorted_ = std::move(out);
  return ecdf;
}

void Ecdf::merge_sorted(std::vector<double> run) {
  if (!std::is_sorted(run.begin(), run.end())) {
    throw std::invalid_argument("Ecdf::merge_sorted: run not sorted");
  }
  if (run.empty()) return;
  if (sorted_.empty()) {
    sorted_ = std::move(run);
    return;
  }
  // Backward merge: fill from the end, taking the larger head each step;
  // once the run is drained the remaining prefix is already in place.
  std::size_t i = sorted_.size();
  std::size_t j = run.size();
  if (sorted_.capacity() < i + j) sorted_.reserve(i + j + (i + j) / 8);
  sorted_.resize(i + j);
  std::size_t out = sorted_.size();
  while (j != 0) {
    if (i != 0 && sorted_[i - 1] > run[j - 1]) {
      sorted_[--out] = sorted_[--i];
    } else {
      sorted_[--out] = run[--j];
    }
  }
}

double Ecdf::fraction_at_or_below(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Ecdf::fraction_below(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::lower_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double q) const noexcept {
  // NaN, not 0.0: an empty sample has no quantiles, and 0.0 is a real
  // (excellent) RTT — callers must check empty() or propagate the NaN.
  if (sorted_.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (q <= 0.0) return sorted_.front();
  if (q >= 1.0) return sorted_.back();
  const double h = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = lo + 1 < sorted_.size() ? lo + 1 : lo;
  const double frac = h - std::floor(h);
  return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

double Ecdf::min() const noexcept {
  return sorted_.empty() ? std::numeric_limits<double>::quiet_NaN()
                         : sorted_.front();
}
double Ecdf::max() const noexcept {
  return sorted_.empty() ? std::numeric_limits<double>::quiet_NaN()
                         : sorted_.back();
}

std::vector<std::pair<double, double>> Ecdf::curve(
    const std::vector<double>& points) const {
  std::vector<std::pair<double, double>> out;
  out.reserve(points.size());
  for (const double x : points) out.emplace_back(x, fraction_at_or_below(x));
  return out;
}

std::vector<std::pair<double, double>> Ecdf::curve(std::size_t n_points) const {
  std::vector<std::pair<double, double>> out;
  if (sorted_.empty() || n_points == 0) return out;
  out.reserve(n_points);
  const double lo = sorted_.front();
  const double hi = sorted_.back();
  const double step =
      n_points > 1 ? (hi - lo) / static_cast<double>(n_points - 1) : 0.0;
  for (std::size_t i = 0; i < n_points; ++i) {
    const double x = lo + step * static_cast<double>(i);
    out.emplace_back(x, fraction_at_or_below(x));
  }
  return out;
}

}  // namespace shears::stats
