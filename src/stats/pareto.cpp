#include "stats/pareto.hpp"

#include <algorithm>
#include <cmath>

namespace appstore::stats {

namespace {

/// Prefix sums of values sorted descending; shared by share_curve and the
/// top shares.
struct Prefix {
  std::vector<double> cumulative;  // cumulative[i] = sum of top i+1 values
  double total = 0.0;
};

Prefix build_prefix(std::span<const double> descending) {
  Prefix p;
  p.cumulative.resize(descending.size());
  double run = 0.0;
  for (std::size_t i = 0; i < descending.size(); ++i) {
    run += descending[i];
    p.cumulative[i] = run;
  }
  p.total = run;
  return p;
}

std::vector<double> sorted_descending(std::span<const double> counts) {
  std::vector<double> sorted(counts.begin(), counts.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  return sorted;
}

}  // namespace

std::vector<ShareCurvePoint> share_curve(std::span<const double> counts,
                                         std::span<const double> rank_percents) {
  const Prefix p = build_prefix(sorted_descending(counts));
  std::vector<ShareCurvePoint> curve;
  curve.reserve(rank_percents.size());
  for (const double percent : rank_percents) {
    ShareCurvePoint point{percent, 0.0};
    if (!p.cumulative.empty() && p.total > 0.0 && percent > 0.0) {
      auto k = static_cast<std::size_t>(
          std::ceil(percent / 100.0 * static_cast<double>(p.cumulative.size())));
      k = std::clamp<std::size_t>(k, 1, p.cumulative.size());
      point.download_percent = 100.0 * p.cumulative[k - 1] / p.total;
    }
    curve.push_back(point);
  }
  return curve;
}

double top_share(std::span<const double> counts, double top_fraction) {
  return top_shares(counts, {&top_fraction, 1}).front();
}

std::vector<double> top_shares(std::span<const double> counts,
                               std::span<const double> top_fractions) {
  return top_shares_sorted(sorted_descending(counts), top_fractions);
}

std::vector<double> top_shares_sorted(std::span<const double> descending,
                                      std::span<const double> top_fractions) {
  const Prefix p = build_prefix(descending);
  std::vector<double> shares;
  shares.reserve(top_fractions.size());
  for (const double fraction : top_fractions) {
    if (p.cumulative.empty() || p.total <= 0.0 || fraction <= 0.0) {
      shares.push_back(0.0);
      continue;
    }
    auto k = static_cast<std::size_t>(
        std::ceil(fraction * static_cast<double>(p.cumulative.size())));
    k = std::clamp<std::size_t>(k, 1, p.cumulative.size());
    shares.push_back(p.cumulative[k - 1] / p.total);
  }
  return shares;
}

std::vector<LorenzPoint> lorenz_curve(std::span<const double> counts, std::size_t resolution) {
  std::vector<double> ascending(counts.begin(), counts.end());
  std::sort(ascending.begin(), ascending.end());
  double total = 0.0;
  for (const double v : ascending) total += v;

  std::vector<LorenzPoint> curve;
  curve.reserve(resolution + 1);
  curve.push_back(LorenzPoint{0.0, 0.0});
  if (ascending.empty() || total <= 0.0) return curve;

  double run = 0.0;
  std::size_t consumed = 0;
  for (std::size_t step = 1; step <= resolution; ++step) {
    const auto target = static_cast<std::size_t>(
        std::round(static_cast<double>(step) / static_cast<double>(resolution) *
                   static_cast<double>(ascending.size())));
    while (consumed < target && consumed < ascending.size()) {
      run += ascending[consumed++];
    }
    curve.push_back(LorenzPoint{static_cast<double>(consumed) /
                                    static_cast<double>(ascending.size()),
                                run / total});
  }
  return curve;
}

}  // namespace appstore::stats
