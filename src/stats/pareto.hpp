// Pareto / concentration analysis of popularity distributions.
//
// Fig. 2: the CDF of the percentage of downloads as a function of normalized
// app rank — "10% of the apps account for 90% of the downloads" — plus the
// zoomed-in top-1% inset.
#pragma once

#include <span>
#include <vector>

namespace appstore::stats {

struct ShareCurvePoint {
  double rank_percent;      ///< top-x% of apps (0..100]
  double download_percent;  ///< share of total downloads held by that top-x%
};

/// Builds the cumulative download-share curve over `counts` (any order; the
/// function sorts descending internally). `points` values of rank_percent are
/// evaluated; pass e.g. {1, 2, ..., 100}.
[[nodiscard]] std::vector<ShareCurvePoint> share_curve(std::span<const double> counts,
                                                       std::span<const double> rank_percents);

/// Share of total held by the top `top_fraction` (0..1] of items.
[[nodiscard]] double top_share(std::span<const double> counts, double top_fraction);

/// top_share for each of `top_fractions`, over one descending sort of
/// `counts`; element i is bit-identical to top_share(counts, top_fractions[i]).
[[nodiscard]] std::vector<double> top_shares(std::span<const double> counts,
                                             std::span<const double> top_fractions);

/// top_shares over values already sorted descending (top_shares sorts a copy
/// and delegates here), for callers that keep the sorted order.
[[nodiscard]] std::vector<double> top_shares_sorted(std::span<const double> descending,
                                                    std::span<const double> top_fractions);

/// Lorenz curve: (population fraction, cumulative share) sorted ascending —
/// the standard inequality representation, complementary to share_curve.
struct LorenzPoint {
  double population_fraction;
  double cumulative_share;
};
[[nodiscard]] std::vector<LorenzPoint> lorenz_curve(std::span<const double> counts,
                                                    std::size_t resolution = 100);

}  // namespace appstore::stats
