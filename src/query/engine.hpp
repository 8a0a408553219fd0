// The online analytics query engine: validated QuerySpec in, typed
// QueryResult out.
//
// QueryEngine binds one market::AppStore at construction (precomputing the
// per-app metadata columns the planner's app-joined fields read through) and
// then answers the four aggregate kinds the paper's figures are built from:
//
//   top_k_downloads      the k most-downloaded apps under the filter
//   pareto_share         top-fraction download concentration (Fig. 2)
//   category_affinity    temporal category affinity by depth (Fig. 6)
//   rank_download_curve  downloads as a function of app rank (Fig. 8 input)
//
// Every run compiles the (optional) filter into a plan over the relevant
// columnar log — the download log for the download aggregates, the comment
// log for affinity — executes it, and aggregates the selected rows up to the
// caller's day bound. The day bound is applied at aggregation time rather
// than planned as a clause so the plan's scan counters reflect only the
// user's filter. A download aggregate whose plan is kAll or an `and` of day
// ranges and app-level clauses reads no rows: the engine answers it from a
// per-app daily download table built once per download-log frontier (see
// query/download_table.hpp). Results are a pure function of (store
// contents, spec, day): thread count and the table change wall time only.
// See docs/query.md.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "market/store.hpp"
#include "obs/registry.hpp"
#include "query/plan.hpp"

namespace appstore::query {

enum class AggregateKind : std::uint8_t {
  kTopKDownloads = 0,
  kParetoShare,
  kCategoryAffinity,
  kRankDownloadCurve,
};
constexpr std::size_t kAggregateKindCount = 4;

/// Wire names ("top_k_downloads", ...) for metrics labels and the API.
[[nodiscard]] std::string_view to_string(AggregateKind kind) noexcept;
/// Throws QueryError("bad_query") on an unknown kind name.
[[nodiscard]] AggregateKind parse_aggregate_kind(std::string_view name);

/// One validated query. Defaults reproduce the offline bench_fig* setups.
struct QuerySpec {
  AggregateKind kind = AggregateKind::kTopKDownloads;
  /// Optional predicate over the event log (see expression.hpp). Absent =
  /// every row.
  std::optional<Expr> filter;
  /// top_k_downloads: number of entries returned.
  std::size_t k = 10;
  /// pareto_share: top fractions evaluated, each in (0, 1].
  std::vector<double> fractions = {0.01, 0.05, 0.10, 0.20, 0.50};
  /// category_affinity: depths evaluated (>= 1) and the minimum users per
  /// comment-count group (matches affinity::affinity_by_group).
  std::vector<std::size_t> depths = {1, 2, 3};
  std::size_t min_samples = 10;
  /// rank_download_curve: number of sampled ranks returned.
  std::size_t points = 100;
};

/// Engine-wide limits and planner knobs; the service exposes this as part of
/// ServicePolicy (the PR-1 Options-struct convention).
struct QueryOptions {
  std::size_t threads = 0;           ///< column-scan workers; 0 = hardware
  std::uint64_t scan_block = 16384;  ///< rows per scan block (see PlanOptions)
  bool allow_index_scan = true;
  double index_user_fraction = 1.0 / 64.0;
  std::size_t max_k = 1000;       ///< upper bound on QuerySpec::k
  std::size_t max_points = 2000;  ///< upper bound on QuerySpec::points
  std::size_t max_depth = 8;      ///< upper bound on affinity depths
};

struct TopKEntry {
  std::uint32_t app = 0;
  std::uint64_t downloads = 0;
};

struct ParetoPoint {
  double fraction = 0.0;  ///< top fraction of apps
  double share = 0.0;     ///< their share of all downloads, 0..1
};

struct AffinityDepthPoint {
  std::size_t depth = 0;
  double mean = 0.0;         ///< sample-weighted mean over comment groups
  double random_walk = 0.0;  ///< store-wide random-wandering baseline
  std::size_t groups = 0;    ///< comment groups with >= min_samples users
  std::size_t samples = 0;   ///< users across those groups
};

struct CurvePoint {
  std::uint64_t rank = 0;  ///< 1-based rank by downloads, descending
  std::uint64_t downloads = 0;
};

/// One user's affinity contribution inside a PartialAggregate. Samples are
/// emitted in ascending user order; a user appears in at most one shard's
/// partial (users are ring-sharded), so merged streams concatenate into the
/// exact global user order the single-store engine iterates.
struct AffinityUserSample {
  std::uint32_t user = 0;
  /// Category-string length ("number of comments" — the Fig. 6 group key).
  std::uint64_t comments = 0;
  /// Per-depth affinity values aligned with QuerySpec::depths; NaN when the
  /// string is shorter than depth+1 (the metric is undefined there).
  std::vector<double> values;
};

/// A shard's mergeable fragment of a query answer (see query/federate.hpp).
/// Download kinds carry sparse per-app counts (plus the dense vector length,
/// which pareto shares and rank curves depend on); affinity carries per-user
/// samples plus the store-wide random-walk baseline (identical on every
/// shard, since entity state is replicated).
struct PartialAggregate {
  AggregateKind kind = AggregateKind::kTopKDownloads;
  /// The day bound the fragment was aggregated up to.
  market::Day day = 0;

  std::uint32_t index_scans = 0;
  std::uint32_t column_scans = 0;
  std::uint32_t residual_filters = 0;
  std::uint32_t table_lookups = 0;
  std::uint64_t rows_total = 0;
  std::uint64_t rows_selected = 0;

  /// Download kinds: dense per-app vector length and its non-zero entries,
  /// sized exactly. A count fits 32 bits: it cannot exceed the shard's row
  /// count, and rows are 32-bit ids (RowSet::rows).
  std::uint64_t app_count = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> counts;

  /// Affinity: per-depth random-walk baseline (aligned with spec.depths) and
  /// the per-user samples in ascending user order.
  std::vector<double> random_walk;
  std::vector<AffinityUserSample> samples;
};

struct QueryResult {
  AggregateKind kind = AggregateKind::kTopKDownloads;

  // Plan + selection statistics (also exported as query_plan_total).
  std::uint32_t index_scans = 0;
  std::uint32_t column_scans = 0;
  std::uint32_t residual_filters = 0;
  std::uint32_t table_lookups = 0;  ///< filter leaves the download table answered
  std::uint64_t rows_total = 0;     ///< rows in the scanned log
  std::uint64_t rows_selected = 0;  ///< rows passing filter + day bound

  // Kind-specific payload (only the matching vector is populated).
  std::uint64_t total_downloads = 0;  ///< download kinds: selected downloads
  std::vector<TopKEntry> top;
  std::vector<ParetoPoint> pareto;
  std::vector<AffinityDepthPoint> affinity;
  std::vector<CurvePoint> curve;
};

/// Shared finalization: dense day-bounded per-app counts -> the kind-specific
/// payload (top-k, pareto shares, rank curve) plus total_downloads and
/// rows_selected. Used by QueryEngine::run and by merge_partials, so a merged
/// answer is produced by literally the same code as a single-store answer.
void finalize_downloads(const QuerySpec& spec, std::span<const std::uint64_t> counts,
                        QueryResult& result);

/// Shared finalization for category_affinity: samples (ascending user order)
/// -> per-depth grouped means, matching affinity::affinity_by_group followed
/// by the sample-weighted mean. `random_walk` is aligned with spec.depths.
void finalize_affinity(const QuerySpec& spec, const std::vector<AffinityUserSample>& samples,
                       std::span<const double> random_walk, QueryResult& result);

class DownloadTable;

class QueryEngine {
 public:
  /// Binds `store` (must outlive the engine). When `registry` is non-null
  /// the engine registers query_requests_total{kind},
  /// query_plan_total{index_scan,column_scan,residual,table_lookup},
  /// query_rows_scanned_total and query_latency_seconds{kind}.
  explicit QueryEngine(const market::AppStore& store, QueryOptions options = {},
                       obs::Registry* registry = nullptr);

  /// Runs one validated query against events up to and including `day`.
  /// Throws QueryError on an invalid spec ("bad_query"), filter
  /// ("bad_filter") or unknown category name ("unknown_category").
  [[nodiscard]] QueryResult run(const QuerySpec& spec, market::Day day) const;

  /// Runs the same query but stops before finalization, returning the
  /// mergeable fragment a federation gateway recombines across shards
  /// (query::merge_partials). run() is exactly run_partial() of the whole
  /// store finalized alone — the invariant the cross-shard parity suite
  /// pins. Same error contract as run().
  [[nodiscard]] PartialAggregate run_partial(const QuerySpec& spec, market::Day day) const;

  [[nodiscard]] const QueryOptions& options() const noexcept { return options_; }
  [[nodiscard]] const market::AppStore& store() const noexcept { return *store_; }

 private:
  /// What run() and run_partial() share: plan statistics and the selection
  /// aggregated up to the day bound, before finalization.
  struct Selection;

  [[nodiscard]] BoundLog bind(const events::FrontierSnapshot& log) const noexcept;
  /// Resolves category-by-name clauses to numeric ids (case-sensitive);
  /// throws QueryError("unknown_category") for names the store lacks.
  [[nodiscard]] Expr resolve(const Expr& expr) const;

  /// Plans the spec over one frontier snapshot and answers it from the
  /// download table when the plan allows, else by executing the plan.
  [[nodiscard]] Selection select(const QuerySpec& spec, market::Day day) const;
  /// The table for `log`'s frontier, built on first use; null when the
  /// frontier fails the table's size rule or is older than the table held.
  [[nodiscard]] std::shared_ptr<const DownloadTable> download_table(
      const events::FrontierSnapshot& log) const;

  /// Per-app download counts (dense, day-bounded) of the selected rows.
  [[nodiscard]] std::vector<std::uint64_t> count_downloads(
      const events::FrontierSnapshot& log, const RowSet& rows, market::Day day) const;
  /// Per-user affinity samples in ascending user order; sets rows_selected.
  [[nodiscard]] std::vector<AffinityUserSample> collect_affinity_samples(
      const events::FrontierSnapshot& log, const RowSet& rows, const QuerySpec& spec,
      market::Day day, std::uint64_t& rows_selected) const;
  /// The store-wide random-walk baseline at each depth.
  [[nodiscard]] std::vector<double> random_walk(std::span<const std::size_t> depths) const;

  const market::AppStore* store_;
  QueryOptions options_;

  // Per-app metadata columns (indexed by app id) the app-joined filter
  // fields read through, plus the store-wide random-walk input.
  std::vector<std::uint32_t> app_category_;
  std::vector<double> app_price_;
  std::vector<std::uint64_t> category_sizes_;

  // The download table of the newest download-log frontier an eligible
  // query met. Built under the mutex, so callers at that frontier wait for
  // the one build and then share it.
  mutable std::mutex table_mutex_;
  mutable std::shared_ptr<const DownloadTable> table_;

  // Metric families; null when no registry was supplied.
  std::vector<obs::Counter*> requests_by_kind_;
  std::vector<obs::Histogram*> latency_by_kind_;
  obs::Counter* plan_index_scans_ = nullptr;
  obs::Counter* plan_column_scans_ = nullptr;
  obs::Counter* plan_residual_filters_ = nullptr;
  obs::Counter* plan_table_lookups_ = nullptr;
  obs::Counter* rows_scanned_ = nullptr;
};

}  // namespace appstore::query
