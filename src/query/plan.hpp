// Predicate planner + executor over one columnar events::EventLog.
//
// A bound filter expression compiles into a plan tree whose leaves are index
// filters in the netplay query_planner sense: each comparison clause is
// assigned a scan strategy —
//
//   kIndexScan   user-selective clauses (user == K, narrow user ranges) walk
//                only the CSR per-user slices of the log's index: O(rows of
//                the selected users) instead of O(all rows);
//   kColumnScan  every other clause scans its column(s) in fixed-size row
//                blocks through par::parallel_reduce; each block runs one
//                loop of the clause compiled for its (field, operator), and
//                block results are concatenated in ascending block order, so
//                the selected row set is bit-identical at every thread count;
//   kResidual    inside an `and`, every column scan but one source is
//                demoted to a residual filter that only tests the rows the
//                other children already selected (the source is an index
//                scan or sub-tree if there is one, else the first equality
//                column scan, else the first column scan);
//   kAll/kNone   clauses that are constant for this store (store == name,
//                tautological ranges) fold away at plan time.
//
// Clause results are sorted row-id sets combined with sorted-set operations
// (intersection for `and`, union for `or`). The planner also simplifies
// around kAll/kNone so a tautological clause costs nothing at execution.
//
// A fourth strategy reads no rows at all: table_filter() recognizes the
// plans a per-app daily download table answers (an `and` of day ranges and
// app-level clauses), and select_apps() evaluates their app-level clauses
// once per app instead of once per row (see query/download_table.hpp).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "events/live_log.hpp"
#include "query/expression.hpp"

namespace appstore::query {

/// The per-log binding context: a frontier snapshot of the event log plus
/// the app-metadata columns the app-joined fields (category, price) read
/// through. The snapshot pins one consistent prefix for the whole plan —
/// planning, index scans, and every column-scan block read the same rows
/// even while writers keep appending. Spans must outlive plan execution.
struct BoundLog {
  events::FrontierSnapshot log;
  /// Per-app metadata, indexed by app id (category id; list price, dollars).
  std::span<const std::uint32_t> app_category;
  std::span<const double> app_price;
  std::string_view store_name;
  std::uint32_t user_count = 0;
  std::uint32_t category_count = 0;
};

struct PlanOptions {
  /// Permit CSR index scans (requires the log's per-user index to be built;
  /// the planner falls back to column scans when it is not).
  bool allow_index_scan = true;
  /// A user-range clause takes an index scan only when it selects at most
  /// max(1, user_count * index_user_fraction) users — wider ranges touch so
  /// much of the index that a flat column scan wins.
  double index_user_fraction = 1.0 / 64.0;
  /// Rows per scan block. Block boundaries are a pure function of this value
  /// (never of the thread count), which is what keeps the selected row set
  /// thread-count-invariant.
  std::uint64_t scan_block = 16384;
  /// Worker threads for column scans; 0 = hardware concurrency.
  std::size_t threads = 0;
};

enum class NodeKind : std::uint8_t {
  kIndexScan,
  kColumnScan,
  kResidual,
  kAll,
  kNone,
  kAnd,
  kOr,
};

struct PlanNode {
  NodeKind kind = NodeKind::kAll;
  Comparison clause;                     ///< leaf scans
  std::uint32_t user_lo = 0;             ///< index scan: inclusive user range
  std::uint32_t user_hi = 0;
  std::vector<PlanNode> children;        ///< kAnd / kOr
};

struct Plan {
  PlanNode root;
  std::uint32_t index_scans = 0;      ///< leaves served by the CSR index
  std::uint32_t column_scans = 0;     ///< leaves served by full column scans
  std::uint32_t residual_filters = 0; ///< leaves tested against candidates only
};

/// The selected rows of a log: either literally every row (`all`, nothing
/// materialized) or a sorted ascending row-id vector.
struct RowSet {
  bool all = false;
  std::vector<std::uint32_t> rows;
  /// Rows the execution read: every row a column scan tested, every
  /// candidate a residual filter tested, every row an index scan emitted.
  std::uint64_t scanned = 0;

  [[nodiscard]] std::uint64_t count(std::uint64_t total) const noexcept {
    return all ? total : rows.size();
  }
};

/// Compiles a bound expression into a plan. Resolves category names to ids
/// against `bound` (throws QueryError("unknown_category") when a named
/// category does not exist) and folds store comparisons into kAll/kNone.
[[nodiscard]] Plan plan_filter(const Expr& expr, const BoundLog& bound,
                               const PlanOptions& options);

/// Trivial plan selecting every row (no filter supplied).
[[nodiscard]] Plan plan_all();

/// Executes a plan. The result is a pure function of (plan, log contents) —
/// options.threads changes wall time only.
[[nodiscard]] RowSet execute(const Plan& plan, const BoundLog& bound,
                             const PlanOptions& options);

/// A plan in the form a per-app daily download table answers: a lone
/// column-scan leaf, or an `and` of column-scan and residual leaves, where
/// every leaf tests the day with <, <=, >, >= or ==, or a field of the row's
/// app (category, price, app). The day leaves intersect into one inclusive
/// integer interval; the app leaves are kept for select_apps.
struct TableFilter {
  std::int64_t day_lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t day_hi = std::numeric_limits<std::int64_t>::max();
  std::vector<Comparison> app_clauses;
  std::uint32_t leaves = 0;  ///< day and app leaves the table answers
};

/// The table form of `plan`: an empty filter for kAll, nullopt for any plan
/// that must read rows (index scans, `or`, nested sub-trees, `day != D`,
/// user clauses, kNone).
[[nodiscard]] std::optional<TableFilter> table_filter(const Plan& plan);

/// The ids in [0, app_count) of the apps that pass every clause, ascending.
/// Each clause is an app-level one (category, price, app) and is tested with
/// the same comparison a column scan makes for each row of that app.
[[nodiscard]] std::vector<std::uint32_t> select_apps(std::span<const Comparison> clauses,
                                                     const BoundLog& bound,
                                                     std::size_t app_count);

/// Sorted-set combination helpers (exposed for tests).
[[nodiscard]] std::vector<std::uint32_t> intersect_sorted(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);
[[nodiscard]] std::vector<std::uint32_t> union_sorted(const std::vector<std::uint32_t>& a,
                                                      const std::vector<std::uint32_t>& b);

}  // namespace appstore::query
