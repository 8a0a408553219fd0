#include "query/federate.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/format.hpp"

namespace appstore::query {

namespace {

[[nodiscard]] std::optional<std::uint32_t> user_equals(const Expr& expr) {
  if (expr.kind != Expr::Kind::kComparison) return std::nullopt;
  const Comparison& clause = expr.comparison;
  if (clause.field != Field::kUser || clause.op != CompareOp::kEq || clause.is_text) {
    return std::nullopt;
  }
  const double value = clause.number;
  if (!(value >= 0.0) || value != std::floor(value) || value > 4294967295.0) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

QueryResult merge_partials(const QuerySpec& spec,
                           std::span<const PartialAggregate* const> partials) {
  if (partials.empty()) {
    throw QueryError("merge_mismatch", "merge: no shard partials to combine");
  }
  QueryResult result;
  result.kind = spec.kind;
  for (const PartialAggregate* partial : partials) {
    if (partial->kind != spec.kind) {
      throw QueryError("merge_mismatch",
                       util::format("merge: partial kind '{}' does not match query '{}'",
                                    to_string(partial->kind), to_string(spec.kind)));
    }
    if (partial->day != partials.front()->day) {
      throw QueryError("merge_mismatch",
                       util::format("merge: partials aggregated up to days {} and {}",
                                    partials.front()->day, partial->day));
    }
    result.index_scans += partial->index_scans;
    result.column_scans += partial->column_scans;
    result.residual_filters += partial->residual_filters;
    result.rows_total += partial->rows_total;
  }

  if (spec.kind == AggregateKind::kCategoryAffinity) {
    for (const PartialAggregate* partial : partials) {
      result.rows_selected += partial->rows_selected;
    }
    std::vector<AffinityUserSample> samples;
    for (const PartialAggregate* partial : partials) {
      samples.insert(samples.end(), partial->samples.begin(), partial->samples.end());
    }
    // Users are sharded, so every user appears in exactly one partial and
    // sorting by user id reconstructs the global iteration order of a
    // single-store run (each shard already emits its samples sorted).
    std::sort(samples.begin(), samples.end(),
              [](const AffinityUserSample& a, const AffinityUserSample& b) {
                return a.user < b.user;
              });
    finalize_affinity(spec, samples, partials.front()->random_walk, result);
    return result;
  }

  const std::uint64_t app_count = partials.front()->app_count;
  for (const PartialAggregate* partial : partials) {
    if (partial->app_count != app_count) {
      throw QueryError("merge_mismatch",
                       util::format("merge: shard app universes differ ({} vs {})",
                                    partial->app_count, app_count));
    }
  }
  std::vector<std::uint64_t> counts(app_count, 0);
  for (const PartialAggregate* partial : partials) {
    for (const auto& [app, count] : partial->counts) {
      if (app >= app_count) {
        throw QueryError("merge_mismatch",
                         util::format("merge: app {} outside universe of {}", app, app_count));
      }
      counts[app] += count;
    }
  }
  finalize_downloads(spec, counts, result);
  return result;
}

std::optional<std::uint32_t> single_user_route(const QuerySpec& spec) {
  if (!spec.filter.has_value()) return std::nullopt;
  const Expr& expr = *spec.filter;
  if (const auto user = user_equals(expr); user.has_value()) return user;
  if (expr.kind == Expr::Kind::kAnd) {
    for (const Expr& child : expr.children) {
      if (const auto user = user_equals(child); user.has_value()) return user;
    }
  }
  return std::nullopt;
}

}  // namespace appstore::query
