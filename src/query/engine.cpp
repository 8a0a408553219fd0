#include "query/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>

#include "affinity/metric.hpp"
#include "affinity/strings.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "stats/descriptive.hpp"
#include "stats/pareto.hpp"
#include "util/format.hpp"

namespace appstore::query {

namespace {

constexpr std::string_view kKindNames[kAggregateKindCount] = {
    "top_k_downloads",
    "pareto_share",
    "category_affinity",
    "rank_download_curve",
};

void validate(const QuerySpec& spec, const QueryOptions& options) {
  switch (spec.kind) {
    case AggregateKind::kTopKDownloads:
      if (spec.k == 0 || spec.k > options.max_k) {
        throw QueryError("bad_query", util::format("query: k must be in [1, {}]",
                                                   options.max_k));
      }
      break;
    case AggregateKind::kParetoShare:
      if (spec.fractions.empty()) {
        throw QueryError("bad_query", "query: at least one fraction required");
      }
      for (const double fraction : spec.fractions) {
        if (!(fraction > 0.0) || fraction > 1.0) {
          throw QueryError("bad_query", "query: fractions must be in (0, 1]");
        }
      }
      break;
    case AggregateKind::kCategoryAffinity:
      if (spec.depths.empty()) {
        throw QueryError("bad_query", "query: at least one depth required");
      }
      for (const std::size_t depth : spec.depths) {
        if (depth == 0 || depth > options.max_depth) {
          throw QueryError("bad_query", util::format("query: depths must be in [1, {}]",
                                                     options.max_depth));
        }
      }
      if (spec.min_samples == 0) {
        throw QueryError("bad_query", "query: min_samples must be >= 1");
      }
      break;
    case AggregateKind::kRankDownloadCurve:
      if (spec.points < 2 || spec.points > options.max_points) {
        throw QueryError("bad_query", util::format("query: points must be in [2, {}]",
                                                   options.max_points));
      }
      break;
  }
}

[[nodiscard]] std::int32_t row_day(std::span<const std::int32_t> days, std::uint64_t row) {
  return days.empty() ? 0 : days[row];
}

}  // namespace

std::string_view to_string(AggregateKind kind) noexcept {
  return kKindNames[static_cast<std::size_t>(kind)];
}

AggregateKind parse_aggregate_kind(std::string_view name) {
  for (std::size_t i = 0; i < kAggregateKindCount; ++i) {
    if (name == kKindNames[i]) return static_cast<AggregateKind>(i);
  }
  throw QueryError("bad_query", util::format("query: unknown aggregate kind '{}'", name));
}

QueryEngine::QueryEngine(const market::AppStore& store, QueryOptions options,
                         obs::Registry* registry)
    : store_(&store), options_(options) {
  app_category_.reserve(store.apps().size());
  app_price_.reserve(store.apps().size());
  for (const market::App& app : store.apps()) {
    app_category_.push_back(static_cast<std::uint32_t>(app.category.index()));
    app_price_.push_back(store.average_price_dollars(app.id));
  }
  const std::vector<std::uint32_t> sizes = store.apps_per_category();
  category_sizes_.assign(sizes.begin(), sizes.end());

  if (registry != nullptr) {
    registry->describe("query_requests_total", "Queries served, by aggregate kind.");
    registry->describe("query_plan_total",
                       "Filter clauses planned, by scan strategy.");
    registry->describe("query_latency_seconds",
                       "End-to-end query engine latency, by aggregate kind.");
    requests_by_kind_.resize(kAggregateKindCount);
    latency_by_kind_.resize(kAggregateKindCount);
    for (std::size_t i = 0; i < kAggregateKindCount; ++i) {
      requests_by_kind_[i] = &registry->counter("query_requests_total", kKindNames[i]);
      latency_by_kind_[i] = &registry->histogram("query_latency_seconds", kKindNames[i]);
    }
    plan_index_scans_ = &registry->counter("query_plan_total", "index_scan");
    plan_column_scans_ = &registry->counter("query_plan_total", "column_scan");
    plan_residual_filters_ = &registry->counter("query_plan_total", "residual");
  }
}

BoundLog QueryEngine::bind(const events::FrontierSnapshot& log) const noexcept {
  BoundLog bound;
  bound.log = log;
  bound.app_category = app_category_;
  bound.app_price = app_price_;
  bound.store_name = store_->name();
  bound.user_count = store_->user_count();
  bound.category_count = static_cast<std::uint32_t>(store_->categories().size());
  return bound;
}

Expr QueryEngine::resolve(const Expr& expr) const {
  Expr out = expr;
  if (out.kind == Expr::Kind::kComparison) {
    Comparison& clause = out.comparison;
    if (clause.field == Field::kCategory && clause.is_text) {
      for (const market::Category& category : store_->categories()) {
        if (category.name == clause.text) {
          clause.number = static_cast<double>(category.id.index());
          clause.is_text = false;
          return out;
        }
      }
      throw QueryError("unknown_category",
                       util::format("query: unknown category '{}'", clause.text));
    }
    return out;
  }
  for (Expr& child : out.children) child = resolve(child);
  return out;
}

QueryResult QueryEngine::run(const QuerySpec& spec, market::Day day) const {
  validate(spec, options_);
  const auto kind_index = static_cast<std::size_t>(spec.kind);
  if (!requests_by_kind_.empty()) requests_by_kind_[kind_index]->inc();
  obs::ScopedTimer timer(latency_by_kind_.empty() ? nullptr : latency_by_kind_[kind_index]);

  // One frontier snapshot per run: the plan, the scans, and the aggregation
  // all read the same published prefix, so a concurrently ingesting crawler
  // never tears a result.
  const bool wants_comments = spec.kind == AggregateKind::kCategoryAffinity;
  const events::FrontierSnapshot log =
      wants_comments ? store_->comment_log() : store_->download_log();
  const BoundLog bound = bind(log);

  PlanOptions plan_options;
  plan_options.allow_index_scan = options_.allow_index_scan;
  plan_options.index_user_fraction = options_.index_user_fraction;
  plan_options.scan_block = options_.scan_block;
  plan_options.threads = options_.threads;

  const Plan plan = spec.filter.has_value()
                        ? plan_filter(resolve(*spec.filter), bound, plan_options)
                        : plan_all();
  if (plan_index_scans_ != nullptr) {
    plan_index_scans_->inc(plan.index_scans);
    plan_column_scans_->inc(plan.column_scans);
    plan_residual_filters_->inc(plan.residual_filters);
  }

  const RowSet rows = execute(plan, bound, plan_options);

  QueryResult result;
  result.kind = spec.kind;
  result.index_scans = plan.index_scans;
  result.column_scans = plan.column_scans;
  result.residual_filters = plan.residual_filters;
  result.rows_total = log.size();
  if (wants_comments) {
    aggregate_affinity(log, rows, spec, day, result);
  } else {
    aggregate_downloads(log, rows, spec, day, result);
  }
  return result;
}

PartialAggregate QueryEngine::run_partial(const QuerySpec& spec, market::Day day) const {
  validate(spec, options_);
  const auto kind_index = static_cast<std::size_t>(spec.kind);
  if (!requests_by_kind_.empty()) requests_by_kind_[kind_index]->inc();
  obs::ScopedTimer timer(latency_by_kind_.empty() ? nullptr : latency_by_kind_[kind_index]);

  const bool wants_comments = spec.kind == AggregateKind::kCategoryAffinity;
  const events::FrontierSnapshot log =
      wants_comments ? store_->comment_log() : store_->download_log();
  const BoundLog bound = bind(log);

  PlanOptions plan_options;
  plan_options.allow_index_scan = options_.allow_index_scan;
  plan_options.index_user_fraction = options_.index_user_fraction;
  plan_options.scan_block = options_.scan_block;
  plan_options.threads = options_.threads;

  const Plan plan = spec.filter.has_value()
                        ? plan_filter(resolve(*spec.filter), bound, plan_options)
                        : plan_all();
  if (plan_index_scans_ != nullptr) {
    plan_index_scans_->inc(plan.index_scans);
    plan_column_scans_->inc(plan.column_scans);
    plan_residual_filters_->inc(plan.residual_filters);
  }

  const RowSet rows = execute(plan, bound, plan_options);

  PartialAggregate partial;
  partial.kind = spec.kind;
  partial.day = day;
  partial.index_scans = plan.index_scans;
  partial.column_scans = plan.column_scans;
  partial.residual_filters = plan.residual_filters;
  partial.rows_total = log.size();
  if (wants_comments) {
    partial.samples = collect_affinity_samples(log, rows, spec, day, partial.rows_selected);
    partial.random_walk.reserve(spec.depths.size());
    for (const std::size_t depth : spec.depths) {
      partial.random_walk.push_back(affinity::random_walk_affinity(category_sizes_, depth));
    }
  } else {
    const std::vector<std::uint64_t> counts = count_downloads(log, rows, day);
    partial.app_count = counts.size();
    // Exactly sized: a cached fragment holds no spare capacity.
    partial.counts.reserve(static_cast<std::size_t>(
        std::count_if(counts.begin(), counts.end(), [](std::uint64_t c) { return c > 0; })));
    for (std::size_t app = 0; app < counts.size(); ++app) {
      if (counts[app] == 0) continue;
      partial.counts.emplace_back(static_cast<std::uint32_t>(app),
                                  static_cast<std::uint32_t>(counts[app]));
      partial.rows_selected += counts[app];
    }
  }
  return partial;
}

std::vector<std::uint64_t> QueryEngine::count_downloads(const events::FrontierSnapshot& log,
                                                        const RowSet& rows,
                                                        market::Day day) const {
  const std::span<const std::uint32_t> apps = log.app();
  const std::span<const std::int32_t> days = log.day();
  const std::size_t app_count = store_->apps().size();

  // Per-app download counts within the day bound. The all-rows path reduces
  // over fixed-size blocks; per-app integer adds are exact and elementwise,
  // so the counts are identical at every thread count.
  std::vector<std::uint64_t> counts;
  if (rows.all) {
    const std::uint64_t total = log.size();
    const std::uint64_t block = std::max<std::uint64_t>(1, options_.scan_block);
    const std::uint64_t blocks = total == 0 ? 0 : (total + block - 1) / block;
    par::Options par_options;
    par_options.threads = options_.threads;
    counts = par::parallel_reduce<std::vector<std::uint64_t>>(
        blocks, std::vector<std::uint64_t>(app_count, 0), par_options,
        [&](std::uint64_t b) {
          std::vector<std::uint64_t> partial(app_count, 0);
          const std::uint64_t begin = b * block;
          const std::uint64_t end = std::min(total, begin + block);
          for (std::uint64_t i = begin; i < end; ++i) {
            if (row_day(days, i) <= day) ++partial[apps[i]];
          }
          return partial;
        },
        [](std::vector<std::uint64_t> acc, const std::vector<std::uint64_t>& part) {
          for (std::size_t i = 0; i < part.size(); ++i) acc[i] += part[i];
          return acc;
        });
    if (counts.empty()) counts.assign(app_count, 0);
  } else {
    counts.assign(app_count, 0);
    for (const std::uint32_t row : rows.rows) {
      if (row_day(days, row) <= day) ++counts[apps[row]];
    }
  }
  return counts;
}

void QueryEngine::aggregate_downloads(const events::FrontierSnapshot& log,
                                      const RowSet& rows, const QuerySpec& spec,
                                      market::Day day, QueryResult& result) const {
  finalize_downloads(spec, count_downloads(log, rows, day), result);
}

void finalize_downloads(const QuerySpec& spec, std::span<const std::uint64_t> counts,
                        QueryResult& result) {
  for (const std::uint64_t count : counts) result.total_downloads += count;
  result.rows_selected = result.total_downloads;

  switch (spec.kind) {
    case AggregateKind::kTopKDownloads: {
      std::vector<TopKEntry> entries;
      for (std::size_t app = 0; app < counts.size(); ++app) {
        if (counts[app] > 0) {
          entries.push_back({static_cast<std::uint32_t>(app), counts[app]});
        }
      }
      // Downloads descending, then app id: a strict total order, so the
      // first k are the same as a full sort's.
      const std::size_t keep = std::min<std::size_t>(spec.k, entries.size());
      std::partial_sort(entries.begin(), entries.begin() + static_cast<std::ptrdiff_t>(keep),
                        entries.end(), [](const TopKEntry& a, const TopKEntry& b) {
                          if (a.downloads != b.downloads) return a.downloads > b.downloads;
                          return a.app < b.app;
                        });
      entries.resize(keep);
      result.top = std::move(entries);
      break;
    }
    case AggregateKind::kParetoShare: {
      const std::vector<double> as_double(counts.begin(), counts.end());
      const std::vector<double> shares = stats::top_shares(as_double, spec.fractions);
      for (std::size_t i = 0; i < shares.size(); ++i) {
        result.pareto.push_back({spec.fractions[i], shares[i]});
      }
      break;
    }
    case AggregateKind::kRankDownloadCurve: {
      std::vector<std::uint64_t> sorted(counts.begin(), counts.end());
      std::sort(sorted.begin(), sorted.end(), std::greater<>());
      const std::size_t n = sorted.size();
      if (n == 0) break;
      const std::size_t step = std::max<std::size_t>(1, n / spec.points);
      for (std::size_t rank = 1; rank <= n; rank += step) {
        result.curve.push_back({rank, sorted[rank - 1]});
      }
      if (result.curve.back().rank != n) result.curve.push_back({n, sorted[n - 1]});
      break;
    }
    case AggregateKind::kCategoryAffinity:
      break;  // handled by aggregate_affinity
  }
}

std::vector<AffinityUserSample> QueryEngine::collect_affinity_samples(
    const events::FrontierSnapshot& log, const RowSet& rows, const QuerySpec& spec,
    market::Day day, std::uint64_t& rows_selected) const {
  const std::span<const std::uint32_t> users = log.user();
  const std::span<const std::uint32_t> apps = log.app();
  const std::span<const std::int32_t> days = log.day();
  const std::span<const std::uint32_t> ordinals = log.ordinal();
  const std::span<const std::uint8_t> ratings = log.rating();

  // Selected rows regrouped into per-user chronological streams. Sorting by
  // (user, day, ordinal, row) reproduces exactly the CSR index order — ties
  // within (day, ordinal) break by append order, which is the row id — so
  // the strings match the offline comment_stream() pipeline bit-for-bit.
  struct Key {
    std::uint32_t user;
    std::int32_t day;
    std::uint32_t ordinal;
    std::uint32_t row;
  };
  std::vector<Key> selected;
  const auto consider = [&](std::uint64_t row) {
    if (row_day(days, row) > day) return;
    selected.push_back({users[row], row_day(days, row),
                        ordinals.empty() ? 0u : ordinals[row],
                        static_cast<std::uint32_t>(row)});
  };
  if (rows.all) {
    for (std::uint64_t row = 0; row < log.size(); ++row) consider(row);
  } else {
    for (const std::uint32_t row : rows.rows) consider(row);
  }
  rows_selected = selected.size();

  std::sort(selected.begin(), selected.end(), [](const Key& a, const Key& b) {
    return std::tie(a.user, a.day, a.ordinal, a.row) <
           std::tie(b.user, b.day, b.ordinal, b.row);
  });

  // Per-user category strings: rating-0 comments are skipped (a rating is
  // the download signal), duplicate comments on the same app are suppressed
  // keeping first occurrences — the affinity::app_string contract. The
  // resulting samples are in ascending user order (selected is sorted by
  // user first), the order finalize_affinity and merge_partials both rely
  // on for bit-identical group means.
  std::vector<AffinityUserSample> samples;
  std::vector<std::uint32_t> app_sequence;
  std::size_t begin = 0;
  while (begin < selected.size()) {
    std::size_t end = begin;
    while (end < selected.size() && selected[end].user == selected[begin].user) ++end;
    app_sequence.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t row = selected[i].row;
      if (ratings.empty() || ratings[row] != 0) app_sequence.push_back(apps[row]);
    }
    if (!app_sequence.empty()) {
      const std::vector<std::uint32_t> unique = affinity::suppress_duplicates(app_sequence);
      const std::vector<std::uint32_t> categories =
          affinity::category_string(unique, app_category_);
      AffinityUserSample sample;
      sample.user = selected[begin].user;
      sample.comments = categories.size();
      sample.values.reserve(spec.depths.size());
      for (const std::size_t depth : spec.depths) {
        const std::optional<double> value = affinity::affinity(categories, depth);
        sample.values.push_back(value.value_or(std::numeric_limits<double>::quiet_NaN()));
      }
      samples.push_back(std::move(sample));
    }
    begin = end;
  }
  return samples;
}

void QueryEngine::aggregate_affinity(const events::FrontierSnapshot& log,
                                     const RowSet& rows, const QuerySpec& spec,
                                     market::Day day, QueryResult& result) const {
  const std::vector<AffinityUserSample> samples =
      collect_affinity_samples(log, rows, spec, day, result.rows_selected);
  std::vector<double> random_walk;
  random_walk.reserve(spec.depths.size());
  for (const std::size_t depth : spec.depths) {
    random_walk.push_back(affinity::random_walk_affinity(category_sizes_, depth));
  }
  finalize_affinity(spec, samples, random_walk, result);
}

void finalize_affinity(const QuerySpec& spec, const std::vector<AffinityUserSample>& samples,
                       std::span<const double> random_walk, QueryResult& result) {
  for (std::size_t di = 0; di < spec.depths.size(); ++di) {
    AffinityDepthPoint point;
    point.depth = spec.depths[di];
    point.random_walk = di < random_walk.size() ? random_walk[di] : 0.0;
    // Group by comment count in sample order — the same (user-ascending)
    // per-group vectors affinity::affinity_by_group builds, so the means
    // sum in the same order and match bit-for-bit.
    std::map<std::uint64_t, std::vector<double>> groups;
    for (const AffinityUserSample& sample : samples) {
      const double value = di < sample.values.size()
                               ? sample.values[di]
                               : std::numeric_limits<double>::quiet_NaN();
      if (!std::isnan(value)) groups[sample.comments].push_back(value);
    }
    double weighted_sum = 0.0;
    std::size_t total_samples = 0;
    std::size_t group_count = 0;
    for (const auto& [comments, values] : groups) {
      if (values.size() < spec.min_samples) continue;
      ++group_count;
      total_samples += values.size();
      weighted_sum += stats::mean(values) * static_cast<double>(values.size());
    }
    point.groups = group_count;
    point.samples = total_samples;
    point.mean =
        total_samples > 0 ? weighted_sum / static_cast<double>(total_samples) : 0.0;
    result.affinity.push_back(point);
  }
}

}  // namespace appstore::query
