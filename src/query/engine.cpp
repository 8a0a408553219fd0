#include "query/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "affinity/metric.hpp"
#include "affinity/strings.hpp"
#include "obs/trace.hpp"
#include "query/download_table.hpp"
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

/// The counts sorted descending by an LSD radix sort over 8-bit digits.
/// Zeros sort last, so only the non-zero counts are sorted — a selection of
/// one user touches a hundred apps out of thousands — and the zeros the
/// compaction leaves behind them fill the tail. One pass builds every
/// digit's histogram; a digit on which all counts agree moves nothing and is
/// skipped, so download counts take two or three passes.
[[nodiscard]] std::vector<std::uint64_t> sorted_descending(
    std::span<const std::uint64_t> counts) {
  std::vector<std::uint64_t> sorted(counts.size());
  std::size_t n = 0;
  for (const std::uint64_t count : counts) {
    sorted[n] = count;
    n += count != 0 ? 1 : 0;
  }
  constexpr std::size_t kDigits = sizeof(std::uint64_t);
  std::array<std::array<std::size_t, 256>, kDigits> histograms{};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < kDigits; ++d) ++histograms[d][(sorted[i] >> (8 * d)) & 0xff];
  }
  std::vector<std::uint64_t> scratch(n);
  std::span<std::uint64_t> from(sorted.data(), n);
  std::span<std::uint64_t> to(scratch);
  for (std::size_t d = 0; d < kDigits; ++d) {
    std::array<std::size_t, 256>& offsets = histograms[d];
    if (std::find(offsets.begin(), offsets.end(), n) != offsets.end()) continue;
    // Buckets laid out from the highest digit down; each pass is stable, so
    // the order after the last pass is descending over all digits.
    std::size_t offset = 0;
    for (std::size_t bucket = offsets.size(); bucket-- > 0;) {
      offset += std::exchange(offsets[bucket], offset);
    }
    for (const std::uint64_t count : from) to[offsets[(count >> (8 * d)) & 0xff]++] = count;
    std::swap(from, to);
  }
  if (from.data() != sorted.data()) std::copy(from.begin(), from.end(), sorted.begin());
  return sorted;
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
    registry->describe("query_rows_scanned_total",
                       "Event rows read by scans, residual filters, index scans and "
                       "download-table builds.");
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
    plan_table_lookups_ = &registry->counter("query_plan_total", "table_lookup");
    rows_scanned_ = &registry->counter("query_rows_scanned_total");
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

struct QueryEngine::Selection {
  std::uint32_t index_scans = 0;
  std::uint32_t column_scans = 0;
  std::uint32_t residual_filters = 0;
  std::uint32_t table_lookups = 0;
  std::uint64_t rows_total = 0;
  std::vector<std::uint64_t> counts;        ///< download kinds: dense, day-bounded
  std::vector<AffinityUserSample> samples;  ///< category_affinity
  std::uint64_t rows_selected = 0;          ///< category_affinity
};

QueryResult QueryEngine::run(const QuerySpec& spec, market::Day day) const {
  validate(spec, options_);
  const auto kind_index = static_cast<std::size_t>(spec.kind);
  if (!requests_by_kind_.empty()) requests_by_kind_[kind_index]->inc();
  obs::ScopedTimer timer(latency_by_kind_.empty() ? nullptr : latency_by_kind_[kind_index]);

  const Selection selection = select(spec, day);
  QueryResult result;
  result.kind = spec.kind;
  result.index_scans = selection.index_scans;
  result.column_scans = selection.column_scans;
  result.residual_filters = selection.residual_filters;
  result.table_lookups = selection.table_lookups;
  result.rows_total = selection.rows_total;
  if (spec.kind == AggregateKind::kCategoryAffinity) {
    result.rows_selected = selection.rows_selected;
    finalize_affinity(spec, selection.samples, random_walk(spec.depths), result);
  } else {
    finalize_downloads(spec, selection.counts, result);
  }
  return result;
}

PartialAggregate QueryEngine::run_partial(const QuerySpec& spec, market::Day day) const {
  validate(spec, options_);
  const auto kind_index = static_cast<std::size_t>(spec.kind);
  if (!requests_by_kind_.empty()) requests_by_kind_[kind_index]->inc();
  obs::ScopedTimer timer(latency_by_kind_.empty() ? nullptr : latency_by_kind_[kind_index]);

  Selection selection = select(spec, day);
  PartialAggregate partial;
  partial.kind = spec.kind;
  partial.day = day;
  partial.index_scans = selection.index_scans;
  partial.column_scans = selection.column_scans;
  partial.residual_filters = selection.residual_filters;
  partial.table_lookups = selection.table_lookups;
  partial.rows_total = selection.rows_total;
  if (spec.kind == AggregateKind::kCategoryAffinity) {
    partial.rows_selected = selection.rows_selected;
    partial.samples = std::move(selection.samples);
    partial.random_walk = random_walk(spec.depths);
    return partial;
  }
  const std::vector<std::uint64_t>& counts = selection.counts;
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
  return partial;
}

QueryEngine::Selection QueryEngine::select(const QuerySpec& spec, market::Day day) const {
  // One frontier snapshot per query: the plan, the scans or the table, and
  // the aggregation all read the same published prefix, so a concurrently
  // ingesting crawler never tears a result.
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

  Selection selection;
  selection.rows_total = log.size();
  std::uint64_t scanned = 0;
  const std::optional<TableFilter> filter =
      wants_comments ? std::nullopt : table_filter(plan);
  const std::shared_ptr<const DownloadTable> table =
      filter.has_value() ? download_table(log) : nullptr;
  if (table != nullptr) {
    // Every leaf is a day range or a field of the app: the downloads of each
    // passing app on the allowed days, read from the table without a row.
    const std::size_t app_count = store_->apps().size();
    selection.table_lookups = filter->leaves;
    selection.counts.assign(app_count, 0);
    table->count(filter->day_lo, std::min<std::int64_t>(filter->day_hi, day),
                 select_apps(filter->app_clauses, bound, app_count), selection.counts);
  } else {
    selection.index_scans = plan.index_scans;
    selection.column_scans = plan.column_scans;
    selection.residual_filters = plan.residual_filters;
    const RowSet rows = execute(plan, bound, plan_options);
    scanned = rows.scanned;
    if (wants_comments) {
      selection.samples =
          collect_affinity_samples(log, rows, spec, day, selection.rows_selected);
    } else {
      selection.counts = count_downloads(log, rows, day);
    }
  }
  if (plan_index_scans_ != nullptr) {
    plan_index_scans_->inc(selection.index_scans);
    plan_column_scans_->inc(selection.column_scans);
    plan_residual_filters_->inc(selection.residual_filters);
    plan_table_lookups_->inc(selection.table_lookups);
    rows_scanned_->inc(scanned);
  }
  return selection;
}

std::shared_ptr<const DownloadTable> QueryEngine::download_table(
    const events::FrontierSnapshot& log) const {
  const std::lock_guard lock(table_mutex_);
  // A caller holding an older snapshot scans rather than replace the newer
  // table; one at the held frontier reuses it (or its refusal).
  if (table_ != nullptr && table_->newer_than(log)) return nullptr;
  if (table_ == nullptr || !table_->counted(log)) {
    table_ = DownloadTable::build(log, store_->apps().size());
    if (rows_scanned_ != nullptr && table_->fits()) rows_scanned_->inc(log.size());
  }
  return table_->fits() ? table_ : nullptr;
}

std::vector<std::uint64_t> QueryEngine::count_downloads(const events::FrontierSnapshot& log,
                                                        const RowSet& rows,
                                                        market::Day day) const {
  const std::span<const std::uint32_t> apps = log.app();
  const std::span<const std::int32_t> days = log.day();
  std::vector<std::uint64_t> counts(store_->apps().size(), 0);
  const auto count = [&](std::uint64_t row) {
    if (row_day(days, row) <= day) ++counts[apps[row]];
  };
  if (rows.all) {
    for (std::uint64_t row = 0; row < log.size(); ++row) count(row);
  } else {
    for (const std::uint32_t row : rows.rows) count(row);
  }
  return counts;
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
      // u64 -> double is monotone, so the converted descending counts are
      // the descending doubles stats::top_shares would sort, and the prefix
      // sums add in the same order: the shares are bit-identical.
      const std::vector<std::uint64_t> sorted = sorted_descending(counts);
      const std::vector<double> as_double(sorted.begin(), sorted.end());
      const std::vector<double> shares = stats::top_shares_sorted(as_double, spec.fractions);
      for (std::size_t i = 0; i < shares.size(); ++i) {
        result.pareto.push_back({spec.fractions[i], shares[i]});
      }
      break;
    }
    case AggregateKind::kRankDownloadCurve: {
      const std::vector<std::uint64_t> sorted = sorted_descending(counts);
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
      break;  // finalized by finalize_affinity
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

std::vector<double> QueryEngine::random_walk(std::span<const std::size_t> depths) const {
  std::vector<double> baseline;
  baseline.reserve(depths.size());
  for (const std::size_t depth : depths) {
    baseline.push_back(affinity::random_walk_affinity(category_sizes_, depth));
  }
  return baseline;
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
