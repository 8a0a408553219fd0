#include "query/plan.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>

#include "par/parallel.hpp"
#include "util/format.hpp"

namespace appstore::query {

namespace {

/// Stores every row id at the output cursor and advances the cursor only on
/// a match, so the loop carries no per-row branch. `out` may alias the rows
/// `row_at` reads: the cursor never passes the read position.
template <typename RowAt, typename ValueAt, typename Op>
[[nodiscard]] std::size_t keep_matches(std::size_t count, RowAt row_at, ValueAt value_at,
                                       Op op, double number, std::uint32_t* out) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t row = row_at(i);
    out[kept] = row;
    kept += op(value_at(row), number) ? 1 : 0;
  }
  return kept;
}

template <typename RowAt, typename ValueAt>
[[nodiscard]] std::size_t keep_matches(CompareOp op, std::size_t count, RowAt row_at,
                                       ValueAt value_at, double number, std::uint32_t* out) {
  switch (op) {
    case CompareOp::kEq:
      return keep_matches(count, row_at, value_at, std::equal_to<double>{}, number, out);
    case CompareOp::kNe:
      return keep_matches(count, row_at, value_at, std::not_equal_to<double>{}, number, out);
    case CompareOp::kLt:
      return keep_matches(count, row_at, value_at, std::less<double>{}, number, out);
    case CompareOp::kLe:
      return keep_matches(count, row_at, value_at, std::less_equal<double>{}, number, out);
    case CompareOp::kGt:
      return keep_matches(count, row_at, value_at, std::greater<double>{}, number, out);
    case CompareOp::kGe:
      return keep_matches(count, row_at, value_at, std::greater_equal<double>{}, number, out);
  }
  return 0;
}

/// One comparison clause compiled against the bound columns. Each call
/// dispatches on (field, operator) once, then one tight loop evaluates
/// `static_cast<double>(value) <op> clause.number` for every row it is
/// given. App-joined fields (category, price) read the metadata spans
/// through the row's app id; a disabled day column reads as 0 (the Event
/// default); store clauses are folded at plan time and select nothing here.
class CompiledClause {
 public:
  CompiledClause(const Comparison& clause, const BoundLog& bound)
      : clause_(clause),
        user_(bound.log.user().data()),
        app_(bound.log.app().data()),
        day_(bound.log.day().data()),
        app_category_(bound.app_category.data()),
        app_price_(bound.app_price.data()) {}

  /// Writes the matching rows of [begin, end), ascending, to `out` (room for
  /// end - begin ids); returns how many matched.
  [[nodiscard]] std::size_t select_range(std::uint64_t begin, std::uint64_t end,
                                         std::uint32_t* out) const {
    return select(
        static_cast<std::size_t>(end - begin),
        [begin](std::size_t i) { return static_cast<std::uint32_t>(begin + i); }, out);
  }

  /// Keeps the matching ids of `rows`, in order, at the front of `out`
  /// (which may be rows.data()); returns how many matched.
  [[nodiscard]] std::size_t select_rows(std::span<const std::uint32_t> rows,
                                        std::uint32_t* out) const {
    const std::uint32_t* ids = rows.data();
    return select(rows.size(), [ids](std::size_t i) { return ids[i]; }, out);
  }

  /// Keeps the ids of `apps` whose own category, price or id matches, in
  /// order, at the front of `out` (which may be apps.data()); returns how
  /// many matched. Fields of the row rather than the app select nothing.
  [[nodiscard]] std::size_t select_apps(std::span<const std::uint32_t> apps,
                                        std::uint32_t* out) const {
    const std::uint32_t* ids = apps.data();
    const auto run = [&](auto value_at) {
      return keep_matches(
          clause_.op, apps.size(), [ids](std::size_t i) { return ids[i]; }, value_at,
          clause_.number, out);
    };
    switch (clause_.field) {
      case Field::kApp:
        return run([](std::uint32_t app) { return static_cast<double>(app); });
      case Field::kCategory:
        return run([category = app_category_](std::uint32_t app) {
          return static_cast<double>(category[app]);
        });
      case Field::kPrice:
        return run([price = app_price_](std::uint32_t app) { return price[app]; });
      default:
        return 0;
    }
  }

 private:
  template <typename RowAt>
  [[nodiscard]] std::size_t select(std::size_t count, RowAt row_at, std::uint32_t* out) const {
    const auto run = [&](auto value_at) {
      return keep_matches(clause_.op, count, row_at, value_at, clause_.number, out);
    };
    switch (clause_.field) {
      case Field::kDay:
        if (day_ == nullptr) return run([](std::uint32_t) { return 0.0; });
        return run([day = day_](std::uint32_t row) { return static_cast<double>(day[row]); });
      case Field::kUser:
        return run(
            [user = user_](std::uint32_t row) { return static_cast<double>(user[row]); });
      case Field::kApp:
        return run([app = app_](std::uint32_t row) { return static_cast<double>(app[row]); });
      case Field::kCategory:
        return run([app = app_, category = app_category_](std::uint32_t row) {
          return static_cast<double>(category[app[row]]);
        });
      case Field::kPrice:
        return run([app = app_, price = app_price_](std::uint32_t row) {
          return price[app[row]];
        });
      case Field::kStore:
        return 0;  // folded at plan time; unreachable
    }
    return 0;
  }

  Comparison clause_;
  const std::uint32_t* user_;
  const std::uint32_t* app_;
  const std::int32_t* day_;  ///< null when the day column is disabled
  const std::uint32_t* app_category_;
  const double* app_price_;
};

[[nodiscard]] PlanNode constant(bool all) {
  PlanNode node;
  node.kind = all ? NodeKind::kAll : NodeKind::kNone;
  return node;
}

/// Inclusive user range selected by a contiguous-range operator; nullopt for
/// an empty selection. `kNe` is never contiguous and is not handled here.
struct UserRange {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
};

[[nodiscard]] std::optional<UserRange> user_range(const Comparison& clause,
                                                  std::uint32_t user_count) {
  if (user_count == 0) return std::nullopt;
  const double v = clause.number;
  const auto last = static_cast<double>(user_count - 1);
  double lo = 0.0;
  double hi = last;
  switch (clause.op) {
    case CompareOp::kEq: lo = hi = v; break;
    case CompareOp::kLe: hi = v; break;
    case CompareOp::kLt: hi = v - 1.0; break;
    case CompareOp::kGe: lo = v; break;
    case CompareOp::kGt: lo = v + 1.0; break;
    case CompareOp::kNe: return std::nullopt;  // not contiguous (caller guards)
  }
  lo = std::max(lo, 0.0);
  hi = std::min(hi, last);
  if (lo > hi) return std::nullopt;
  return UserRange{static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi)};
}

[[nodiscard]] PlanNode plan_leaf(const Comparison& clause, const BoundLog& bound,
                                 const PlanOptions& options) {
  PlanNode node;
  node.clause = clause;

  switch (clause.field) {
    case Field::kStore: {
      const bool equal = clause.text == bound.store_name;
      return constant(clause.op == CompareOp::kEq ? equal : !equal);
    }
    case Field::kCategory: {
      if (clause.is_text) {
        // Resolved against real names by the engine before planning; a text
        // clause reaching this point means the caller skipped binding.
        throw QueryError("unknown_category",
                         util::format("unknown category '{}'", clause.text));
      }
      if (clause.number >= static_cast<double>(bound.category_count)) {
        return constant(clause.op == CompareOp::kNe);
      }
      break;
    }
    case Field::kUser: {
      if (clause.op == CompareOp::kNe) break;  // not contiguous: column scan
      const auto range = user_range(clause, bound.user_count);
      if (!range.has_value()) return constant(false);
      if (range->lo == 0 && range->hi == bound.user_count - 1) return constant(true);
      const auto span = static_cast<double>(range->hi - range->lo) + 1.0;
      const double limit =
          std::max(1.0, static_cast<double>(bound.user_count) * options.index_user_fraction);
      if (options.allow_index_scan && bound.log.indexed() &&
          bound.log.user_count() >= bound.user_count && span <= limit) {
        node.kind = NodeKind::kIndexScan;
        node.user_lo = range->lo;
        node.user_hi = range->hi;
        return node;
      }
      break;
    }
    default:
      break;
  }
  node.kind = NodeKind::kColumnScan;
  return node;
}

[[nodiscard]] PlanNode plan_node(const Expr& expr, const BoundLog& bound,
                                 const PlanOptions& options) {
  if (expr.kind == Expr::Kind::kComparison) {
    return plan_leaf(expr.comparison, bound, options);
  }
  const bool is_and = expr.kind == Expr::Kind::kAnd;
  PlanNode node;
  node.kind = is_and ? NodeKind::kAnd : NodeKind::kOr;
  for (const Expr& child : expr.children) {
    PlanNode planned = plan_node(child, bound, options);
    if (planned.kind == NodeKind::kAll) {
      if (!is_and) return constant(true);  // or-with-all is all
      continue;                            // and-with-all folds away
    }
    if (planned.kind == NodeKind::kNone) {
      if (is_and) return constant(false);  // and-with-none is none
      continue;                            // or-with-none folds away
    }
    node.children.push_back(std::move(planned));
  }
  if (node.children.empty()) return constant(is_and);
  if (node.children.size() == 1) return std::move(node.children.front());

  if (is_and) {
    // Residual rewrite: once one child materializes a candidate set, further
    // column scans only need to test those candidates, not the whole log.
    // Any index scan or sub-tree is the source; failing that, the first
    // equality column scan (it selects a single value, so it tends to
    // materialize the fewest rows), else the first column scan. Every other
    // column-scan leaf is demoted to a residual filter.
    const bool has_cheap_source = std::any_of(
        node.children.begin(), node.children.end(),
        [](const PlanNode& child) { return child.kind != NodeKind::kColumnScan; });
    const PlanNode* source = nullptr;
    if (!has_cheap_source) {
      const auto equality = std::find_if(
          node.children.begin(), node.children.end(),
          [](const PlanNode& child) { return child.clause.op == CompareOp::kEq; });
      source = equality != node.children.end() ? &*equality : &node.children.front();
    }
    for (PlanNode& child : node.children) {
      if (child.kind == NodeKind::kColumnScan && &child != source) {
        child.kind = NodeKind::kResidual;
      }
    }
  }
  return node;
}

void count_scans(const PlanNode& node, Plan& plan) {
  switch (node.kind) {
    case NodeKind::kIndexScan: ++plan.index_scans; break;
    case NodeKind::kColumnScan: ++plan.column_scans; break;
    case NodeKind::kResidual: ++plan.residual_filters; break;
    default: break;
  }
  for (const PlanNode& child : node.children) count_scans(child, plan);
}

[[nodiscard]] RowSet run_index_scan(const PlanNode& node, const BoundLog& bound) {
  RowSet result;
  for (std::uint32_t user = node.user_lo; user <= node.user_hi; ++user) {
    const events::LiveStreamView view = bound.log.stream(user);
    for (std::size_t i = 0; i < view.size(); ++i) {
      result.rows.push_back(view.event_index(i));
    }
  }
  std::sort(result.rows.begin(), result.rows.end());
  result.scanned = result.rows.size();
  return result;
}

[[nodiscard]] RowSet run_column_scan(const PlanNode& node, const BoundLog& bound,
                                     const PlanOptions& options) {
  RowSet result;
  const std::uint64_t rows = bound.log.size();
  if (rows == 0) return result;
  result.scanned = rows;
  const CompiledClause clause(node.clause, bound);
  const std::uint64_t block = std::max<std::uint64_t>(1, options.scan_block);
  const std::uint64_t blocks = (rows + block - 1) / block;
  par::Options par_options;
  par_options.threads = options.threads;
  // One reduce item per fixed-size row block: each block's matches are
  // collected independently and concatenated in ascending block order, so
  // the row set is identical at every thread count and grain.
  result.rows = par::parallel_reduce<std::vector<std::uint32_t>>(
      blocks, {}, par_options,
      [&](std::uint64_t b) {
        const std::uint64_t begin = b * block;
        const std::uint64_t end = std::min(rows, begin + block);
        // Left uninitialized: zeroing a block-sized buffer costs about as
        // much as scanning a selective clause over it.
        const auto scratch = std::make_unique_for_overwrite<std::uint32_t[]>(end - begin);
        const std::size_t kept = clause.select_range(begin, end, scratch.get());
        return std::vector<std::uint32_t>(scratch.get(), scratch.get() + kept);
      },
      [](std::vector<std::uint32_t> acc, std::vector<std::uint32_t> part) {
        if (acc.empty()) return part;
        acc.insert(acc.end(), part.begin(), part.end());
        return acc;
      });
  return result;
}

[[nodiscard]] RowSet run_node(const PlanNode& node, const BoundLog& bound,
                              const PlanOptions& options);

[[nodiscard]] RowSet run_and(const PlanNode& node, const BoundLog& bound,
                             const PlanOptions& options) {
  // Sources first (index scans, sub-trees, the one surviving column scan),
  // intersected as we go with an empty-set early exit; residual filters then
  // test only the candidates.
  RowSet current;
  current.all = true;
  std::uint64_t scanned = 0;
  for (const PlanNode& child : node.children) {
    if (child.kind == NodeKind::kResidual) continue;
    RowSet next = run_node(child, bound, options);
    scanned += next.scanned;
    if (current.all) {
      current = std::move(next);
    } else if (!next.all) {
      current.rows = intersect_sorted(current.rows, next.rows);
    }
    if (!current.all && current.rows.empty()) break;
  }
  for (const PlanNode& child : node.children) {
    if (child.kind != NodeKind::kResidual || current.rows.empty()) continue;
    const CompiledClause clause(child.clause, bound);
    scanned += current.rows.size();
    current.rows.resize(clause.select_rows(current.rows, current.rows.data()));
  }
  current.scanned = scanned;
  return current;
}

RowSet run_node(const PlanNode& node, const BoundLog& bound, const PlanOptions& options) {
  switch (node.kind) {
    case NodeKind::kAll: {
      RowSet all;
      all.all = true;
      return all;
    }
    case NodeKind::kNone:
      return RowSet{};
    case NodeKind::kIndexScan:
      return run_index_scan(node, bound);
    case NodeKind::kColumnScan:
    case NodeKind::kResidual:  // executed standalone only in degenerate plans
      return run_column_scan(node, bound, options);
    case NodeKind::kAnd:
      return run_and(node, bound, options);
    case NodeKind::kOr: {
      RowSet result;
      for (const PlanNode& child : node.children) {
        RowSet next = run_node(child, bound, options);
        result.scanned += next.scanned;
        if (next.all) {
          next.scanned = result.scanned;
          return next;
        }
        result.rows = union_sorted(result.rows, next.rows);
      }
      return result;
    }
  }
  return RowSet{};
}

/// True for a leaf a download table answers: a day range or equality, or a
/// field of the row's app.
[[nodiscard]] bool table_leaf(const PlanNode& node) {
  if (node.kind != NodeKind::kColumnScan && node.kind != NodeKind::kResidual) return false;
  switch (node.clause.field) {
    case Field::kDay: return node.clause.op != CompareOp::kNe;
    case Field::kApp:
    case Field::kCategory:
    case Field::kPrice: return true;
    default: return false;
  }
}

/// Narrows the inclusive interval [lo, hi] to the integer days for which
/// `static_cast<double>(day) <op> clause.number` holds.
void narrow_days(const Comparison& clause, std::int64_t& lo, std::int64_t& hi) {
  if (std::isnan(clause.number)) {
    lo = 1;
    hi = 0;
    return;
  }
  // Days are 32-bit, so clamping the literal far outside their range first
  // changes no outcome and keeps the integer arithmetic exact.
  const double number = std::clamp(clause.number, -1e12, 1e12);
  const auto floored = static_cast<std::int64_t>(std::floor(number));
  const auto ceiled = static_cast<std::int64_t>(std::ceil(number));
  switch (clause.op) {
    case CompareOp::kLt: hi = std::min(hi, ceiled - 1); break;
    case CompareOp::kLe: hi = std::min(hi, floored); break;
    case CompareOp::kGt: lo = std::max(lo, floored + 1); break;
    case CompareOp::kGe: lo = std::max(lo, ceiled); break;
    case CompareOp::kEq:
      lo = std::max(lo, ceiled);
      hi = std::min(hi, floored);  // empty for a fractional literal
      break;
    case CompareOp::kNe: break;  // never a table leaf
  }
}

}  // namespace

Plan plan_filter(const Expr& expr, const BoundLog& bound, const PlanOptions& options) {
  Plan plan;
  plan.root = plan_node(expr, bound, options);
  count_scans(plan.root, plan);
  return plan;
}

Plan plan_all() {
  Plan plan;
  plan.root.kind = NodeKind::kAll;
  return plan;
}

RowSet execute(const Plan& plan, const BoundLog& bound, const PlanOptions& options) {
  return run_node(plan.root, bound, options);
}

std::optional<TableFilter> table_filter(const Plan& plan) {
  TableFilter filter;
  const auto absorb = [&filter](const PlanNode& leaf) {
    if (!table_leaf(leaf)) return false;
    ++filter.leaves;
    if (leaf.clause.field == Field::kDay) {
      narrow_days(leaf.clause, filter.day_lo, filter.day_hi);
    } else {
      filter.app_clauses.push_back(leaf.clause);
    }
    return true;
  };
  switch (plan.root.kind) {
    case NodeKind::kAll:
      return filter;
    case NodeKind::kColumnScan:
      if (!absorb(plan.root)) return std::nullopt;
      return filter;
    case NodeKind::kAnd:
      if (!std::all_of(plan.root.children.begin(), plan.root.children.end(), absorb)) {
        return std::nullopt;
      }
      return filter;
    default:
      return std::nullopt;
  }
}

std::vector<std::uint32_t> select_apps(std::span<const Comparison> clauses,
                                       const BoundLog& bound, std::size_t app_count) {
  std::vector<std::uint32_t> apps(app_count);
  std::iota(apps.begin(), apps.end(), 0u);
  for (const Comparison& clause : clauses) {
    apps.resize(CompiledClause(clause, bound).select_apps(apps, apps.data()));
  }
  return apps;
}

std::vector<std::uint32_t> intersect_sorted(const std::vector<std::uint32_t>& a,
                                            const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

std::vector<std::uint32_t> union_sorted(const std::vector<std::uint32_t>& a,
                                        const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

}  // namespace appstore::query
