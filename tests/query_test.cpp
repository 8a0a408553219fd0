// Tests for the online analytics query engine (ISSUE 6): the predicate
// language, the planner's index-scan-vs-column-scan choice, thread-count
// invariance of execution, the /api/v1/query wire forms, the versioned
// routing table with its deprecation aliases, the uniform error envelope,
// and the load generator's query mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "crawler/json.hpp"
#include "crawler/query_json.hpp"
#include "crawler/service.hpp"
#include "events/live_log.hpp"
#include "load/workload.hpp"
#include "market/store.hpp"
#include "net/http.hpp"
#include "obs/registry.hpp"
#include "query/engine.hpp"
#include "query/expression.hpp"
#include "query/plan.hpp"
#include "stats/pareto.hpp"
#include "synth/generator.hpp"
#include "util/format.hpp"

namespace appstore {
namespace {

using crawlersim::AppstoreService;
using crawlersim::ServicePolicy;

// ---- expression grammar ----------------------------------------------------------

TEST(QueryExpression, ParsesAndRendersCanonically) {
  const auto roundtrip = [](std::string_view text) {
    return query::to_string(query::parse_filter(text));
  };
  EXPECT_EQ(roundtrip("user == 3"), "user == 3");
  EXPECT_EQ(roundtrip("user==3 and day <= 60"), "(user == 3 and day <= 60)");
  // '+' reads as whitespace so filters survive URL query strings untouched.
  EXPECT_EQ(roundtrip("user==3+and+day<=60"), "(user == 3 and day <= 60)");
  EXPECT_EQ(roundtrip("price >= 1.5 or category == 'Games'"),
            "(price >= 1.5 or category == 'Games')");
  EXPECT_EQ(roundtrip("(user == 1 or user == 2) and day < 9"),
            "((user == 1 or user == 2) and day < 9)");
  // Chains of one connective flatten into a single n-ary node.
  const query::Expr chain = query::parse_filter("day > 0 and day < 9 and user == 1");
  ASSERT_EQ(chain.kind, query::Expr::Kind::kAnd);
  EXPECT_EQ(chain.children.size(), 3u);
  // The canonical rendering re-parses to the same canonical form.
  EXPECT_EQ(roundtrip(query::to_string(chain)), query::to_string(chain));
}

TEST(QueryExpression, RejectMatrixThrowsNeverCrashes) {
  const std::string_view bad[] = {
      "",                          // empty
      "user",                      // no operator
      "user ==",                   // no value
      "== 3",                      // no field
      "frobnicate == 3",           // unknown field
      "user = 3",                  // not an operator
      "user == 3 and",             // dangling connective
      "user == 3 or or day < 2",   // doubled connective
      "(user == 3",                // unbalanced paren
      "user == 3)",                // trailing junk
      "user == 'alice'",           // text for a numeric field
      "user == -1",                // negative id
      "user == 1.5",               // non-integral id
      "day == 2.5",                // non-integral day
      "category < 3",              // ordered op on category
      "store < 'x'",               // ordered op on store
      "store == 3",                // number for store
      "price == 'cheap'",          // text for price
      "user == 99999999999999999999999",  // overflow
      "user == nan",               // non-finite
      "day == 'a' and ",           // typing + syntax combined
  };
  for (const std::string_view text : bad) {
    EXPECT_THROW((void)query::parse_filter(text), query::QueryError) << text;
  }
  // Errors carry the stable envelope slug.
  try {
    (void)query::parse_filter("user = 3");
    FAIL() << "expected QueryError";
  } catch (const query::QueryError& error) {
    EXPECT_EQ(error.code(), "bad_filter");
  }
}

TEST(QueryExpression, DepthAndLengthLimits) {
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "(";
  deep += "user == 1";
  for (int i = 0; i < 64; ++i) deep += ")";
  EXPECT_THROW((void)query::parse_filter(deep), query::QueryError);
  const std::string long_filter(8192, ' ');
  EXPECT_THROW((void)query::parse_filter(long_filter), query::QueryError);
}

// ---- sorted-set combination helpers ----------------------------------------------

TEST(QueryPlan, SortedSetOperations) {
  const std::vector<std::uint32_t> a = {1, 3, 5, 7};
  const std::vector<std::uint32_t> b = {3, 4, 5, 9};
  EXPECT_EQ(query::intersect_sorted(a, b), (std::vector<std::uint32_t>{3, 5}));
  EXPECT_EQ(query::union_sorted(a, b), (std::vector<std::uint32_t>{1, 3, 4, 5, 7, 9}));
  EXPECT_TRUE(query::intersect_sorted(a, {}).empty());
  EXPECT_EQ(query::union_sorted({}, b), b);
}

// ---- planner choice on a hand-built store ----------------------------------------

/// 100 users, 2 apps (Games free / Tools paid), 10 download days: each user
/// downloads app (user % 2) once per day, so user u owns exactly the rows
/// {u, u+100, u+200, ...} and every planner decision is checkable by hand.
class PlannerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<market::AppStore>("Tiny");
    const market::CategoryId games = store_->add_category("Games");
    const market::CategoryId tools = store_->add_category("Tools");
    const market::DeveloperId dev = store_->add_developer("dev");
    (void)store_->add_app("free-game", dev, games, market::Pricing::kFree, 0, 0);
    (void)store_->add_app("paid-tool", dev, tools, market::Pricing::kPaid, 199, 0);
    store_->add_users(kUsers);
    for (market::Day day = 0; day < kDays; ++day) {
      for (std::uint32_t user = 0; user < kUsers; ++user) {
        store_->record_download(market::UserId{user}, market::AppId{user % 2}, day);
      }
    }
    app_category_ = {0, 1};
    app_price_ = {0.0, 1.99};
  }

  [[nodiscard]] query::BoundLog bound() const {
    query::BoundLog bound;
    bound.log = store_->download_log();
    bound.app_category = app_category_;
    bound.app_price = app_price_;
    bound.store_name = store_->name();
    bound.user_count = store_->user_count();
    bound.category_count = 2;
    return bound;
  }

  /// Executes `text` both as planned and with index scans disabled; the two
  /// row sets must be identical (and are returned for further checks).
  [[nodiscard]] std::vector<std::uint32_t> execute_both_ways(std::string_view text) const {
    const query::Expr expr = query::parse_filter(text);
    const query::PlanOptions planned_options;
    query::PlanOptions naive_options;
    naive_options.allow_index_scan = false;
    const query::BoundLog log = bound();
    const query::RowSet planned =
        query::execute(query::plan_filter(expr, log, planned_options), log, planned_options);
    const query::RowSet naive =
        query::execute(query::plan_filter(expr, log, naive_options), log, naive_options);
    EXPECT_EQ(planned.all, naive.all) << text;
    EXPECT_EQ(planned.rows, naive.rows) << text;
    return planned.rows;
  }

  static constexpr std::uint32_t kUsers = 100;
  static constexpr market::Day kDays = 10;

  std::unique_ptr<market::AppStore> store_;
  std::vector<std::uint32_t> app_category_;
  std::vector<double> app_price_;
};

TEST_F(PlannerFixture, UserEqualityTakesIndexScan) {
  const query::Plan plan =
      query::plan_filter(query::parse_filter("user == 5"), bound(), {});
  EXPECT_EQ(plan.root.kind, query::NodeKind::kIndexScan);
  EXPECT_EQ(plan.root.user_lo, 5u);
  EXPECT_EQ(plan.root.user_hi, 5u);
  EXPECT_EQ(plan.index_scans, 1u);
  EXPECT_EQ(plan.column_scans, 0u);

  const std::vector<std::uint32_t> rows = execute_both_ways("user == 5");
  ASSERT_EQ(rows.size(), kDays);
  for (std::uint32_t i = 0; i < kDays; ++i) EXPECT_EQ(rows[i], 5 + i * kUsers);
}

TEST_F(PlannerFixture, WideUserRangeFallsBackToColumnScan) {
  // index_user_fraction 1/64 of 100 users = at most 1 user per index scan;
  // user <= 50 spans 51 users and must scan the column instead.
  const query::Plan plan =
      query::plan_filter(query::parse_filter("user <= 50"), bound(), {});
  EXPECT_EQ(plan.root.kind, query::NodeKind::kColumnScan);
  EXPECT_EQ(plan.index_scans, 0u);
  EXPECT_EQ(plan.column_scans, 1u);
  EXPECT_EQ(execute_both_ways("user <= 50").size(), 51u * kDays);
}

TEST_F(PlannerFixture, DisabledOrMissingIndexFallsBackToColumnScan) {
  query::PlanOptions no_index;
  no_index.allow_index_scan = false;
  EXPECT_EQ(query::plan_filter(query::parse_filter("user == 5"), bound(), no_index)
                .root.kind,
            query::NodeKind::kColumnScan);

  // A plan bound to no snapshot (the live store indexes as it ingests, so
  // the only index-less log is an empty default binding) cannot serve index
  // scans either.
  query::BoundLog unindexed;
  unindexed.store_name = "Raw";
  unindexed.user_count = 100;
  unindexed.category_count = 1;
  ASSERT_FALSE(unindexed.log.indexed());
  EXPECT_EQ(query::plan_filter(query::parse_filter("user == 5"), unindexed, {}).root.kind,
            query::NodeKind::kColumnScan);
}

TEST_F(PlannerFixture, AndDemotesExtraScansToResidualFilters) {
  const query::Plan plan = query::plan_filter(
      query::parse_filter("user == 6 and day >= 2 and price < 1"), bound(), {});
  EXPECT_EQ(plan.index_scans, 1u);
  EXPECT_EQ(plan.column_scans, 0u);
  EXPECT_EQ(plan.residual_filters, 2u);

  // user 6 is even -> free app 0 (price 0) on days 2..9.
  const std::vector<std::uint32_t> rows =
      execute_both_ways("user == 6 and day >= 2 and price < 1");
  ASSERT_EQ(rows.size(), kDays - 2);
  for (std::uint32_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], 6 + (i + 2) * kUsers);
  }
  // An even user only ever downloads the free app, so the paid-app half of
  // the same conjunction selects nothing.
  EXPECT_TRUE(execute_both_ways("user == 6 and price > 1").empty());
}

TEST_F(PlannerFixture, StoreClausesFoldAtPlanTime) {
  const query::Plan match =
      query::plan_filter(query::parse_filter("store == 'Tiny'"), bound(), {});
  EXPECT_EQ(match.root.kind, query::NodeKind::kAll);
  EXPECT_EQ(match.index_scans + match.column_scans, 0u);
  const query::BoundLog log = bound();
  EXPECT_TRUE(query::execute(match, log, {}).all);

  const query::Plan miss =
      query::plan_filter(query::parse_filter("store != 'Tiny'"), bound(), {});
  EXPECT_EQ(miss.root.kind, query::NodeKind::kNone);
  const query::RowSet none = query::execute(miss, log, {});
  EXPECT_FALSE(none.all);
  EXPECT_TRUE(none.rows.empty());

  // Simplification propagates: or-with-all is all, and-with-none is none.
  EXPECT_EQ(query::plan_filter(query::parse_filter("user == 5 or store == 'Tiny'"),
                               bound(), {})
                .root.kind,
            query::NodeKind::kAll);
  EXPECT_EQ(query::plan_filter(query::parse_filter("user == 5 and store != 'Tiny'"),
                               bound(), {})
                .root.kind,
            query::NodeKind::kNone);
}

TEST_F(PlannerFixture, OrUnionsSortedRowSets) {
  const std::vector<std::uint32_t> rows = execute_both_ways("user == 5 or user == 7");
  ASSERT_EQ(rows.size(), 2u * kDays);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  for (const std::uint32_t row : rows) {
    const std::uint32_t user = row % kUsers;
    EXPECT_TRUE(user == 5 || user == 7) << row;
  }
}

TEST_F(PlannerFixture, AppJoinedFieldsScanColumns) {
  // category/price read through the app column -> always column scans.
  const query::Plan plan =
      query::plan_filter(query::parse_filter("category == 1"), bound(), {});
  EXPECT_EQ(plan.root.kind, query::NodeKind::kColumnScan);
  const std::vector<std::uint32_t> rows = execute_both_ways("category == 1");
  EXPECT_EQ(rows.size(), (kUsers / 2) * kDays);  // odd users -> app 1 (Tools)
  // An out-of-range category id folds to an empty selection, not an error.
  EXPECT_TRUE(execute_both_ways("category == 9").empty());
}

// ---- scan kernels against a brute-force evaluator --------------------------------

/// `value <op> number`: the comparison the reference evaluators below make.
[[nodiscard]] bool reference_compare(query::CompareOp op, double value, double number) {
  switch (op) {
    case query::CompareOp::kEq: return value == number;
    case query::CompareOp::kNe: return value != number;
    case query::CompareOp::kLt: return value < number;
    case query::CompareOp::kLe: return value <= number;
    case query::CompareOp::kGt: return value > number;
    case query::CompareOp::kGe: return value >= number;
  }
  return false;
}

/// Seeded events over small id spaces, bound to per-app metadata the test
/// owns, so every filter's selection can be recomputed row by row without
/// the planner. One log carries days; the other has the day column disabled.
class KernelDifferential : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kUsers = 97;
  static constexpr std::uint32_t kApps = 41;
  static constexpr std::uint32_t kCategories = 7;
  static constexpr std::int32_t kDays = 30;
  static constexpr std::uint64_t kRows = 17'000;  // two 16,384-row blocks
  static constexpr std::string_view kStoreName = "Diff";

  void SetUp() override {
    std::mt19937_64 rng(4242);
    constexpr double kPrices[] = {0.0, 0.99, 1.0, 1.99, 2.49, 4.99};
    for (std::uint32_t app = 0; app < kApps; ++app) {
      app_category_.push_back(static_cast<std::uint32_t>(rng() % kCategories));
      app_price_.push_back(kPrices[rng() % std::size(kPrices)]);
    }
    events::LiveOptions options;
    options.max_rows = 1u << 15;
    options.segment_rows = 1u << 12;
    options.max_users = kUsers;
    with_days_ = std::make_unique<events::LiveEventLog>(events::Columns::kDay, options);
    without_days_ = std::make_unique<events::LiveEventLog>(events::Columns::kNone, options);
    for (std::uint64_t row = 0; row < kRows; ++row) {
      const auto user = static_cast<std::uint32_t>(rng() % kUsers);
      const auto app = static_cast<std::uint32_t>(rng() % kApps);
      (void)with_days_->append(user, app, static_cast<std::int32_t>(rng() % kDays));
      (void)without_days_->append(user, app);
    }
  }

  [[nodiscard]] query::BoundLog bind(const events::FrontierSnapshot& snapshot) const {
    query::BoundLog bound;
    bound.log = snapshot;
    bound.app_category = app_category_;
    bound.app_price = app_price_;
    bound.store_name = kStoreName;
    bound.user_count = kUsers;
    bound.category_count = kCategories;
    return bound;
  }

  /// One comparison; ids and days reach past both ends of their ranges.
  [[nodiscard]] static std::string random_leaf(std::mt19937_64& rng) {
    constexpr std::string_view kOps[] = {"==", "!=", "<", "<=", ">", ">="};
    const std::string_view op = kOps[rng() % std::size(kOps)];
    const std::string_view equality = kOps[rng() % 2];
    switch (rng() % 6) {
      case 0:
        return util::format("day {} {}", op, static_cast<int>(rng() % (kDays + 10)) - 5);
      case 1: return util::format("user {} {}", op, rng() % (kUsers + 8));
      case 2: return util::format("app {} {}", op, rng() % (kApps + 4));
      case 3:
        return util::format("price {} {:.2f}", op,
                            static_cast<double>(rng() % 600) / 100.0 - 0.5);
      case 4: return util::format("category {} {}", equality, rng() % (kCategories + 3));
      default:
        return util::format("store {} '{}'", equality, rng() % 2 == 0 ? kStoreName : "Other");
    }
  }

  /// A leaf, or an `and`/`or` of two or three filters nested up to `depth`.
  [[nodiscard]] static std::string random_filter(std::mt19937_64& rng, int depth) {
    if (depth == 0 || rng() % 3 == 0) return random_leaf(rng);
    const std::string_view connective = rng() % 2 == 0 ? " and " : " or ";
    const std::size_t children = 2 + rng() % 2;
    std::string text = "(";
    for (std::size_t i = 0; i < children; ++i) {
      if (i > 0) text += connective;
      text += random_filter(rng, depth - 1);
    }
    return text + ")";
  }

  [[nodiscard]] bool reference_match(const query::Expr& expr,
                                     const events::FrontierSnapshot& log,
                                     std::uint64_t row) const {
    const auto child_matches = [&](const query::Expr& child) {
      return reference_match(child, log, row);
    };
    switch (expr.kind) {
      case query::Expr::Kind::kAnd:
        return std::all_of(expr.children.begin(), expr.children.end(), child_matches);
      case query::Expr::Kind::kOr:
        return std::any_of(expr.children.begin(), expr.children.end(), child_matches);
      case query::Expr::Kind::kComparison:
        break;
    }
    const query::Comparison& clause = expr.comparison;
    const std::uint32_t app = log.app()[row];
    double value = 0.0;
    switch (clause.field) {
      case query::Field::kStore:
        return (clause.text == kStoreName) == (clause.op == query::CompareOp::kEq);
      case query::Field::kDay: value = log.day().empty() ? 0.0 : log.day()[row]; break;
      case query::Field::kUser: value = log.user()[row]; break;
      case query::Field::kApp: value = app; break;
      case query::Field::kCategory: value = app_category_[app]; break;
      case query::Field::kPrice: value = app_price_[app]; break;
    }
    return reference_compare(clause.op, value, clause.number);
  }

  [[nodiscard]] std::vector<std::uint32_t> reference_rows(
      const query::Expr& expr, const events::FrontierSnapshot& log) const {
    std::vector<std::uint32_t> rows;
    for (std::uint64_t row = 0; row < log.size(); ++row) {
      if (reference_match(expr, log, row)) rows.push_back(static_cast<std::uint32_t>(row));
    }
    return rows;
  }

  [[nodiscard]] static std::vector<std::uint32_t> materialize(const query::RowSet& set,
                                                              std::uint64_t total) {
    if (!set.all) return set.rows;
    std::vector<std::uint32_t> rows(total);
    std::iota(rows.begin(), rows.end(), 0u);
    return rows;
  }

  [[nodiscard]] static std::vector<std::string> random_filters(std::uint64_t seed,
                                                              int count) {
    std::mt19937_64 rng(seed);
    std::vector<std::string> filters;
    for (int i = 0; i < count; ++i) filters.push_back(random_filter(rng, 3));
    return filters;
  }

  /// Checks execute() against the reference for every filter at threads 1
  /// and 4 and scan blocks 1, 7 and 16,384. Returns how many filters select
  /// neither nothing nor everything.
  int expect_kernels_match_reference(const events::FrontierSnapshot& snapshot,
                                     const std::vector<std::string>& filters) const {
    const query::BoundLog log = bind(snapshot);
    int proper_subsets = 0;
    for (const std::string& text : filters) {
      const query::Expr expr = query::parse_filter(text);
      const std::vector<std::uint32_t> expected = reference_rows(expr, snapshot);
      if (!expected.empty() && expected.size() < snapshot.size()) ++proper_subsets;
      for (const std::size_t threads : {1u, 4u}) {
        for (const std::uint64_t block : {1u, 7u, 16'384u}) {
          query::PlanOptions options;
          options.threads = threads;
          options.scan_block = block;
          const query::RowSet got =
              query::execute(query::plan_filter(expr, log, options), log, options);
          EXPECT_EQ(materialize(got, snapshot.size()), expected)
              << text << " at threads " << threads << ", block " << block;
        }
      }
    }
    return proper_subsets;
  }

  std::vector<std::uint32_t> app_category_;
  std::vector<double> app_price_;
  std::unique_ptr<events::LiveEventLog> with_days_;
  std::unique_ptr<events::LiveEventLog> without_days_;
};

TEST_F(KernelDifferential, ExecuteMatchesBruteForceWithDays) {
  const std::vector<std::string> filters = random_filters(7, 96);
  // Enough draws select neither nothing nor everything.
  EXPECT_GT(expect_kernels_match_reference(with_days_->snapshot(), filters), 96 / 4);
}

TEST_F(KernelDifferential, ExecuteMatchesBruteForceWithoutDays) {
  const std::vector<std::string> filters = random_filters(8, 48);
  EXPECT_GT(expect_kernels_match_reference(without_days_->snapshot(), filters), 48 / 4);
  // A disabled day column reads 0 on every row.
  (void)expect_kernels_match_reference(
      without_days_->snapshot(),
      {"day == 0", "day != 0", "day <= 0", "day > 0", "day >= 1", "day < 1",
       "day <= -1 or app == 3", "day == 0 and app == 3"});
}

TEST_F(KernelDifferential, EqualityClauseIsTheAndSource) {
  // The equality leaf materializes the candidates; the range is tested only
  // against them.
  const events::FrontierSnapshot snapshot = with_days_->snapshot();
  const query::BoundLog log = bind(snapshot);
  const query::Expr expr = query::parse_filter("day <= 21 and category == 3");
  const query::Plan plan = query::plan_filter(expr, log, {});
  ASSERT_EQ(plan.root.kind, query::NodeKind::kAnd);
  ASSERT_EQ(plan.root.children.size(), 2u);
  EXPECT_EQ(plan.root.children[0].kind, query::NodeKind::kResidual);    // day
  EXPECT_EQ(plan.root.children[1].kind, query::NodeKind::kColumnScan);  // category
  EXPECT_EQ(plan.column_scans, 1u);
  EXPECT_EQ(plan.residual_filters, 1u);
  EXPECT_EQ(query::execute(plan, log, {}).rows, reference_rows(expr, snapshot));
}

// ---- engine over a synthetic store -----------------------------------------------

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::GeneratorConfig config;
    config.app_scale = 0.002;
    config.download_scale = 2e-6;
    config.comments = true;
    config.seed = 11;
    generated_ =
        std::make_unique<synth::GeneratedStore>(synth::generate(synth::anzhi(), config));
  }

  static constexpr market::Day kEndOfHistory = 1 << 20;

  std::unique_ptr<synth::GeneratedStore> generated_;
};

TEST_F(EngineFixture, ResultsAreThreadCountInvariant) {
  query::QueryOptions one;
  one.threads = 1;
  one.scan_block = 512;  // many blocks even on the small test store
  query::QueryOptions four = one;
  four.threads = 4;
  const query::QueryEngine serial(*generated_->store, one);
  const query::QueryEngine parallel(*generated_->store, four);

  for (const char* filter : {"day <= 40", "user <= 200 and price < 1", "category == 3"}) {
    for (std::size_t kind = 0; kind < query::kAggregateKindCount; ++kind) {
      query::QuerySpec spec;
      spec.kind = static_cast<query::AggregateKind>(kind);
      spec.filter = query::parse_filter(filter);
      const query::QueryResult a = serial.run(spec, 60);
      const query::QueryResult b = parallel.run(spec, 60);
      EXPECT_EQ(a.rows_selected, b.rows_selected) << filter;
      EXPECT_EQ(a.total_downloads, b.total_downloads) << filter;
      ASSERT_EQ(a.top.size(), b.top.size()) << filter;
      for (std::size_t i = 0; i < a.top.size(); ++i) {
        EXPECT_EQ(a.top[i].app, b.top[i].app);
        EXPECT_EQ(a.top[i].downloads, b.top[i].downloads);
      }
      ASSERT_EQ(a.pareto.size(), b.pareto.size());
      for (std::size_t i = 0; i < a.pareto.size(); ++i) {
        EXPECT_EQ(a.pareto[i].share, b.pareto[i].share);  // bit-identical
      }
      ASSERT_EQ(a.affinity.size(), b.affinity.size());
      for (std::size_t i = 0; i < a.affinity.size(); ++i) {
        EXPECT_EQ(a.affinity[i].mean, b.affinity[i].mean);
        EXPECT_EQ(a.affinity[i].samples, b.affinity[i].samples);
      }
      ASSERT_EQ(a.curve.size(), b.curve.size());
      for (std::size_t i = 0; i < a.curve.size(); ++i) {
        EXPECT_EQ(a.curve[i].downloads, b.curve[i].downloads);
      }
    }
  }
}

TEST_F(EngineFixture, PlannedExecutionMatchesNaiveFullScans) {
  const query::QueryEngine planned(*generated_->store, {});
  query::QueryOptions naive_options;
  naive_options.allow_index_scan = false;
  const query::QueryEngine naive(*generated_->store, naive_options);

  for (std::size_t kind = 0; kind < query::kAggregateKindCount; ++kind) {
    query::QuerySpec spec;
    spec.kind = static_cast<query::AggregateKind>(kind);
    spec.filter = query::parse_filter("user == 42");
    const query::QueryResult a = planned.run(spec, kEndOfHistory);
    const query::QueryResult b = naive.run(spec, kEndOfHistory);
    EXPECT_GE(a.index_scans, 1u);  // the planner actually used the index
    EXPECT_EQ(b.index_scans, 0u);
    EXPECT_EQ(a.rows_selected, b.rows_selected);
    EXPECT_EQ(a.total_downloads, b.total_downloads);
  }
}

TEST_F(EngineFixture, UnfilteredAggregatesMatchOfflineAnalyses) {
  const market::AppStore& store = *generated_->store;
  const query::QueryEngine engine(store, {});

  // pareto_share == stats::top_share over the store's download counters.
  query::QuerySpec pareto;
  pareto.kind = query::AggregateKind::kParetoShare;
  const query::QueryResult shares = engine.run(pareto, kEndOfHistory);
  const std::vector<double> counts = store.download_counts();
  ASSERT_EQ(shares.pareto.size(), pareto.fractions.size());
  for (const query::ParetoPoint& point : shares.pareto) {
    EXPECT_DOUBLE_EQ(point.share, stats::top_share(counts, point.fraction));
  }
  EXPECT_EQ(shares.rows_total, store.download_log().size());
  EXPECT_EQ(shares.rows_selected, store.download_log().size());

  // rank_download_curve rank 1 == the store's own descending rank series.
  query::QuerySpec curve;
  curve.kind = query::AggregateKind::kRankDownloadCurve;
  const query::QueryResult ranked = engine.run(curve, kEndOfHistory);
  const std::vector<double> by_rank = store.downloads_by_rank();
  ASSERT_FALSE(ranked.curve.empty());
  EXPECT_EQ(ranked.curve.front().rank, 1u);
  EXPECT_EQ(static_cast<double>(ranked.curve.front().downloads), by_rank.front());
  EXPECT_EQ(ranked.curve.back().rank, by_rank.size());
  EXPECT_EQ(static_cast<double>(ranked.curve.back().downloads), by_rank.back());
}

TEST_F(EngineFixture, SpecValidationRejectsOutOfRangeParameters) {
  const query::QueryEngine engine(*generated_->store, {});
  const auto expect_bad_query = [&](query::QuerySpec spec) {
    try {
      (void)engine.run(spec, 60);
      FAIL() << "expected QueryError";
    } catch (const query::QueryError& error) {
      EXPECT_EQ(error.code(), "bad_query");
    }
  };
  query::QuerySpec spec;
  spec.k = 0;
  expect_bad_query(spec);
  spec = {};
  spec.k = engine.options().max_k + 1;
  expect_bad_query(spec);
  spec = {};
  spec.kind = query::AggregateKind::kParetoShare;
  spec.fractions = {1.5};
  expect_bad_query(spec);
  spec.fractions = {};
  expect_bad_query(spec);
  spec = {};
  spec.kind = query::AggregateKind::kCategoryAffinity;
  spec.depths = {0};
  expect_bad_query(spec);
  spec.depths = {engine.options().max_depth + 1};
  expect_bad_query(spec);
  spec = {};
  spec.kind = query::AggregateKind::kRankDownloadCurve;
  spec.points = 1;
  expect_bad_query(spec);

  // Unknown category names surface their own slug.
  spec = {};
  spec.filter = query::parse_filter("category == 'NoSuchCategory'");
  try {
    (void)engine.run(spec, 60);
    FAIL() << "expected QueryError";
  } catch (const query::QueryError& error) {
    EXPECT_EQ(error.code(), "unknown_category");
  }
}

TEST_F(EngineFixture, MetricsRecordRequestsAndPlanChoices) {
  obs::Registry registry;
  const query::QueryEngine engine(*generated_->store, {}, &registry);

  query::QuerySpec selective;
  selective.filter = query::parse_filter("user == 7");
  (void)engine.run(selective, 60);

  // A user-selective predicate demonstrably picks the index scan.
  auto snapshot = registry.snapshot();
  ASSERT_NE(snapshot.find_counter("query_plan_total", "index_scan"), nullptr);
  EXPECT_EQ(snapshot.find_counter("query_plan_total", "index_scan")->value, 1u);
  EXPECT_EQ(snapshot.find_counter("query_plan_total", "column_scan")->value, 0u);
  EXPECT_EQ(snapshot.find_counter("query_requests_total", "top_k_downloads")->value, 1u);
  ASSERT_NE(snapshot.find_histogram("query_latency_seconds", "top_k_downloads"), nullptr);
  EXPECT_EQ(snapshot.find_histogram("query_latency_seconds", "top_k_downloads")->count, 1u);

  // A store-wide day range is answered by the download table.
  query::QuerySpec wide;
  wide.kind = query::AggregateKind::kParetoShare;
  wide.filter = query::parse_filter("day <= 40");
  (void)engine.run(wide, 60);
  snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.find_counter("query_plan_total", "index_scan")->value, 1u);
  EXPECT_EQ(snapshot.find_counter("query_plan_total", "column_scan")->value, 0u);
  EXPECT_EQ(snapshot.find_counter("query_plan_total", "table_lookup")->value, 1u);
  EXPECT_EQ(snapshot.find_counter("query_requests_total", "pareto_share")->value, 1u);

  // `day != D` is no interval: it scans the column.
  wide.filter = query::parse_filter("day != 40");
  (void)engine.run(wide, 60);
  snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.find_counter("query_plan_total", "column_scan")->value, 1u);
  EXPECT_EQ(snapshot.find_counter("query_plan_total", "table_lookup")->value, 1u);
}

// ---- the download table against a per-row count -----------------------------

/// A hand-built store whose downloads fall on days -1..last_day, so day
/// literals and day bounds can lie below, inside and past the log's days.
/// Every answer is checked against a per-row count the test makes itself.
class DownloadTableFixture : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kUsers = 60;
  static constexpr std::uint32_t kApps = 37;
  static constexpr std::uint32_t kCategories = 5;
  static constexpr market::Day kFirstDay = -1;
  static constexpr market::Day kLastDay = 19;
  static constexpr market::Day kEnd = 1 << 20;

  void SetUp() override { store_ = make_store(4000, kLastDay, 99); }

  [[nodiscard]] static std::unique_ptr<market::AppStore> make_store(std::uint64_t rows,
                                                                    market::Day last_day,
                                                                    std::uint64_t seed) {
    auto store = std::make_unique<market::AppStore>("Table");
    std::vector<market::CategoryId> categories;
    for (std::uint32_t c = 0; c < kCategories; ++c) {
      categories.push_back(store->add_category(util::format("c{}", c)));
    }
    const market::DeveloperId developer = store->add_developer("dev");
    store->add_users(kUsers);
    std::mt19937_64 rng(seed);
    constexpr market::Cents kPrices[] = {0, 99, 100, 199, 249, 499};
    for (std::uint32_t app = 0; app < kApps; ++app) {
      const market::Cents price = kPrices[rng() % std::size(kPrices)];
      (void)store->add_app(util::format("a{}", app), developer,
                           categories[rng() % kCategories],
                           price == 0 ? market::Pricing::kFree : market::Pricing::kPaid, price,
                           0);
    }
    for (std::uint64_t row = 0; row < rows; ++row) record(*store, rng, last_day);
    return store;
  }

  static void record(market::AppStore& store, std::mt19937_64& rng, market::Day last_day) {
    const auto days = static_cast<std::uint64_t>(last_day - kFirstDay + 1);
    store.record_download(market::UserId{static_cast<std::uint32_t>(rng() % kUsers)},
                          market::AppId{static_cast<std::uint32_t>(rng() % kApps)},
                          kFirstDay + static_cast<market::Day>(rng() % days));
  }

  [[nodiscard]] static bool passes(const market::AppStore& store, const query::Expr& expr,
                                   std::uint32_t user, std::uint32_t app, market::Day day) {
    const auto child_passes = [&](const query::Expr& child) {
      return passes(store, child, user, app, day);
    };
    switch (expr.kind) {
      case query::Expr::Kind::kAnd:
        return std::all_of(expr.children.begin(), expr.children.end(), child_passes);
      case query::Expr::Kind::kOr:
        return std::any_of(expr.children.begin(), expr.children.end(), child_passes);
      case query::Expr::Kind::kComparison:
        break;
    }
    const query::Comparison& clause = expr.comparison;
    double value = 0.0;
    switch (clause.field) {
      case query::Field::kDay: value = day; break;
      case query::Field::kUser: value = user; break;
      case query::Field::kApp: value = app; break;
      case query::Field::kCategory:
        value = static_cast<double>(store.app(market::AppId{app}).category.index());
        break;
      case query::Field::kPrice: value = store.average_price_dollars(market::AppId{app}); break;
      case query::Field::kStore:
        return (clause.text == store.name()) == (clause.op == query::CompareOp::kEq);
    }
    return reference_compare(clause.op, value, clause.number);
  }

  /// Per-app downloads among the log's first `rows` rows that pass `filter`
  /// (null = every row) on days up to `day`.
  [[nodiscard]] static std::vector<std::uint64_t> reference_counts(
      const market::AppStore& store, const query::Expr* filter, market::Day day,
      std::uint64_t rows) {
    const events::FrontierSnapshot log = store.download_log();
    std::vector<std::uint64_t> counts(store.apps().size(), 0);
    for (std::uint64_t row = 0; row < rows; ++row) {
      const market::Day row_day = log.day()[row];
      const std::uint32_t app = log.app()[row];
      if (row_day > day) continue;
      if (filter != nullptr && !passes(store, *filter, log.user()[row], app, row_day)) continue;
      ++counts[app];
    }
    return counts;
  }

  [[nodiscard]] static std::vector<std::pair<std::uint32_t, std::uint32_t>> nonzero(
      const std::vector<std::uint64_t>& counts) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::size_t app = 0; app < counts.size(); ++app) {
      if (counts[app] != 0) {
        pairs.emplace_back(static_cast<std::uint32_t>(app),
                           static_cast<std::uint32_t>(counts[app]));
      }
    }
    return pairs;
  }

  /// run_partial() and run() of `spec` at `day`, each against the per-row
  /// count over the rows it reports.
  static void expect_reference(const query::QueryEngine& engine, const market::AppStore& store,
                               const query::QuerySpec& spec, market::Day day,
                               const std::string& context) {
    const query::Expr* filter = spec.filter.has_value() ? &*spec.filter : nullptr;
    const query::PartialAggregate partial = engine.run_partial(spec, day);
    const std::vector<std::uint64_t> counts =
        reference_counts(store, filter, day, partial.rows_total);
    EXPECT_EQ(partial.app_count, counts.size()) << context;
    EXPECT_EQ(partial.counts, nonzero(counts)) << context;
    EXPECT_EQ(partial.rows_selected, std::accumulate(counts.begin(), counts.end(), 0ull))
        << context;

    const query::QueryResult got = engine.run(spec, day);
    query::QueryResult want;
    query::finalize_downloads(spec, reference_counts(store, filter, day, got.rows_total), want);
    EXPECT_EQ(got.total_downloads, want.total_downloads) << context;
    EXPECT_EQ(got.rows_selected, want.rows_selected) << context;
    ASSERT_EQ(got.top.size(), want.top.size()) << context;
    for (std::size_t i = 0; i < got.top.size(); ++i) {
      EXPECT_EQ(got.top[i].app, want.top[i].app) << context;
      EXPECT_EQ(got.top[i].downloads, want.top[i].downloads) << context;
    }
    ASSERT_EQ(got.pareto.size(), want.pareto.size()) << context;
    for (std::size_t i = 0; i < got.pareto.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.pareto[i].share),
                std::bit_cast<std::uint64_t>(want.pareto[i].share))
          << context;
    }
    ASSERT_EQ(got.curve.size(), want.curve.size()) << context;
    for (std::size_t i = 0; i < got.curve.size(); ++i) {
      EXPECT_EQ(got.curve[i].rank, want.curve[i].rank) << context;
      EXPECT_EQ(got.curve[i].downloads, want.curve[i].downloads) << context;
    }
  }

  /// A conjunction of one to three leaves over day (every operator, with
  /// literals below, inside and past the log's days), category, price and
  /// app; counts the leaves and whether one is `day != D`.
  [[nodiscard]] static std::string random_conjunction(std::mt19937_64& rng,
                                                      std::uint32_t& leaves,
                                                      bool& day_not_equal) {
    constexpr std::string_view kOps[] = {"==", "!=", "<", "<=", ">", ">="};
    leaves = 1 + static_cast<std::uint32_t>(rng() % 3);
    day_not_equal = false;
    std::string text;
    for (std::uint32_t i = 0; i < leaves; ++i) {
      if (i > 0) text += " and ";
      const std::string_view op = kOps[rng() % std::size(kOps)];
      switch (rng() % 4) {
        case 0:
          day_not_equal = day_not_equal || op == "!=";
          text += util::format("day {} {}", op, static_cast<int>(rng() % 32) - 6);
          break;
        case 1:
          text += util::format("category {} {}", kOps[rng() % 2], rng() % kCategories);
          break;
        case 2:
          text += util::format("price {} {:.2f}", op,
                               static_cast<double>(rng() % 600) / 100.0 - 0.5);
          break;
        default:
          text += util::format("app {} {}", op, rng() % (kApps + 4));
          break;
      }
    }
    return text;
  }

  std::unique_ptr<market::AppStore> store_;
};

TEST_F(DownloadTableFixture, AnswersEqualAPerRowCount) {
  const query::QueryEngine engine(*store_, {});
  constexpr query::AggregateKind kKinds[] = {query::AggregateKind::kTopKDownloads,
                                             query::AggregateKind::kParetoShare,
                                             query::AggregateKind::kRankDownloadCurve};
  constexpr market::Day kBounds[] = {-5, -1, 0, 7, kLastDay, 25, kEnd};
  std::mt19937_64 rng(7);
  int from_table = 0;
  for (int i = 0; i < 150; ++i) {
    query::QuerySpec spec;
    spec.kind = kKinds[i % std::size(kKinds)];
    spec.k = 6;
    spec.points = 7;
    std::uint32_t leaves = 0;
    bool day_not_equal = false;
    std::string text = "(none)";
    if (i >= static_cast<int>(std::size(kKinds))) {  // the first of each kind is kAll
      text = random_conjunction(rng, leaves, day_not_equal);
      spec.filter = query::parse_filter(text);
    }
    for (const market::Day day : kBounds) {
      expect_reference(engine, *store_, spec, day,
                       util::format("{} {} at day {}", query::to_string(spec.kind), text, day));
    }
    const query::QueryResult result = engine.run(spec, kLastDay);
    if (day_not_equal) {
      EXPECT_EQ(result.table_lookups, 0u) << text;
      EXPECT_EQ(result.column_scans + result.residual_filters, leaves) << text;
    } else {
      EXPECT_EQ(result.table_lookups, leaves) << text;
      EXPECT_EQ(result.column_scans + result.residual_filters, 0u) << text;
      ++from_table;
    }
  }
  EXPECT_GT(from_table, 90);
}

TEST_F(DownloadTableFixture, RowsAppendedAfterABuildAreCounted) {
  const query::QueryEngine engine(*store_, {});
  query::QuerySpec all;
  all.k = kApps;
  query::QuerySpec ranged = all;
  ranged.filter = query::parse_filter("day >= 3 and price < 2");
  expect_reference(engine, *store_, all, kEnd, "before");
  expect_reference(engine, *store_, ranged, kEnd, "before");
  const std::uint64_t rows = store_->download_log().size();

  store_->record_download(market::UserId{1}, market::AppId{0}, 5);
  EXPECT_EQ(engine.run(all, kEnd).total_downloads, rows + 1);
  expect_reference(engine, *store_, ranged, kEnd, "after one download");

  events::EventLog batch(events::Columns::kDay);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 50; ++i) {
    batch.append(static_cast<std::uint32_t>(rng() % kUsers),
                 static_cast<std::uint32_t>(rng() % kApps),
                 3 + static_cast<market::Day>(rng() % 8));
  }
  store_->ingest_downloads(batch);
  EXPECT_EQ(engine.run(all, kEnd).total_downloads, rows + 51);
  expect_reference(engine, *store_, all, kEnd, "after a batch");
  expect_reference(engine, *store_, ranged, kEnd, "after a batch");
}

TEST_F(DownloadTableFixture, AnAdoptedLogIsNotAnsweredFromTheOldTable) {
  const query::QueryEngine engine(*store_, {});
  query::QuerySpec all;
  all.k = kApps;
  (void)engine.run(all, kEnd);  // builds the table of the current log
  const std::uint64_t rows = store_->download_log().size();

  // The same number of rows, every one of them a download of app 0.
  auto downloads = std::make_unique<events::LiveEventLog>(events::Columns::kDay |
                                                          events::Columns::kOrdinal);
  for (std::uint64_t row = 0; row < rows; ++row) {
    (void)downloads->append(static_cast<std::uint32_t>(row % kUsers), 0, 0);
  }
  store_->adopt_event_logs(std::move(downloads),
                           std::make_unique<events::LiveEventLog>(
                               events::Columns::kDay | events::Columns::kOrdinal |
                               events::Columns::kRating));
  const query::QueryResult result = engine.run(all, kEnd);
  ASSERT_EQ(result.top.size(), 1u);
  EXPECT_EQ(result.top[0].app, 0u);
  EXPECT_EQ(result.top[0].downloads, rows);
}

TEST_F(DownloadTableFixture, DaysSpreadPastTheSizeRuleAreScanned) {
  // 200 rows over days -1..4999: 5,001 days x 37 apps is past 4 x 200 cells.
  const std::unique_ptr<market::AppStore> spread = make_store(200, 4999, 5);
  const query::QueryEngine engine(*spread, {});
  query::QuerySpec spec;
  spec.k = kApps;
  spec.filter = query::parse_filter("day <= 2500 and category == 1");
  const query::QueryResult result = engine.run(spec, kEnd);
  EXPECT_EQ(result.table_lookups, 0u);
  EXPECT_EQ(result.column_scans + result.residual_filters, 2u);
  for (const market::Day day : {-1, 1000, 4999, kEnd}) {
    expect_reference(engine, *spread, spec, day, util::format("spread at day {}", day));
  }
  spec.filter.reset();
  expect_reference(engine, *spread, spec, kEnd, "spread, unfiltered");
}

TEST_F(DownloadTableFixture, ConcurrentAppendsAndQueriesMatchTheirFrontier) {
  // One appender and two query threads: each answer counts exactly the
  // rows of the frontier it reports, whichever table it was read from. The
  // appender waits for an answer from each reader after every step, so
  // every reader meets many frontiers while rows keep arriving.
  const query::QueryEngine engine(*store_, {});
  std::atomic<bool> done{false};
  std::array<std::atomic<int>, 2> answers{};
  std::atomic<int> mismatches{0};
  std::thread appender([&] {
    std::mt19937_64 rng(3);
    for (int step = 0; step < 100; ++step) {
      for (int i = 0; i < 30; ++i) record(*store_, rng, kLastDay);
      const int first = answers[0].load();
      const int second = answers[1].load();
      while (answers[0].load() == first || answers[1].load() == second) {
        std::this_thread::yield();
      }
    }
    done.store(true);
  });
  const auto reader = [&](std::size_t id, std::optional<query::Expr> filter) {
    query::QuerySpec spec;
    spec.filter = std::move(filter);
    const query::Expr* expr = spec.filter.has_value() ? &*spec.filter : nullptr;
    while (!done.load()) {
      const query::PartialAggregate partial = engine.run_partial(spec, kLastDay);
      if (partial.counts != nonzero(reference_counts(*store_, expr, kLastDay,
                                                     partial.rows_total))) {
        mismatches.fetch_add(1);
      }
      answers[id].fetch_add(1);
    }
  };
  std::thread all(reader, 0, std::nullopt);
  std::thread ranged(reader, 1, query::parse_filter("day >= 2 and category != 3"));
  appender.join();
  all.join();
  ranged.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(answers[0].load(), 100);
  EXPECT_GE(answers[1].load(), 100);
}

TEST(QueryFinalize, TopKEqualsTheFullSortUnderTies) {
  // Many apps share each count, so the app-id tiebreak decides most ranks;
  // zero-download apps never rank.
  std::vector<std::uint64_t> counts(997);
  for (std::size_t app = 0; app < counts.size(); ++app) counts[app] = (app * 7919) % 13;
  std::vector<query::TopKEntry> reference;
  for (std::size_t app = 0; app < counts.size(); ++app) {
    if (counts[app] > 0) reference.push_back({static_cast<std::uint32_t>(app), counts[app]});
  }
  std::sort(reference.begin(), reference.end(), [](const auto& a, const auto& b) {
    return a.downloads != b.downloads ? a.downloads > b.downloads : a.app < b.app;
  });
  const std::size_t n = reference.size();
  for (const std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{50}, n, n + 5}) {
    query::QuerySpec spec;
    spec.k = k;
    query::QueryResult result;
    query::finalize_downloads(spec, counts, result);
    const std::size_t keep = std::min(k, n);
    ASSERT_EQ(result.top.size(), keep) << "k=" << k;
    for (std::size_t rank = 0; rank < keep; ++rank) {
      EXPECT_EQ(result.top[rank].app, reference[rank].app) << "k=" << k << " rank " << rank;
      EXPECT_EQ(result.top[rank].downloads, reference[rank].downloads)
          << "k=" << k << " rank " << rank;
    }
  }
}

TEST(QueryFinalize, ParetoAndRankCurveMatchAStdSortReference) {
  // finalize_downloads radix-sorts the non-zero integer counts once; pareto
  // shares and rank curves must equal the double sort inside
  // stats::top_shares and a std::sort of the counts, bit for bit.
  std::mt19937_64 rng(2113);
  std::vector<std::vector<std::uint64_t>> cases;
  cases.emplace_back();
  cases.emplace_back(600, 0);  // all zeros
  for (int repeat = 0; repeat < 40; ++repeat) {
    const std::size_t n = 1 + rng() % 6'020;
    std::vector<std::uint64_t> ties(n);
    for (std::uint64_t& count : ties) count = rng() % 4;  // heavy ties
    cases.push_back(std::move(ties));
    std::vector<std::uint64_t> zipf(n);
    for (std::size_t rank = 0; rank < n; ++rank) {
      zipf[rank] = static_cast<std::uint64_t>(
          1e6 / std::pow(static_cast<double>(rank + 1), 0.6 + 0.05 * repeat));
    }
    std::shuffle(zipf.begin(), zipf.end(), rng);
    cases.push_back(std::move(zipf));
    std::vector<std::uint64_t> near_2_53(1 + n / 8);  // doubles tie above 2^53
    for (std::uint64_t& count : near_2_53) count = (std::uint64_t{1} << 53) - 64 + rng() % 128;
    cases.push_back(std::move(near_2_53));
    std::vector<std::uint64_t> wide(1 + n / 8);  // every byte of the count
    for (std::uint64_t& count : wide) count = rng() >> (rng() % 64);
    cases.push_back(std::move(wide));
  }
  // Mostly zeros, as a one-user selection leaves them: only the non-zero
  // counts are radix-sorted, and the zeros pad the tail.
  std::vector<std::uint64_t> sparse(6'020, 0);
  for (std::uint64_t& count : sparse) {
    if (rng() % 100 == 0) count = 1 + rng() % 5'000;
  }
  cases.push_back(std::move(sparse));
  std::vector<std::uint64_t> single(6'020, 0);
  single[4'211] = 3;
  cases.push_back(std::move(single));

  query::QuerySpec pareto;
  pareto.kind = query::AggregateKind::kParetoShare;
  pareto.fractions = {0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0};
  query::QuerySpec curve;
  curve.kind = query::AggregateKind::kRankDownloadCurve;
  curve.points = 97;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const std::vector<std::uint64_t>& counts = cases[c];
    query::QueryResult shares;
    query::finalize_downloads(pareto, counts, shares);
    const std::vector<double> as_double(counts.begin(), counts.end());
    const std::vector<double> expected = stats::top_shares(as_double, pareto.fractions);
    ASSERT_EQ(shares.pareto.size(), expected.size()) << "case " << c;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(shares.pareto[i].share),
                std::bit_cast<std::uint64_t>(expected[i]))
          << "case " << c << " fraction " << pareto.fractions[i];
    }

    query::QueryResult ranked;
    query::finalize_downloads(curve, counts, ranked);
    std::vector<std::uint64_t> sorted = counts;
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    if (sorted.empty()) {
      EXPECT_TRUE(ranked.curve.empty());
      continue;
    }
    ASSERT_FALSE(ranked.curve.empty()) << "case " << c;
    EXPECT_EQ(ranked.curve.front().rank, 1u) << "case " << c;
    EXPECT_EQ(ranked.curve.back().rank, sorted.size()) << "case " << c;
    for (const query::CurvePoint& point : ranked.curve) {
      EXPECT_EQ(point.downloads, sorted[point.rank - 1]) << "case " << c << " rank " << point.rank;
    }
  }
}

// ---- wire forms ------------------------------------------------------------------

TEST(QueryWire, GetAndPostProduceTheSameSpec) {
  net::HttpRequest get;
  get.method = "GET";
  get.target = "/api/v1/query?kind=top_k_downloads&k=5&filter=user==3+and+day<=60";
  const query::QuerySpec from_get = crawlersim::parse_query_request(get);

  net::HttpRequest post;
  post.method = "POST";
  post.target = "/api/v1/query";
  post.body = R"({"kind": "top_k_downloads", "k": 5, "filter": "user == 3 and day <= 60"})";
  const query::QuerySpec from_post = crawlersim::parse_query_request(post);

  EXPECT_EQ(from_get.kind, query::AggregateKind::kTopKDownloads);
  EXPECT_EQ(from_get.k, 5u);
  EXPECT_EQ(from_post.k, 5u);
  ASSERT_TRUE(from_get.filter.has_value());
  ASSERT_TRUE(from_post.filter.has_value());
  EXPECT_EQ(query::to_string(*from_get.filter), query::to_string(*from_post.filter));

  // List parameters are comma-separated in the GET form.
  net::HttpRequest lists;
  lists.target = "/api/v1/query?kind=pareto_share&fractions=0.01,0.5";
  const query::QuerySpec with_lists = crawlersim::parse_query_request(lists);
  EXPECT_EQ(with_lists.fractions, (std::vector<double>{0.01, 0.5}));
}

TEST(QueryWire, StructuredJsonFilterBuildsTheSameAst) {
  const auto node = crawlersim::parse_json(
      R"({"and": [{"field": "user", "op": "==", "value": 3},
                  {"or": [{"field": "day", "op": "<", "value": 9},
                          {"field": "category", "op": "==", "value": "Games"}]}]})");
  ASSERT_TRUE(node.has_value());
  const query::Expr expr = crawlersim::expr_from_json(*node);
  EXPECT_EQ(query::to_string(expr),
            query::to_string(
                query::parse_filter("user == 3 and (day < 9 or category == 'Games')")));

  for (const char* bad : {
           R"(["not", "an", "object"])",
           R"({"and": []})",
           R"({"field": "user", "op": "=="})",
           R"({"field": "user", "op": "==", "value": null})",
           R"({"field": "nope", "op": "==", "value": 1})",
       }) {
    const auto parsed = crawlersim::parse_json(bad);
    ASSERT_TRUE(parsed.has_value()) << bad;
    EXPECT_THROW((void)crawlersim::expr_from_json(*parsed), query::QueryError) << bad;
  }
}

// ---- versioned routing + service surface -----------------------------------------

TEST(ServiceRouting, TableDrivenRouteMatching) {
  using Endpoint = AppstoreService::Endpoint;
  const auto match = [](std::string_view path) { return AppstoreService::route(path); };

  EXPECT_EQ(match("/api/v1/meta").endpoint, Endpoint::kMeta);
  EXPECT_EQ(match("/api/v1/apps").endpoint, Endpoint::kApps);
  EXPECT_EQ(match("/api/v1/app/7").endpoint, Endpoint::kApp);
  EXPECT_EQ(match("/api/v1/app/7").rest, "7");
  EXPECT_EQ(match("/api/v1/app/7/comments").endpoint, Endpoint::kComments);
  EXPECT_EQ(match("/api/v1/app/7/apk").endpoint, Endpoint::kApk);
  EXPECT_EQ(match("/api/v1/query").endpoint, Endpoint::kQuery);
  EXPECT_EQ(match("/api/v1/metrics").endpoint, Endpoint::kMetrics);

  EXPECT_EQ(match("/api/v1/nope").endpoint, Endpoint::kOther);
  EXPECT_EQ(match("/nope").endpoint, Endpoint::kOther);
  EXPECT_EQ(match("/api/v1/metadata").endpoint, Endpoint::kOther);  // no prefix match

  // One surface: unversioned paths route nowhere.
  for (const char* path : {"/api/meta", "/api/apps", "/api/app/7", "/api/app/7/comments",
                           "/api/app/7/apk", "/api/query", "/api/metrics"}) {
    EXPECT_EQ(match(path).endpoint, Endpoint::kOther) << path;
  }
}

class ServiceQueryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::GeneratorConfig config;
    config.app_scale = 0.002;
    config.download_scale = 2e-6;
    config.comments = true;
    config.seed = 11;
    generated_ =
        std::make_unique<synth::GeneratedStore>(synth::generate(synth::anzhi(), config));
    policy_.rate_per_second = 1e6;  // the matrix tests fire many requests
    policy_.burst = 1e6;
    service_ = std::make_unique<AppstoreService>(*generated_->store, policy_);
    service_->set_day(60);
  }

  [[nodiscard]] net::HttpResponse get(std::string target) {
    net::HttpRequest request;
    request.method = "GET";
    request.target = std::move(target);
    request.headers["X-Client-Id"] = "proxy-eu-1";
    return service_->respond(request);
  }

  [[nodiscard]] net::HttpResponse post(std::string target, std::string body) {
    net::HttpRequest request;
    request.method = "POST";
    request.target = std::move(target);
    request.body = std::move(body);
    request.headers["X-Client-Id"] = "proxy-eu-1";
    return service_->respond(request);
  }

  /// Asserts the uniform envelope shape and returns error.code.
  [[nodiscard]] static std::string envelope_code(const net::HttpResponse& response) {
    const auto parsed = crawlersim::parse_json(response.body);
    if (!parsed.has_value() || parsed->find("error") == nullptr) return "<no envelope>";
    const crawlersim::Json& error = parsed->at("error");
    if (error.find("code") == nullptr || error.find("message") == nullptr) {
      return "<incomplete envelope>";
    }
    return error.at("code").as_string();
  }

  std::unique_ptr<synth::GeneratedStore> generated_;
  ServicePolicy policy_;
  std::unique_ptr<AppstoreService> service_;
};

TEST_F(ServiceQueryFixture, ServesAllFourKindsMatchingTheEngine) {
  const query::QueryEngine engine(*generated_->store, policy_.query);
  const char* targets[] = {
      "/api/v1/query?kind=top_k_downloads&k=5",
      "/api/v1/query?kind=pareto_share",
      "/api/v1/query?kind=category_affinity&depths=1,2",
      "/api/v1/query?kind=rank_download_curve&points=10",
  };
  for (const char* target : targets) {
    const net::HttpResponse response = get(target);
    ASSERT_EQ(response.status, 200) << target << ": " << response.body;
    const auto parsed = crawlersim::parse_json(response.body);
    ASSERT_TRUE(parsed.has_value()) << target;
    net::HttpRequest request;
    request.target = target;
    const query::QueryResult expected =
        engine.run(crawlersim::parse_query_request(request), 60);
    EXPECT_EQ(parsed->at("kind").as_string(), query::to_string(expected.kind));
    EXPECT_EQ(parsed->at("day").as_integer<std::uint64_t>().value(), 60u);
    EXPECT_EQ(parsed->at("rows_selected").as_integer<std::uint64_t>().value(),
              expected.rows_selected);
    ASSERT_NE(parsed->find("plan"), nullptr);
  }

  // Spot-check the top-k payload against the engine, entry by entry.
  const net::HttpResponse response = get("/api/v1/query?kind=top_k_downloads&k=5");
  const auto parsed = crawlersim::parse_json(response.body);
  query::QuerySpec spec;
  spec.k = 5;
  const query::QueryResult expected = engine.run(spec, 60);
  const auto& top = parsed->at("top").as_array();
  ASSERT_EQ(top.size(), expected.top.size());
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].at("app").as_integer<std::uint64_t>().value(), expected.top[i].app);
    EXPECT_EQ(top[i].at("downloads").as_integer<std::uint64_t>().value(),
              expected.top[i].downloads);
  }
}

TEST_F(ServiceQueryFixture, PostQueryWithStructuredFilter) {
  const net::HttpResponse response = post(
      "/api/v1/query",
      R"({"kind": "top_k_downloads", "k": 3,
          "filter": {"field": "user", "op": "<=", "value": 500}})");
  ASSERT_EQ(response.status, 200) << response.body;
  const auto parsed = crawlersim::parse_json(response.body);
  EXPECT_EQ(parsed->at("kind").as_string(), "top_k_downloads");
  EXPECT_LE(parsed->at("top").as_array().size(), 3u);
}

TEST_F(ServiceQueryFixture, MalformedQueriesGet400EnvelopesNeverCrash) {
  EXPECT_EQ(envelope_code(get("/api/v1/query")), "bad_query");  // kind missing
  EXPECT_EQ(get("/api/v1/query").status, 400);
  EXPECT_EQ(envelope_code(get("/api/v1/query?kind=nope")), "bad_query");
  EXPECT_EQ(envelope_code(get("/api/v1/query?kind=top_k_downloads&k=0")), "bad_query");
  EXPECT_EQ(envelope_code(get("/api/v1/query?kind=top_k_downloads&filter=user+=+3")),
            "bad_filter");
  EXPECT_EQ(envelope_code(
                get("/api/v1/query?kind=top_k_downloads&filter=category=='Nope'")),
            "unknown_category");
  EXPECT_EQ(envelope_code(post("/api/v1/query", "not json")), "bad_query");
  EXPECT_EQ(envelope_code(post("/api/v1/query", R"({"kind": 3})")), "bad_query");

  // A fuzz-ish reject matrix: every response is a 400 envelope, never a crash.
  const char* bad_filters[] = {"user",   "user==",     "user==x",  "((user==1)",
                               "day<'a'", "price==,,", "store>1",  "and and",
                               "user==1 or", "category<=2"};
  for (const char* filter : bad_filters) {
    const net::HttpResponse response =
        get(std::string("/api/v1/query?kind=top_k_downloads&filter=") + filter);
    EXPECT_EQ(response.status, 400) << filter;
    EXPECT_EQ(envelope_code(response), "bad_filter") << filter;
  }
}

TEST_F(ServiceQueryFixture, ErrorEnvelopeCoversEveryPolicyGate) {
  // 404: unknown app and unknown route.
  EXPECT_EQ(get("/api/v1/app/999999").status, 404);
  EXPECT_EQ(envelope_code(get("/api/v1/app/999999")), "not_found");
  EXPECT_EQ(envelope_code(get("/api/v1/nope")), "not_found");
  // 400: bad pagination.
  EXPECT_EQ(envelope_code(get("/api/v1/apps?page=xyz")), "bad_request");
  // 405: POST on a read-only endpoint.
  const net::HttpResponse wrong_method = post("/api/v1/meta", "{}");
  EXPECT_EQ(wrong_method.status, 405);
  EXPECT_EQ(envelope_code(wrong_method), "method_not_allowed");

  // 403: region gate.
  ServicePolicy cn_policy = policy_;
  cn_policy.china_only = true;
  AppstoreService gated(*generated_->store, cn_policy);
  gated.set_day(60);
  net::HttpRequest request;
  request.target = "/api/v1/meta";
  request.headers["X-Client-Id"] = "proxy-eu-1";
  const net::HttpResponse blocked = gated.respond(request);
  EXPECT_EQ(blocked.status, 403);
  EXPECT_EQ(envelope_code(blocked), "region_blocked");

  // 429: rate limit, with retry_after_ms and a Retry-After header.
  ServicePolicy slow_policy = policy_;
  slow_policy.rate_per_second = 0.001;
  slow_policy.burst = 1.0;
  AppstoreService limited(*generated_->store, slow_policy);
  limited.set_day(60);
  (void)limited.respond(request);
  const net::HttpResponse throttled = limited.respond(request);
  EXPECT_EQ(throttled.status, 429);
  EXPECT_EQ(envelope_code(throttled), "rate_limited");
  const auto parsed = crawlersim::parse_json(throttled.body);
  EXPECT_NE(parsed->at("error").find("retry_after_ms"), nullptr);
  EXPECT_NE(throttled.headers.find("Retry-After"), throttled.headers.end());
}

TEST_F(ServiceQueryFixture, UnversionedPathsAreNotFound) {
  for (const char* target : {"/api/meta", "/api/app/0", "/api/query?kind=pareto_share"}) {
    const net::HttpResponse response = get(target);
    EXPECT_EQ(response.status, 404) << target;
    EXPECT_EQ(envelope_code(response), "not_found") << target;
    // The envelope's Content-Type is the only header: no deprecation
    // marker, no successor link.
    ASSERT_EQ(response.headers.size(), 1u) << target;
    EXPECT_EQ(response.headers.begin()->first, "Content-Type") << target;
  }
}

TEST_F(ServiceQueryFixture, QueryResponsesAreCachedPerDay) {
  const auto hits = [&] {
    const auto snapshot = service_->metrics().snapshot();
    const auto* counter = snapshot.find_counter("service_response_cache_total", "hit");
    return counter == nullptr ? 0u : counter->value;
  };
  const std::uint64_t before = hits();
  const net::HttpResponse first = get("/api/v1/query?kind=pareto_share");
  ASSERT_EQ(first.status, 200);
  EXPECT_EQ(hits(), before);  // miss populates
  const net::HttpResponse second = get("/api/v1/query?kind=pareto_share");
  EXPECT_EQ(second.body, first.body);
  EXPECT_EQ(hits(), before + 1);
  // Advancing the day invalidates.
  service_->set_day(61);
  (void)get("/api/v1/query?kind=pareto_share");
  EXPECT_EQ(hits(), before + 1);

  // POST bodies key the cache too: different bodies, different entries.
  service_->set_day(60);
  const net::HttpResponse post_a = post("/api/v1/query", R"({"kind": "pareto_share"})");
  const net::HttpResponse post_b =
      post("/api/v1/query", R"({"kind": "top_k_downloads", "k": 2})");
  ASSERT_EQ(post_a.status, 200);
  ASSERT_EQ(post_b.status, 200);
  EXPECT_NE(post_a.body, post_b.body);
}

// ---- load-generator query mix ----------------------------------------------------

TEST_F(ServiceQueryFixture, RowsScannedCountsEveryRowTheEngineReads) {
  const auto scanned = [&] {
    return service_->metrics().snapshot().find_counter("query_rows_scanned_total")->value;
  };
  const auto delta = [&](const std::string& target) {
    const std::uint64_t before = scanned();
    const net::HttpResponse response = get(target);
    EXPECT_EQ(response.status, 200) << target << ": " << response.body;
    return scanned() - before;
  };
  const market::AppStore& store = *generated_->store;
  const std::uint64_t rows = store.download_log().size();
  // The first store-wide download query builds the table: every row, once.
  EXPECT_EQ(delta("/api/v1/query?kind=pareto_share&filter=day<=40"), rows);
  // Further ones at that frontier read no row.
  EXPECT_EQ(delta("/api/v1/query?kind=top_k_downloads&filter=category==3"), 0u);
  EXPECT_EQ(delta("/api/v1/query?kind=rank_download_curve"), 0u);
  EXPECT_EQ(delta("/api/v1/query?kind=top_k_downloads&filter=price>1+and+day>=10"), 0u);
  // `day != D` scans the column; `user == K` reads K's rows off the index.
  EXPECT_EQ(delta("/api/v1/query?kind=top_k_downloads&filter=day!=40"), rows);
  EXPECT_EQ(delta("/api/v1/query?kind=pareto_share&filter=user==7"),
            store.download_log().stream_size(7));
  // A new row moves the frontier: the next table counts every row again.
  generated_->store->record_download(market::UserId{7}, market::AppId{0}, 30);
  EXPECT_EQ(delta("/api/v1/query?kind=top_k_downloads&filter=category==3"), rows + 1);
}

TEST(LoadQueryMix, ScheduleRotatesQueryKindsDeterministically) {
  load::ScheduleOptions options;
  options.clients = 4;
  options.requests_per_client = 64;
  options.mix.query_weight = 1.0;
  options.mix.meta_weight = 0.0;
  options.mix.apps_weight = 0.0;
  options.mix.app_weight = 0.0;
  options.mix.comments_weight = 0.0;
  options.mix.query_user_count = 50;

  const load::Schedule schedule = load::build_schedule(options);
  bool saw_kind[4] = {false, false, false, false};
  for (const auto& client : schedule.per_client) {
    for (const load::Request& request : client) {
      EXPECT_EQ(request.kind, load::OpKind::kQuery);
      EXPECT_EQ(request.target.rfind("/api/v1/query?kind=", 0), 0u) << request.target;
      if (request.target.find("kind=top_k_downloads") != std::string::npos) {
        saw_kind[0] = true;
        // The selective filter stays within the configured user universe.
        const auto pos = request.target.find("filter=user==");
        ASSERT_NE(pos, std::string::npos);
        EXPECT_LT(std::stoul(request.target.substr(pos + 13)), 50u);
      }
      if (request.target.find("kind=pareto_share") != std::string::npos) saw_kind[1] = true;
      if (request.target.find("kind=category_affinity") != std::string::npos) {
        saw_kind[2] = true;
      }
      if (request.target.find("kind=rank_download_curve") != std::string::npos) {
        saw_kind[3] = true;
      }
    }
  }
  for (const bool seen : saw_kind) EXPECT_TRUE(seen);

  // Pure function of the options: a second build is identical.
  const load::Schedule again = load::build_schedule(options);
  ASSERT_EQ(again.per_client.size(), schedule.per_client.size());
  for (std::size_t c = 0; c < schedule.per_client.size(); ++c) {
    ASSERT_EQ(again.per_client[c].size(), schedule.per_client[c].size());
    for (std::size_t i = 0; i < schedule.per_client[c].size(); ++i) {
      EXPECT_EQ(again.per_client[c][i].target, schedule.per_client[c][i].target);
    }
  }
}

TEST(LoadQueryMix, DefaultMixEmitsNoQueries) {
  load::ScheduleOptions options;
  options.clients = 2;
  options.requests_per_client = 100;
  const load::Schedule schedule = load::build_schedule(options);
  for (const auto& client : schedule.per_client) {
    for (const load::Request& request : client) {
      EXPECT_NE(request.kind, load::OpKind::kQuery);
    }
  }
}

}  // namespace
}  // namespace appstore
