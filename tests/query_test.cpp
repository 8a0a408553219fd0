// Tests for the online analytics query engine (ISSUE 6): the predicate
// language, the planner's index-scan-vs-column-scan choice, thread-count
// invariance of execution, the /api/v1/query wire forms, the versioned
// routing table with its deprecation aliases, the uniform error envelope,
// and the load generator's query mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "crawler/json.hpp"
#include "crawler/query_json.hpp"
#include "crawler/service.hpp"
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

  // A store-wide predicate scans the column instead.
  query::QuerySpec wide;
  wide.kind = query::AggregateKind::kParetoShare;
  wide.filter = query::parse_filter("day <= 40");
  (void)engine.run(wide, 60);
  snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.find_counter("query_plan_total", "index_scan")->value, 1u);
  EXPECT_EQ(snapshot.find_counter("query_plan_total", "column_scan")->value, 1u);
  EXPECT_EQ(snapshot.find_counter("query_requests_total", "pareto_share")->value, 1u);
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
    EXPECT_EQ(parsed->at("day").as_u64(), 60u);
    EXPECT_EQ(parsed->at("rows_selected").as_u64(), expected.rows_selected);
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
    EXPECT_EQ(top[i].at("app").as_u64(), expected.top[i].app);
    EXPECT_EQ(top[i].at("downloads").as_u64(), expected.top[i].downloads);
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
