// Tests for the crawler substrate: JSON, the appstore REST service, the
// crawl database, and the end-to-end crawler with proxy rotation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "crawler/apk.hpp"
#include "crawler/crawler.hpp"
#include "crawler/database.hpp"
#include "crawler/json.hpp"
#include "crawler/service.hpp"
#include "obs/registry.hpp"
#include "synth/generator.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace appstore::crawlersim {
namespace {

// ---- JSON ------------------------------------------------------------------------

TEST(Json, DumpPrimitives) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

/// The writer's documented number format: printf "%.0f" for integral values
/// below 2^53, "%.17g" otherwise, "null" for NaN and infinities.
std::string printf_number(double value) {
  if (std::isnan(value) || std::isinf(value)) return "null";
  char buffer[32];
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
  }
  return buffer;
}

TEST(Json, NumbersMatchPrintfFormatting) {
  const double two53 = 9007199254740992.0;
  const std::vector<double> edges = {
      0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1.5, 0.1, 1.0 / 3.0, two53 - 1, -(two53 - 1),
      two53, two53 + 2, -two53, 1e15 + 0.5, 1e16, 1e17, 1e21, 1e22, 1e300, -1e300,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), 1e-310, -2.5e-320, 4.9406564584124654e-324,
      std::numeric_limits<double>::quiet_NaN(), std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  for (const double value : edges) {
    EXPECT_EQ(Json(value).dump(), printf_number(value)) << printf_number(value);
  }
  EXPECT_EQ(Json(-0.0).dump(), "-0");

  // Seeded sweep over every shape the service emits: raw bit patterns (all
  // exponents, subnormals included), integers up to 2^53, dyadic fractions
  // and uniform doubles across scales.
  util::Rng rng(0x6a50);
  std::size_t mismatches = 0;
  for (int i = 0; i < 200000; ++i) {
    double value = 0.0;
    switch (i % 4) {
      case 0: value = std::bit_cast<double>(rng()); break;
      case 1:
        value = static_cast<double>(static_cast<std::int64_t>(rng() >> 10)) *
                (rng.chance(0.5) ? 1.0 : -1.0);
        break;
      case 2: value = static_cast<double>(rng() >> 40) / 1024.0; break;
      default: value = rng.uniform() * std::pow(10.0, rng.uniform(-30.0, 30.0)); break;
    }
    if (Json(value).dump() != printf_number(value) && ++mismatches <= 5) {
      ADD_FAILURE() << printf_number(value) << " dumped as " << Json(value).dump();
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Json, DumpEscapes) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, DumpNested) {
  const Json value = json_object(
      {{"ids", Json(JsonArray{Json(1), Json(2)})}, {"meta", json_object({{"ok", Json(true)}})}});
  EXPECT_EQ(value.dump(), R"({"ids":[1,2],"meta":{"ok":true}})");
}

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(parse_json("null")->is_null());
  EXPECT_TRUE(parse_json("true")->as_bool());
  EXPECT_DOUBLE_EQ(parse_json("-2.5e2")->as_number(), -250.0);
  EXPECT_EQ(parse_json("\"x\\ny\"")->as_string(), "x\ny");
}

TEST(Json, ParseUnicodeEscape) {
  EXPECT_EQ(parse_json("\"\\u0041\"")->as_string(), "A");
  EXPECT_EQ(parse_json("\"\\u00e9\"")->as_string(), "\xc3\xa9");  // é in UTF-8
}

TEST(Json, RoundTripComplex) {
  const std::string text =
      R"({"a":[1,2,{"b":null}],"c":"x","d":false,"e":{"f":[[]]},"g":1e3})";
  const auto parsed = parse_json(text);
  ASSERT_TRUE(parsed.has_value());
  const auto reparsed = parse_json(parsed->dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*parsed, *reparsed);
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_json("").has_value());
  EXPECT_FALSE(parse_json("{").has_value());
  EXPECT_FALSE(parse_json("[1,]").has_value());
  EXPECT_FALSE(parse_json("{\"a\":}").has_value());
  EXPECT_FALSE(parse_json("{\"a\":1,}").has_value());
  EXPECT_FALSE(parse_json("\"unterminated").has_value());
  EXPECT_FALSE(parse_json("1 2").has_value());        // trailing garbage
  EXPECT_FALSE(parse_json("nully").has_value());
  EXPECT_FALSE(parse_json("{'a':1}").has_value());    // single quotes
}

TEST(Json, ParseWhitespaceTolerant) {
  const auto parsed = parse_json("  { \"a\" :\n[ 1 , 2 ]\t}  ");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("a").as_array().size(), 2u);
}

TEST(Json, FindAndAt) {
  const Json value = json_object({{"x", Json(1)}});
  EXPECT_NE(value.find("x"), nullptr);
  EXPECT_EQ(value.find("y"), nullptr);
  EXPECT_THROW((void)value.at("y"), std::out_of_range);
  EXPECT_EQ(Json(1).find("x"), nullptr);  // non-object
}

TEST(Json, DeepNestingGuard) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(parse_json(deep).has_value());  // beyond depth limit
}

// ---- database --------------------------------------------------------------------

AppRecord meta(std::uint32_t id, bool paid = false) {
  AppRecord record;
  record.id = id;
  record.name = "app";
  record.category = "games";
  record.developer = "dev";
  record.paid = paid;
  return record;
}

TEST(Database, RecordAndUpsert) {
  CrawlDatabase database;
  database.record(meta(1), 0, AppObservation{100, 1, 0.0});
  database.record(meta(1), 1, AppObservation{150, 2, 0.0});
  EXPECT_EQ(database.app_count(), 1u);
  const AppRecord* record = database.find(1);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->by_day.size(), 2u);
  EXPECT_EQ(record->by_day.at(1).downloads, 150u);
  EXPECT_EQ(record->first_seen, 0);
}

TEST(Database, SnapshotSeriesAccumulates) {
  CrawlDatabase database;
  database.record(meta(1), 0, AppObservation{100, 1, 0.0});
  database.record(meta(1), 1, AppObservation{150, 1, 0.0});
  database.record(meta(2), 1, AppObservation{30, 1, 0.0});
  const auto series = database.snapshot_series();
  ASSERT_EQ(series.snapshots().size(), 2u);
  EXPECT_EQ(series.snapshots()[0].total_apps, 1u);
  EXPECT_EQ(series.snapshots()[0].total_downloads, 100u);
  EXPECT_EQ(series.snapshots()[1].total_apps, 2u);
  EXPECT_EQ(series.snapshots()[1].total_downloads, 180u);
}

TEST(Database, RanksAndPricingFilter) {
  CrawlDatabase database;
  database.record(meta(1), 0, AppObservation{100, 1, 0.0});
  database.record(meta(2, true), 0, AppObservation{5, 1, 1.99});
  database.record(meta(3), 0, AppObservation{40, 1, 0.0});
  const auto all = database.downloads_by_rank(0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(all[0], 100.0);
  EXPECT_DOUBLE_EQ(all[2], 5.0);
  const auto paid = database.downloads_by_rank(0, true);
  ASSERT_EQ(paid.size(), 1u);
  EXPECT_DOUBLE_EQ(paid[0], 5.0);
}

TEST(Database, UpdatesFromVersionDelta) {
  CrawlDatabase database;
  database.record(meta(1), 0, AppObservation{1, 1, 0.0});
  database.record(meta(1), 5, AppObservation{2, 3, 0.0});
  database.record(meta(2), 0, AppObservation{1, 1, 0.0});
  const auto updates = database.updates_per_app();
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_DOUBLE_EQ(updates[0], 2.0);  // version 1 -> 3
  EXPECT_DOUBLE_EQ(updates[1], 0.0);
}


// ---- APK artifacts (the Androguard substitute, §6.3) -------------------------

TEST(Apk, BuildScanRoundTrip) {
  const std::vector<std::string> ads = {ad_network_signatures()[3],
                                        ad_network_signatures()[7]};
  const std::string blob = build_apk(42, 2, ads, 1000);
  const auto header = parse_apk_header(blob);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->app_id, 42u);
  EXPECT_EQ(header->version, 2u);
  const auto scan = scan_apk(blob);
  ASSERT_TRUE(scan.has_value());
  EXPECT_TRUE(scan->has_ads());
  EXPECT_EQ(scan->ad_libraries.size(), 2u);
}

TEST(Apk, CleanApkScansClean) {
  const std::string blob = build_apk(7, 1, {}, 500);
  const auto scan = scan_apk(blob);
  ASSERT_TRUE(scan.has_value());
  EXPECT_FALSE(scan->has_ads());
}

TEST(Apk, DeterministicPerAppAndVersion) {
  const auto ads = select_ad_libraries(5, true);
  EXPECT_EQ(build_apk(5, 1, ads), build_apk(5, 1, ads));
  EXPECT_NE(build_apk(5, 1, ads), build_apk(5, 2, ads));
}

TEST(Apk, SelectAdLibrariesStableAndBounded) {
  EXPECT_TRUE(select_ad_libraries(9, false).empty());
  const auto first = select_ad_libraries(9, true);
  const auto second = select_ad_libraries(9, true);
  EXPECT_EQ(first, second);
  EXPECT_GE(first.size(), 1u);
  EXPECT_LE(first.size(), 3u);
}

TEST(Apk, RejectsGarbage) {
  EXPECT_FALSE(parse_apk_header("not an apk").has_value());
  EXPECT_FALSE(scan_apk("APK1\n1\n").has_value());
}

// ---- service + crawler integration ------------------------------------------------

class ServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::GeneratorConfig config;
    config.app_scale = 0.002;       // ~120 apps
    config.download_scale = 2e-6;   // ~5.6k downloads
    config.comments = true;
    config.seed = 11;
    generated_ = std::make_unique<synth::GeneratedStore>(synth::generate(synth::anzhi(), config));
  }

  std::unique_ptr<synth::GeneratedStore> generated_;
};

TEST_F(ServiceFixture, MetaAndAppEndpoints) {
  ServicePolicy policy;
  AppstoreService service(*generated_->store, policy);
  service.set_day(generated_->store->apps().size() > 0 ? 60 : 0);

  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";

  const auto meta_response = client.get("/api/v1/meta", headers);
  ASSERT_EQ(meta_response.status, 200);
  const auto meta_json = parse_json(meta_response.body);
  ASSERT_TRUE(meta_json.has_value());
  EXPECT_EQ(meta_json->at("store").as_string(), "Anzhi");
  EXPECT_EQ(meta_json->at("total_apps").as_integer<std::uint64_t>().value(),
            generated_->store->apps().size());

  const auto app_response = client.get("/api/v1/app/0", headers);
  ASSERT_EQ(app_response.status, 200);
  const auto app_json = parse_json(app_response.body);
  EXPECT_EQ(app_json->at("downloads").as_integer<std::uint64_t>().value(),
            generated_->store->downloads_of(market::AppId{0}));
  EXPECT_FALSE(app_json->at("paid").as_bool());
}

TEST_F(ServiceFixture, PaginationCoversDirectory) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  service.set_day(60);
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";

  std::size_t seen = 0;
  for (std::uint64_t page = 0;; ++page) {
    const auto response =
        client.get(util::format("/api/v1/apps?page={}&per_page=50", page), headers);
    ASSERT_EQ(response.status, 200);
    const auto parsed = parse_json(response.body);
    const auto& ids = parsed->at("ids").as_array();
    seen += ids.size();
    if (ids.size() < 50) break;
  }
  EXPECT_EQ(seen, generated_->store->apps().size());
}

TEST_F(ServiceFixture, PagesWhoseFirstRowOverflowsAreEmpty) {
  // page * per_page past 2^64 must not wrap to a small row index: such a
  // page starts past every end, so it answers the empty page with the true
  // total, as any page past the end does.
  ServicePolicy policy;
  policy.rate_per_second = 1e9;
  policy.burst = 1e9;
  AppstoreService service(*generated_->store, policy);
  service.set_day(1 << 20);
  const auto answer = [&](const std::string& target) {
    net::HttpRequest request;
    request.target = target;
    const net::HttpResponse response = service.respond(request);
    EXPECT_EQ(response.status, 200) << target << " " << response.body;
    return *parse_json(response.body);
  };

  const std::uint64_t apps =
      answer("/api/v1/apps?page=1000").at("total").as_integer<std::uint64_t>().value();
  ASSERT_GT(apps, 84u);  // 184467440737095517 * 100 wraps to row 84
  for (const std::string target : {"/api/v1/apps?page=184467440737095517&per_page=100",
                                   "/api/v1/apps?page=9223372036854775808&per_page=50",
                                   "/api/v1/apps?page=18446744073709551615&per_page=500"}) {
    const Json page = answer(target);
    EXPECT_TRUE(page.at("ids").as_array().empty()) << target << " " << page.dump();
    EXPECT_EQ(page.at("total").as_integer<std::uint64_t>().value(), apps) << target;
  }

  // 2^61 * 200 wraps to row 0: the first page's rows at the parent.
  std::uint64_t id = 0;
  std::uint64_t total = 0;
  for (; id < generated_->store->apps().size(); ++id) {
    total =
        answer(util::format("/api/v1/app/{}/comments", id))
            .at("total")
            .as_integer<std::uint64_t>()
            .value();
    if (total > 0) break;
  }
  ASSERT_GT(total, 0u) << "no commented app";
  for (const std::string page : {"2305843009213693952", "18446744073709551615"}) {
    const Json comments = answer(util::format("/api/v1/app/{}/comments?page={}", id, page));
    EXPECT_TRUE(comments.at("comments").as_array().empty()) << page << " " << comments.dump();
    EXPECT_EQ(comments.at("total").as_integer<std::uint64_t>().value(), total) << page;
  }
}

TEST_F(ServiceFixture, UnknownRoutesAnd404) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  service.set_day(60);
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";
  EXPECT_EQ(client.get("/nope", headers).status, 404);
  EXPECT_EQ(client.get("/api/v1/app/999999", headers).status, 404);
  EXPECT_EQ(client.get("/api/v1/app/abc", headers).status, 404);
  EXPECT_EQ(client.get("/api/v1/apps?page=xyz", headers).status, 400);
}

TEST_F(ServiceFixture, RateLimiting429) {
  ServicePolicy policy;
  policy.rate_per_second = 0.001;  // effectively no refill during the test
  policy.burst = 3.0;
  AppstoreService service(*generated_->store, policy);
  service.set_day(60);
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-9";
  EXPECT_EQ(client.get("/api/v1/meta", headers).status, 200);
  EXPECT_EQ(client.get("/api/v1/meta", headers).status, 200);
  EXPECT_EQ(client.get("/api/v1/meta", headers).status, 200);
  EXPECT_EQ(client.get("/api/v1/meta", headers).status, 429);
  // A different client identity (proxy) is unaffected.
  net::Headers other;
  other["X-Client-Id"] = "proxy-eu-10";
  EXPECT_EQ(client.get("/api/v1/meta", other).status, 200);
}

TEST_F(ServiceFixture, RegionGating403) {
  ServicePolicy policy;
  policy.china_only = true;
  AppstoreService service(*generated_->store, policy);
  service.set_day(60);
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers european;
  european["X-Client-Id"] = "proxy-eu-1";
  EXPECT_EQ(client.get("/api/v1/meta", european).status, 403);
  net::Headers chinese;
  chinese["X-Client-Id"] = "proxy-cn-1";
  EXPECT_EQ(client.get("/api/v1/meta", chinese).status, 200);
}

TEST_F(ServiceFixture, DayGatesVisibility) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";

  const auto field = [&](const char* target, const char* name) {
    return parse_json(client.get(target, headers).body)
        ->at(name)
        .as_integer<std::uint64_t>()
        .value();
  };

  service.set_day(0);
  const auto early = field("/api/v1/meta", "total_apps");
  service.set_day(60);
  const auto late = field("/api/v1/meta", "total_apps");
  EXPECT_LT(early, late);  // new apps appeared during the crawl window

  // Downloads are cumulative in the day.
  service.set_day(0);
  const auto d0 = field("/api/v1/app/0", "downloads");
  service.set_day(60);
  const auto d60 = field("/api/v1/app/0", "downloads");
  EXPECT_LE(d0, d60);
  EXPECT_EQ(d60, generated_->store->downloads_of(market::AppId{0}));
}

TEST_F(ServiceFixture, CommentsEndpointPaginates) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  service.set_day(60);
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";
  const auto response = client.get("/api/v1/app/0/comments?page=0", headers);
  ASSERT_EQ(response.status, 200);
  const auto parsed = parse_json(response.body);
  EXPECT_TRUE(parsed->at("comments").is_array());
}

TEST_F(ServiceFixture, CrawlerEndToEndMatchesGroundTruth) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  CrawlDatabase database;
  CrawlerOptions config;
  config.port = service.port();
  config.proxy_count = 6;
  Crawler crawler(config, database);

  for (market::Day day : {0, 30, 60}) {
    service.set_day(day);
    const CrawlStats stats = crawler.crawl_day(day);
    EXPECT_GT(stats.apps_observed, 0u);
  }

  // Every app visible on day 60 was observed, with exact download counts.
  EXPECT_EQ(database.app_count(), generated_->store->apps().size());
  for (const auto& app : generated_->store->apps()) {
    const AppRecord* record = database.find(app.id.value);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->by_day.rbegin()->second.downloads,
              generated_->store->downloads_of(app.id))
        << "app " << app.id.value;
  }

  // The snapshot series should show growth across the three crawl days.
  const auto series = database.snapshot_series();
  ASSERT_EQ(series.snapshots().size(), 3u);
  EXPECT_LT(series.snapshots()[0].total_downloads, series.snapshots()[2].total_downloads);
}

TEST_F(ServiceFixture, CrawlerSurvivesInjectedFailures) {
  ServicePolicy policy;
  policy.failure_rate = 0.15;
  AppstoreService service(*generated_->store, policy);
  service.set_day(60);

  CrawlDatabase database;
  CrawlerOptions config;
  config.port = service.port();
  config.proxy_count = 12;
  config.max_attempts = 8;
  Crawler crawler(config, database);
  const CrawlStats stats = crawler.crawl_day(60);
  EXPECT_GT(stats.transient_failures, 0u);  // failures actually happened
  // Retries should still recover nearly all apps.
  EXPECT_GT(database.app_count(), generated_->store->apps().size() * 9 / 10);
}

TEST_F(ServiceFixture, MetricsEndpointMatchesCrawlerTallies) {
  ServicePolicy policy;
  policy.failure_rate = 0.1;  // exercise the injected-failure counter
  AppstoreService service(*generated_->store, policy);
  service.set_day(60);

  CrawlDatabase database;
  obs::Registry crawler_metrics;
  CrawlerOptions options;
  options.port = service.port();
  options.proxy_count = 12;
  options.max_attempts = 8;
  options.metrics = &crawler_metrics;
  Crawler crawler(options, database);
  const CrawlStats stats = crawler.crawl_day(60);
  ASSERT_GT(stats.requests, 0u);
  EXPECT_GT(stats.transient_failures, 0u);

  // The crawler's own registry mirrors its CrawlStats tallies exactly.
  const auto crawler_snapshot = crawler_metrics.snapshot();
  EXPECT_EQ(crawler_snapshot.find_counter("crawler_requests_total")->value, stats.requests);
  EXPECT_EQ(crawler_snapshot.find_counter("crawler_responses_total", "429")->value,
            stats.rate_limited);
  EXPECT_EQ(crawler_snapshot.find_counter("crawler_responses_total", "5xx")->value,
            stats.transient_failures);

  // Scrape the service's own registry. /api/v1/metrics bypasses region
  // gating, rate limiting and failure injection, so the scrape always
  // succeeds.
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";
  const auto response = client.get("/api/v1/metrics", headers);
  ASSERT_EQ(response.status, 200);
  const auto parsed = parse_json(response.body);
  ASSERT_TRUE(parsed.has_value());

  const auto find_counter = [&](std::string_view name,
                                std::string_view label) -> std::uint64_t {
    for (const auto& counter : parsed->at("counters").as_array()) {
      if (counter.at("name").as_string() == name && counter.at("label").as_string() == label) {
        return counter.at("value").as_integer<std::uint64_t>().value();
      }
    }
    return 0;
  };

  // Per-endpoint request counters increment before every policy gate, so
  // their sum (excluding this scrape itself) equals the crawler's attempt
  // count — on loopback no request is lost in transport.
  std::uint64_t service_requests = 0;
  for (const auto& counter : parsed->at("counters").as_array()) {
    if (counter.at("name").as_string() == "service_requests_total" &&
        counter.at("label").as_string() != "metrics") {
      service_requests += counter.at("value").as_integer<std::uint64_t>().value();
    }
  }
  EXPECT_EQ(service_requests, stats.requests);
  // The crawler speaks only the /api/v1 surface: no request fell through to
  // the catch-all route.
  EXPECT_EQ(find_counter("service_requests_total", "other"), 0u);
  EXPECT_GT(find_counter("service_requests_total", "app"), 0u);
  EXPECT_EQ(find_counter("rate_limiter_throttled_total", ""), stats.rate_limited);
  EXPECT_EQ(find_counter("service_injected_failures_total", ""), stats.transient_failures);
  EXPECT_EQ(find_counter("service_region_blocked_total", ""), stats.region_blocked);

  // Latency histograms expose p50/p99 per endpoint.
  bool found_latency = false;
  for (const auto& histogram : parsed->at("histograms").as_array()) {
    if (histogram.at("name").as_string() == "service_request_seconds" &&
        histogram.at("label").as_string() == "app") {
      found_latency = true;
      EXPECT_GT(histogram.at("count").as_integer<std::uint64_t>().value(), 0u);
      EXPECT_GT(histogram.at("p50").as_number(), 0.0);
      EXPECT_GE(histogram.at("p99").as_number(), histogram.at("p50").as_number());
    }
  }
  EXPECT_TRUE(found_latency);

  // The text exporter is reachable with ?fmt=text.
  const auto text_response = client.get("/api/v1/metrics?fmt=text", headers);
  ASSERT_EQ(text_response.status, 200);
  EXPECT_NE(text_response.body.find("# TYPE service_requests_total counter"),
            std::string::npos);
}

TEST_F(ServiceFixture, CrawlerConvergesOnChineseProxies) {
  ServicePolicy policy;
  policy.china_only = true;
  AppstoreService service(*generated_->store, policy);
  service.set_day(60);

  CrawlDatabase database;
  CrawlerOptions config;
  config.port = service.port();
  config.proxy_count = 9;  // 3 regions round-robin -> 3 Chinese proxies
  Crawler crawler(config, database);
  const CrawlStats stats = crawler.crawl_day(60);
  EXPECT_GT(stats.region_blocked, 0u);
  EXPECT_EQ(database.app_count(), generated_->store->apps().size());
  // Non-Chinese proxies end up quarantined; Chinese ones stay healthy.
  EXPECT_EQ(crawler.proxies().healthy_count(net::Region::kChina), 3u);
}

TEST_F(ServiceFixture, ApkEndpointServesScannableBlobs) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  service.set_day(60);
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";

  const auto response = client.get("/api/v1/app/0/apk", headers);
  ASSERT_EQ(response.status, 200);
  const auto scan = scan_apk(response.body);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->header.app_id, 0u);
  EXPECT_EQ(scan->has_ads(), generated_->store->app(market::AppId{0}).has_ads);
}

TEST_F(ServiceFixture, CrawlerFetchesEachApkVersionOnce) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  CrawlDatabase database;
  CrawlerOptions config;
  config.port = service.port();
  config.fetch_apks = true;
  Crawler crawler(config, database);

  service.set_day(0);
  const auto first = crawler.crawl_day(0);
  EXPECT_GT(first.apks_fetched, 0u);
  // Re-crawling the same day downloads no new APKs (versions unchanged).
  const auto again = crawler.crawl_day(0);
  EXPECT_EQ(again.apks_fetched, 0u);
  // Moving to the last day fetches only apps whose version advanced plus
  // newly released apps.
  service.set_day(60);
  const auto last = crawler.crawl_day(60);
  EXPECT_LT(last.apks_fetched, first.apks_fetched + 200);

  // The scanned ad fraction matches the store's ground-truth flags.
  std::size_t truth_free = 0;
  std::size_t truth_ads = 0;
  for (const auto& app : generated_->store->apps()) {
    if (app.pricing != market::Pricing::kFree) continue;
    ++truth_free;
    if (app.has_ads) ++truth_ads;
  }
  const double truth_fraction =
      static_cast<double>(truth_ads) / static_cast<double>(truth_free);
  EXPECT_NEAR(database.free_apps_with_ads_fraction(), truth_fraction, 1e-9);
}


}  // namespace
}  // namespace appstore::crawlersim
