// Robustness harness: seeded fault plans replayed against a real in-process
// service/crawler pair, and fuzzed corruption of the binary persistence
// formats.
//
// The headline property: a crawl with injected faults (connection resets,
// synthetic 500s, latency) recovers to a bit-identical observations
// database vs the fault-free crawl, at any thread count, with all waiting
// done in virtual time (chaos::VirtualClock) so the whole scenario replays
// in well under a second of wall clock.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/clock.hpp"
#include "chaos/fault.hpp"
#include "chaos/file_faults.hpp"
#include "crawler/crawler.hpp"
#include "crawler/database.hpp"
#include "crawler/db_io.hpp"
#include "crawler/json.hpp"
#include "crawler/query_json.hpp"
#include "crawler/service.hpp"
#include "events/binary.hpp"
#include "events/live_io.hpp"
#include "net/breaker.hpp"
#include "net/proxy.hpp"
#include "obs/registry.hpp"
#include "query/expression.hpp"
#include "synth/generator.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace appstore {
namespace {

using namespace std::chrono_literals;

[[nodiscard]] std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- decorrelated-jitter backoff --------------------------------------------------

TEST(DecorrelatedBackoff, StaysWithinBounds) {
  util::Rng rng(99);
  const auto base = 20ms;
  const auto cap = 320ms;
  auto previous = base;
  for (int i = 0; i < 200; ++i) {
    previous = crawlersim::decorrelated_backoff(base, cap, previous, rng);
    EXPECT_GE(previous, base);
    EXPECT_LE(previous, cap);
  }
}

TEST(DecorrelatedBackoff, ScheduleIsDeterministicGivenSeed) {
  const auto schedule = [](std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<std::chrono::milliseconds> delays;
    auto previous = 20ms;
    for (int i = 0; i < 8; ++i) {
      previous = crawlersim::decorrelated_backoff(20ms, 320ms, previous, rng);
      delays.push_back(previous);
    }
    return delays;
  };
  EXPECT_EQ(schedule(0x5eed), schedule(0x5eed));
  EXPECT_NE(schedule(0x5eed), schedule(0x5eee));  // jitter actually varies
}

TEST(DecorrelatedBackoff, GrowthIsCappedByTriplePrevious) {
  util::Rng rng(1);
  // From previous == base the draw is bounded by 3 * base.
  for (int i = 0; i < 100; ++i) {
    const auto next = crawlersim::decorrelated_backoff(20ms, 10000ms, 20ms, rng);
    EXPECT_LE(next, 60ms);
  }
}

// ---- proxy quarantine entry/exit --------------------------------------------------

TEST(ProxyQuarantine, EntryAfterConsecutiveFailuresAndExitOnReinstate) {
  net::ProxyPool pool(4, {net::Region::kEurope});
  EXPECT_EQ(pool.healthy_count(), 4u);

  pool.report_failure(0);
  pool.report_failure(0);
  EXPECT_EQ(pool.healthy_count(), 4u);  // below the threshold
  pool.report_failure(0);               // third consecutive failure quarantines
  EXPECT_EQ(pool.healthy_count(), 3u);
  EXPECT_TRUE(pool.proxy(0).quarantined);

  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const auto pick = pool.pick(rng);
    ASSERT_TRUE(pick.has_value());
    EXPECT_NE(*pick, 0u);  // quarantined proxies are never picked
  }

  pool.reinstate(0);
  EXPECT_EQ(pool.healthy_count(), 4u);
  EXPECT_FALSE(pool.proxy(0).quarantined);
  EXPECT_EQ(pool.proxy(0).consecutive_failures, 0u);
}

TEST(ProxyQuarantine, SuccessResetsTheFailureStreak) {
  net::ProxyPool pool(2, {net::Region::kUsa});
  pool.report_failure(1);
  pool.report_failure(1);
  pool.report_success(1);  // streak broken
  pool.report_failure(1);
  pool.report_failure(1);
  EXPECT_EQ(pool.healthy_count(), 2u);  // never reached three in a row
}

// ---- breaker half-open probe budget -----------------------------------------------

TEST(BreakerProbes, HalfOpenAdmitsConfiguredProbeCount) {
  chaos::VirtualClock clock;
  net::CircuitBreaker::Options options;
  options.failure_threshold = 1;
  options.open_timeout = 100ms;
  options.half_open_probes = 2;
  options.success_threshold = 2;
  options.clock = &clock;
  net::CircuitBreaker breaker(options);

  EXPECT_TRUE(breaker.record_failure());
  clock.advance(101ms);
  EXPECT_TRUE(breaker.allow());
  EXPECT_TRUE(breaker.allow());   // two probes admitted
  EXPECT_FALSE(breaker.allow());  // third is rejected
  breaker.record_success();
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kHalfOpen);  // needs two
  breaker.record_success();
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kClosed);
}

// ---- crawler robustness (service + crawler over loopback) -------------------------

class RobustnessFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::GeneratorConfig config;
    config.app_scale = 0.002;      // ~120 apps
    config.download_scale = 2e-6;  // ~5.6k downloads
    config.comments = true;
    config.seed = 11;
    generated_ =
        std::make_unique<synth::GeneratedStore>(synth::generate(synth::anzhi(), config));
  }

  struct CrawlRun {
    crawlersim::CrawlStats stats;   ///< totals over both crawl days
    std::uint64_t injected = 0;     ///< faults the injector fired
    std::string database_bytes;     ///< all four persisted files, concatenated
    std::chrono::nanoseconds wall{0};
  };

  /// One complete two-day crawl against `service`, optionally under the
  /// seeded fault plan, persisted into `dir`.
  CrawlRun run_crawl(crawlersim::AppstoreService& service, chaos::VirtualClock& clock,
                     std::uint64_t fault_seed, bool faulted, std::size_t threads,
                     const std::filesystem::path& dir) {
    chaos::FaultPlan plan;
    plan.seed = fault_seed;
    plan.max_faults_per_key = 2;  // < max_attempts: every target recovers
    plan.rules.push_back(
        {chaos::FaultSite::kExchange, chaos::FaultKind::kConnectionReset, 0.06, {}});
    plan.rules.push_back({chaos::FaultSite::kExchange, chaos::FaultKind::kHttp500, 0.06, {}});
    plan.rules.push_back({chaos::FaultSite::kExchange, chaos::FaultKind::kLatency, 0.05, 100ms});
    std::optional<chaos::FaultInjector> injector;
    if (faulted) injector.emplace(plan);

    crawlersim::CrawlDatabase database;
    crawlersim::CrawlerOptions options;
    options.port = service.port();
    options.proxy_count = 6;
    options.seed = 0x5eed;
    options.threads = threads;
    options.fetch_comments = true;
    options.fetch_apks = true;
    options.breaker.failure_threshold = 0;  // breaker off: pure retry schedule
    options.clock = &clock;
    options.faults = faulted ? &*injector : nullptr;
    crawlersim::Crawler crawler(options, database);

    const auto wall_start = std::chrono::steady_clock::now();
    for (const market::Day day : {market::Day{30}, market::Day{40}}) {
      service.set_day(day);
      (void)crawler.crawl_day(day);
    }
    CrawlRun run;
    run.wall = std::chrono::steady_clock::now() - wall_start;
    run.stats = crawler.totals();
    if (injector.has_value()) run.injected = injector->injected_total();
    crawlersim::save_database(database, dir);
    run.database_bytes = read_file(dir / "observations.bin") + read_file(dir / "apps.csv") +
                         read_file(dir / "observations.csv") +
                         read_file(dir / "apk_scans.csv");
    return run;
  }

  std::unique_ptr<synth::GeneratedStore> generated_;
};

// The headline deliverable: seeded fault replay recovers bit-identically.
TEST_F(RobustnessFixture, FaultedCrawlRecoversBitIdenticallyAcrossThreadCounts) {
  chaos::VirtualClock clock;
  crawlersim::ServicePolicy policy;
  policy.rate_per_second = 1e9;  // no genuine 429s: isolate injected faults
  policy.burst = 1e9;
  crawlersim::AppstoreService service(*generated_->store, policy, 0, clock.time_fn());

  const auto base = std::filesystem::path(::testing::TempDir()) / "robustness_identical";
  const CrawlRun clean = run_crawl(service, clock, 0, /*faulted=*/false, 1, base / "clean");
  ASSERT_GT(clean.stats.apps_observed, 0u);
  ASSERT_FALSE(clean.database_bytes.empty());

  int run_index = 0;
  for (const std::uint64_t fault_seed : {0xabcULL, 0x123ULL}) {
    std::vector<CrawlRun> runs;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const auto virtual_before = clock.elapsed();
      runs.push_back(run_crawl(service, clock, fault_seed, /*faulted=*/true, threads,
                               base / util::format("faulted_{}", run_index++)));
      // All waiting happened in virtual time: the crawl replays fast even
      // though it slept through dozens of injected latencies and backoffs.
      EXPECT_GT(clock.elapsed(), virtual_before);
      EXPECT_LT(runs.back().wall, 5s);
    }

    // Bit-identical recovery: the faulty runs persist byte-for-byte the
    // same database as the fault-free run, at 1 and at 4 threads.
    EXPECT_EQ(runs[0].database_bytes, clean.database_bytes)
        << "single-threaded faulted crawl diverged (seed " << fault_seed << ")";
    EXPECT_EQ(runs[1].database_bytes, clean.database_bytes)
        << "multi-threaded faulted crawl diverged (seed " << fault_seed << ")";

    // The full CrawlStats are thread-count-invariant too.
    EXPECT_EQ(runs[0].stats, runs[1].stats);

    // The scenario is not trivial: faults hit >= 10% of completed requests.
    EXPECT_GE(runs[0].injected * 10, runs[0].stats.requests);
    EXPECT_GT(runs[0].stats.transient_failures, 0u);
  }
}

TEST_F(RobustnessFixture, VirtualClockLetsRateLimitedCrawlFinishFast) {
  chaos::VirtualClock clock;
  crawlersim::ServicePolicy policy;
  policy.rate_per_second = 50.0;  // tight: the crawl must wait for refills
  policy.burst = 5.0;
  crawlersim::AppstoreService service(*generated_->store, policy, 0, clock.time_fn());

  crawlersim::CrawlDatabase database;
  crawlersim::CrawlerOptions options;
  options.port = service.port();
  options.proxy_count = 2;  // few identities: the per-client buckets saturate
  options.clock = &clock;
  crawlersim::Crawler crawler(options, database);

  service.set_day(30);
  const auto wall_start = std::chrono::steady_clock::now();
  const crawlersim::CrawlStats stats = crawler.crawl_day(30);
  const auto wall = std::chrono::steady_clock::now() - wall_start;

  EXPECT_GT(stats.rate_limited, 0u);  // the limiter really pushed back
  EXPECT_GT(stats.apps_observed, 0u);
  EXPECT_EQ(stats.apps_observed, database.apps().size());  // and yet: complete
  EXPECT_GT(clock.elapsed(), 0ns);  // backoffs advanced virtual time
  EXPECT_LT(wall, 10s);             // ...instead of wall time
}

TEST_F(RobustnessFixture, BreakerOpensOnRepeatedResetsAndCrawlCompletes) {
  chaos::VirtualClock clock;
  crawlersim::ServicePolicy policy;
  policy.rate_per_second = 1e9;
  policy.burst = 1e9;
  crawlersim::AppstoreService service(*generated_->store, policy, 0, clock.time_fn());

  chaos::FaultPlan plan;
  plan.seed = 77;
  plan.max_faults_per_key = 3;
  plan.rules.push_back(
      {chaos::FaultSite::kExchange, chaos::FaultKind::kConnectionReset, 0.4, {}});
  chaos::FaultInjector injector(plan);

  obs::Registry registry;
  crawlersim::CrawlDatabase database;
  crawlersim::CrawlerOptions options;
  options.port = service.port();
  options.proxy_count = 4;
  options.clock = &clock;
  options.faults = &injector;
  options.breaker.failure_threshold = 1;  // hair-trigger: every reset trips
  options.breaker.open_timeout = 50ms;
  options.metrics = &registry;
  crawlersim::Crawler crawler(options, database);

  service.set_day(30);
  const crawlersim::CrawlStats stats = crawler.crawl_day(30);

  EXPECT_GT(stats.apps_observed, 0u);
  EXPECT_EQ(stats.apps_observed, database.apps().size());
  const auto snapshot = registry.snapshot();  // keep alive: find_counter aims into it
  EXPECT_GT(snapshot.find_counter("crawler_breaker_open_total")->value, 0u);

  bool any_breaker_opened = false;
  for (std::size_t i = 0; i < options.proxy_count; ++i) {
    any_breaker_opened = any_breaker_opened || crawler.breaker(i).opened_total() > 0;
  }
  EXPECT_TRUE(any_breaker_opened);
  // Transient failures no longer quarantine: the pool stays whole, the
  // breakers did the (temporary) isolation.
  EXPECT_EQ(crawler.proxies().healthy_count(), 4u);
}

// ---- typed load errors ------------------------------------------------------------

// Pinned on ALSG, the live store's segmented format, which writes the shared
// binary::write_header and honors the same torn-write seam as AOBS.
class TypedLoadErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) / "robustness_typed";
    std::filesystem::create_directories(dir_);
    path_ = dir_ / "log.alsg";
    options_.max_rows = 1u << 10;
    options_.segment_rows = 1u << 6;
    options_.max_users = 256;
    log_ = std::make_unique<events::LiveEventLog>(
        events::Columns::kDay | events::Columns::kOrdinal | events::Columns::kRating,
        options_);
    for (std::uint32_t i = 0; i < 100; ++i) {
      log_->append(i % 7, i % 13, static_cast<std::int32_t>(i % 30),
                   static_cast<std::uint8_t>(i % 5 + 1));
    }
    restore();
  }

  /// Loads and reports the typed kind, or nullopt on clean success.
  [[nodiscard]] std::optional<events::binary::LoadErrorKind> load_kind() {
    try {
      (void)events::load_segmented(path_, options_);
      return std::nullopt;
    } catch (const events::binary::LoadError& error) {
      return error.kind();
    }
  }

  void restore() { events::save_segmented(log_->snapshot(), path_); }

  std::filesystem::path dir_;
  std::filesystem::path path_;
  events::LiveOptions options_;
  std::unique_ptr<events::LiveEventLog> log_;
};

TEST_F(TypedLoadErrorTest, EveryHeaderDefectHasItsKind) {
  using events::binary::LoadErrorKind;

  chaos::flip_byte(path_, 0, 0xff);  // magic
  EXPECT_EQ(load_kind(), LoadErrorKind::kBadMagic);
  restore();

  chaos::flip_byte(path_, 4, 0xff);  // endian tag
  EXPECT_EQ(load_kind(), LoadErrorKind::kEndianness);
  restore();

  chaos::flip_byte(path_, 8, 0x02);  // version 1 -> 3
  EXPECT_EQ(load_kind(), LoadErrorKind::kBadVersion);
  restore();

  chaos::flip_byte(path_, 12, 0x80);  // unknown flag bit
  EXPECT_EQ(load_kind(), LoadErrorKind::kBadFlags);
  restore();

  chaos::flip_byte(path_, 16, 0x01);  // count off by one
  EXPECT_EQ(load_kind(), LoadErrorKind::kLengthMismatch);
  restore();

  chaos::truncate_file(path_, 6);  // EOF inside the endian tag
  EXPECT_EQ(load_kind(), LoadErrorKind::kTruncated);
  restore();

  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.put('\0');  // trailing garbage
  }
  EXPECT_EQ(load_kind(), LoadErrorKind::kLengthMismatch);
  restore();

  EXPECT_EQ(load_kind(), std::nullopt);  // pristine file loads clean
}

TEST_F(TypedLoadErrorTest, MissingFileIsATypedOpenError) {
  try {
    (void)events::load_segmented(dir_ / "does_not_exist.alsg", options_);
    FAIL() << "expected LoadError";
  } catch (const events::binary::LoadError& error) {
    EXPECT_EQ(error.kind(), events::binary::LoadErrorKind::kOpen);
  }
}

TEST_F(TypedLoadErrorTest, CorruptedCountCannotTriggerGiantAllocation) {
  // Set the count field to ~2^56 (flip the top byte): the loader must fail
  // on the payload-length check before allocating anything.
  chaos::flip_byte(path_, 23, 0x80);
  EXPECT_EQ(load_kind(), events::binary::LoadErrorKind::kLengthMismatch);
}

// ---- seeded corruption fuzz over the binary formats ------------------------------

TEST(CorruptionFuzz, SegmentedLiveLogLoaderSurvives500SeededCorruptions) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / "robustness_fuzz_alsg";
  std::filesystem::create_directories(dir);
  const auto pristine = dir / "pristine.alsg";
  const auto work = dir / "work.alsg";

  // Small segments so corruption regularly lands in segment headers, not
  // just column payloads.
  events::LiveOptions options;
  options.max_rows = 1u << 10;
  options.segment_rows = 1u << 6;
  options.max_users = 256;
  events::LiveEventLog live(events::Columns::kDay | events::Columns::kRating, options);
  for (std::uint32_t i = 0; i < 600; ++i) {
    live.append(i % 256, i * 31 % 97, static_cast<std::int32_t>(i % 60),
                static_cast<std::uint8_t>(1 + i % 5));
  }
  events::save_segmented(live.snapshot(), pristine);

  std::size_t clean = 0;
  std::size_t typed = 0;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    std::filesystem::copy_file(pristine, work,
                               std::filesystem::copy_options::overwrite_existing);
    util::Rng rng(util::rng::derive_seed(0xa15b, seed));
    const std::string what = chaos::corrupt_file(work, rng);
    try {
      const auto loaded = events::load_segmented(work, options);
      // A flip confined to app/day/rating payload bytes still loads; user
      // bytes are caught by the max_users bound unless the value stays in
      // range — either way the structure held.
      EXPECT_EQ(loaded->frontier(), live.frontier()) << what;
      ++clean;
    } catch (const events::binary::LoadError&) {
      ++typed;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "untyped failure after '" << what << "': " << error.what();
    }
  }
  EXPECT_EQ(clean + typed, 500u);
  EXPECT_GT(typed, 0u);
}

TEST(CorruptionFuzz, ObservationsLoaderSurvives500SeededCorruptions) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / "robustness_fuzz_aobs";
  std::filesystem::create_directories(dir);

  crawlersim::CrawlDatabase database;
  for (std::uint32_t id = 0; id < 40; ++id) {
    crawlersim::AppRecord record;
    record.id = id;
    record.name = util::format("app-{}", id);
    record.category = "Tools";
    record.developer = util::format("dev-{}", id % 7);
    record.paid = id % 3 == 0;
    record.has_ads = id % 2 == 0;
    for (const market::Day day : {market::Day{5}, market::Day{6}}) {
      crawlersim::AppObservation observation;
      observation.downloads = 100u * id + static_cast<std::uint64_t>(day);
      observation.version = 1 + id % 4;
      observation.price_dollars = id % 3 == 0 ? 0.99 : 0.0;
      database.record(record, day, observation);
    }
  }
  crawlersim::save_database(database, dir);
  const auto pristine = dir / "observations_pristine.bin";
  std::filesystem::copy_file(dir / "observations.bin", pristine,
                             std::filesystem::copy_options::overwrite_existing);

  std::size_t clean = 0;
  std::size_t typed = 0;
  std::size_t rejected = 0;  // structurally fine but semantically refused
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    std::filesystem::copy_file(pristine, dir / "observations.bin",
                               std::filesystem::copy_options::overwrite_existing);
    util::Rng rng(util::rng::derive_seed(0xab0b5, seed));
    const std::string what = chaos::corrupt_file(dir / "observations.bin", rng);
    try {
      const crawlersim::CrawlDatabase loaded = crawlersim::load_database(dir);
      EXPECT_EQ(loaded.apps().size(), database.apps().size()) << what;
      ++clean;
    } catch (const events::binary::LoadError&) {
      ++typed;
    } catch (const std::runtime_error&) {
      ++rejected;  // e.g. a flipped app id pointing at an unknown app
    } catch (const std::exception& error) {
      ADD_FAILURE() << "untyped failure after '" << what << "': " << error.what();
    }
  }
  EXPECT_EQ(clean + typed + rejected, 500u);
  EXPECT_GT(typed, 0u);
}


// ---- JSON numbers that must be integers fail closed ---------------------------

/// -1, a fraction, a double far past every integer type, and 2^64: each is
/// outside the range of (or not) an unsigned integer member.
constexpr std::string_view kBadIntegers[] = {"-1", "2.5", "1e300", "18446744073709551616"};

/// `text` with every `<name>` marker replaced by `values[name]`.
[[nodiscard]] std::string fill(std::string text,
                               const std::vector<std::pair<std::string, std::string>>& values) {
  for (const auto& [name, value] : values) {
    const std::string marker = "<" + name + ">";
    for (std::size_t at = text.find(marker); at != std::string::npos; at = text.find(marker)) {
      text.replace(at, marker.size(), value);
    }
  }
  return text;
}

TEST(JsonIntegers, CheckedReadAcceptsOnlyIntegersInRange) {
  const auto read = [](std::string_view text) { return *crawlersim::parse_json(text); };
  EXPECT_EQ(read("7").as_integer<std::uint32_t>(), 7u);
  EXPECT_EQ(read("-1").as_integer<std::int32_t>(), -1);
  EXPECT_EQ(read("4294967295").as_integer<std::uint32_t>(), 4294967295u);
  EXPECT_EQ(read("-2147483648").as_integer<std::int32_t>(), -2147483648);
  EXPECT_FALSE(read("4294967296").as_integer<std::uint32_t>().has_value());
  EXPECT_FALSE(read("2147483648").as_integer<std::int32_t>().has_value());
  EXPECT_FALSE(read("\"7\"").as_integer<std::uint32_t>().has_value());
  for (const std::string_view bad : kBadIntegers) {
    EXPECT_FALSE(read(bad).as_integer<std::uint64_t>().has_value()) << bad;
  }
  EXPECT_FALSE(read("1e300").as_integer<std::int64_t>().has_value());
  EXPECT_FALSE(read("2.5").as_integer<std::int32_t>().has_value());
}

TEST_F(RobustnessFixture, QueryBodyIntegersOutsideTheirRangeAre400) {
  crawlersim::ServicePolicy policy;
  policy.rate_per_second = 1e6;
  policy.burst = 1e6;
  crawlersim::AppstoreService service(*generated_->store, policy);
  service.set_day(60);
  const std::vector<std::pair<std::string, std::string>> bodies = {
      {"k", R"({"kind": "top_k_downloads", "k": <value>})"},
      {"points", R"({"kind": "rank_download_curve", "points": <value>})"},
      {"min_samples", R"({"kind": "category_affinity", "min_samples": <value>})"},
      {"depths", R"({"kind": "category_affinity", "depths": [1, <value>]})"},
  };
  for (const auto& [member, body] : bodies) {
    for (const std::string_view value : kBadIntegers) {
      net::HttpRequest request;
      request.method = "POST";
      request.target = "/api/v1/query";
      request.body = fill(body, {{"value", std::string(value)}});
      request.headers["X-Client-Id"] = "proxy-eu-1";
      const net::HttpResponse response = service.respond(request);
      EXPECT_EQ(response.status, 400) << request.body;
      EXPECT_NE(response.body.find("bad_query"), std::string::npos) << response.body;
    }
  }
}

TEST(JsonIntegers, PartialIntegersOutsideTheirRangeAreBadPartials) {
  const std::string downloads =
      R"({"kind": "top_k_downloads", "day": <day>, "partial": true,)"
      R"( "plan": {"index_scans": <index_scans>, "column_scans": <column_scans>,)"
      R"( "residual_filters": <residual_filters>, "table_lookups": <table_lookups>},)"
      R"( "rows_total": <rows_total>, "rows_selected": <rows_selected>,)"
      R"( "app_count": <app_count>, "counts": [[<app>, <count>]]})";
  const std::string affinity =
      R"({"kind": "category_affinity", "day": <day>, "partial": true,)"
      R"( "rows_total": <rows_total>, "rows_selected": <rows_selected>,)"
      R"( "random_walk": [0.5], "samples": [[<user>, <comments>, 0.25]]})";
  const std::vector<std::pair<std::string, std::string>> valid = {
      {"day", "60"},          {"index_scans", "0"},   {"column_scans", "1"},
      {"residual_filters", "0"}, {"table_lookups", "2"}, {"rows_total", "10"},
      {"rows_selected", "3"}, {"app_count", "5"},     {"app", "4"},
      {"count", "3"},         {"user", "9"},          {"comments", "2"},
  };
  const auto decode = [](const std::string& text) {
    return crawlersim::partial_from_json(*crawlersim::parse_json(text));
  };
  EXPECT_EQ(decode(fill(downloads, valid)).table_lookups, 2u);
  EXPECT_EQ(decode(fill(affinity, valid)).samples.at(0).user, 9u);

  std::size_t rejected = 0;
  for (const std::string& document : {downloads, affinity}) {
    for (const auto& [member, _] : valid) {
      if (document.find("<" + member + ">") == std::string::npos) continue;
      for (const std::string_view bad : kBadIntegers) {
        std::vector<std::pair<std::string, std::string>> values = {{member, std::string(bad)}};
        values.insert(values.end(), valid.begin(), valid.end());
        const std::string text = fill(document, values);
        if (member == "day" && bad == "-1") {
          EXPECT_EQ(decode(text).day, -1);  // a signed member: day -1 is history
          continue;
        }
        try {
          (void)decode(text);
          ADD_FAILURE() << "accepted " << text;
        } catch (const query::QueryError& error) {
          EXPECT_EQ(error.code(), "bad_partial") << text;
          ++rejected;
        }
      }
    }
  }
  // 10 download members and 5 affinity members, 4 values each, less day -1 twice.
  EXPECT_EQ(rejected, (10 + 5) * 4 - 2);
}

}  // namespace
}  // namespace appstore
