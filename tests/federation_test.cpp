// The federation suite (`ctest -L federation`): the sharded scatter-gather
// gateway's correctness properties.
//
//   * HashRing — load balance within +-25% of uniform across 1000 derived
//     seeds at 64 vnodes, and the consistent-hashing contract: a join moves
//     ~1/N of the keys, all TO the newcomer; a leave restores ownership.
//   * Outcome accounting — every respond() lands in exactly one bucket,
//       requests == ok + http_4xx + http_5xx + transport + breaker_open + shed
//     including under fault plans that kill shard calls; a dead shard is one
//     transport outcome per request until its breaker opens.
//   * Cross-shard parity — fig2 pareto, fig6 affinity and the fig8 rank
//     curve served through the gateway at 1/2/4 shards are element-wise
//     identical (EXPECT_EQ on the parsed doubles — the JSON number path
//     round-trips exactly) to a single store holding the union of events,
//     and land inside the same checked-in goldens golden_test pins.
//   * Per-member breakers — a failing shard among 1,101 members still trips
//     its breaker; re-registering an id keeps its breaker, removing it
//     drops the breaker; forwarded requests reach the ring owner after
//     every add, re-registration and removal.
//   * Typed shard calls — gateways over Federation::attach (ServiceShards)
//     and over HTTP-only upstreams (HttpShards) answer byte-identical bodies
//     for every app, comments page, directory page and parity query, and
//     identical refusal outcomes; /app/<id> equals the single store's body;
//     attach refuses shards whose replicated entity state differs; a typed
//     partial is a shard cache hit the second time, and a fragment the
//     gateway holds outlives the shard cache's clear at capacity, also while
//     other threads sweep the cache.
//   * One day per request — merge_partials refuses fragments of two days,
//     and scatter queries and app pages racing Federation::set_day answer
//     exactly as a single store does at one of the two days.
//   * The answer cache — repeated scatter queries answer the first answer's
//     bytes (an HTTP-only gateway's too, which never hits) while every
//     shard call still runs; after set_day and after a new download the
//     next identical query answers a single store's payload.
//   * A comments page whose first row overflows 64 bits is empty, and every
//     metric family the gateway, the shard services, a durable store, a
//     parallel loop, a fault injector, a load run and a crawler day register
//     is a row of docs/observability.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "chaos/clock.hpp"
#include "chaos/fault.hpp"
#include "crawler/crawler.hpp"
#include "crawler/json.hpp"
#include "crawler/query_json.hpp"
#include "crawler/service.hpp"
#include "events/event_log.hpp"
#include "events/live_log.hpp"
#include "fed/federation.hpp"
#include "fed/gateway.hpp"
#include "fed/ring.hpp"
#include "fed/shard.hpp"
#include "load/harness.hpp"
#include "load/workload.hpp"
#include "market/durable.hpp"
#include "net/http.hpp"
#include "obs/registry.hpp"
#include "par/parallel.hpp"
#include "query/federate.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

#ifndef APPSTORE_GOLDEN_DIR
#error "APPSTORE_GOLDEN_DIR must point at tests/golden (set by tests/CMakeLists.txt)"
#endif
#ifndef APPSTORE_DOCS_DIR
#error "APPSTORE_DOCS_DIR must point at docs/ (set by tests/CMakeLists.txt)"
#endif

namespace appstore {
namespace {

using namespace std::chrono_literals;

/// The query day bound that covers every generated event (same as
/// golden_test: the goldens pin this exact run).
constexpr market::Day kEndOfHistory = 1 << 20;

/// The seeded config the checked-in goldens were generated from.
[[nodiscard]] synth::GeneratorConfig golden_config() {
  synth::GeneratorConfig config;
  config.seed = 0x5eed;
  config.app_scale = 0.01;
  config.download_scale = 5e-5;
  return config;
}

using GoldenMap = std::map<std::string, double>;

[[nodiscard]] GoldenMap read_golden(const std::string& name) {
  GoldenMap golden;
  std::ifstream in(std::string(APPSTORE_GOLDEN_DIR) + "/" + name);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto comma = line.rfind(',');
    if (comma == std::string::npos) continue;
    golden[line.substr(0, comma)] = std::stod(line.substr(comma + 1));
  }
  return golden;
}

[[nodiscard]] net::HttpRequest get(const std::string& target) {
  net::HttpRequest request;
  request.target = target;
  request.headers["X-Client-Id"] = "fed-test";
  return request;
}

/// Every respond() lands in exactly one outcome bucket.
void expect_fully_accounted(const fed::GatewayStats& stats) {
  EXPECT_EQ(stats.requests, stats.ok + stats.http_4xx + stats.http_5xx +
                                stats.transport + stats.breaker_open + stats.shed);
}

// ---- consistent-hash ring properties ---------------------------------------------

TEST(HashRing, LoadWithinQuarterOfUniformAcrossSeeds) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kKeys = 2048;
  constexpr double kUniform = static_cast<double>(kKeys) / kShards;
  for (std::uint64_t trial = 0; trial < 1000; ++trial) {
    fed::RingOptions options;
    options.vnodes = 64;
    options.seed = util::rng::derive_seed(0xba5eba11ULL, trial);
    fed::HashRing ring(options);
    for (std::size_t i = 0; i < kShards; ++i) {
      ASSERT_TRUE(ring.add(util::format("shard-{}", i)));
    }
    std::size_t counts[kShards] = {};
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      ++counts[ring.owner_index(key)];
    }
    for (std::size_t i = 0; i < kShards; ++i) {
      const double load = static_cast<double>(counts[i]);
      ASSERT_GE(load, 0.75 * kUniform) << "seed " << options.seed << " shard " << i;
      ASSERT_LE(load, 1.25 * kUniform) << "seed " << options.seed << " shard " << i;
    }
  }
}

TEST(HashRing, JoinMovesOnlyNewOwnersKeysLeaveRestores) {
  constexpr std::size_t kShards = 4;
  constexpr std::uint64_t kKeys = 2048;
  for (std::uint64_t trial = 0; trial < 100; ++trial) {
    fed::RingOptions options;
    options.seed = util::rng::derive_seed(0x10adedULL, trial);
    fed::HashRing ring(options);
    for (std::size_t i = 0; i < kShards; ++i) ring.add(util::format("shard-{}", i));
    std::vector<std::size_t> before(kKeys);
    for (std::uint64_t key = 0; key < kKeys; ++key) before[key] = ring.owner_index(key);

    ASSERT_TRUE(ring.add("shard-new"));
    std::uint64_t moved = 0;
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      const std::size_t owner = ring.owner_index(key);
      if (owner != before[key]) {
        ++moved;
        // Consistent hashing: every relocated key lands on the newcomer.
        ASSERT_EQ(ring.members()[owner], "shard-new") << "key " << key;
      }
    }
    // Expected fraction is 1/(N+1) = 0.20; the multinomial noise over 2048
    // keys is ~1%, so [12%, 28%] is a many-sigma corridor.
    ASSERT_GE(moved, kKeys * 12 / 100) << "seed " << options.seed;
    ASSERT_LE(moved, kKeys * 28 / 100) << "seed " << options.seed;

    ASSERT_TRUE(ring.remove("shard-new"));
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      ASSERT_EQ(ring.owner_index(key), before[key]) << "key " << key;
    }
  }
}

TEST(HashRing, MembershipBasics) {
  fed::HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW((void)ring.owner(42), std::logic_error);
  EXPECT_TRUE(ring.add("a"));
  EXPECT_FALSE(ring.add("a"));
  EXPECT_TRUE(ring.contains("a"));
  EXPECT_EQ(ring.owner(7), "a");
  EXPECT_FALSE(ring.remove("b"));
  EXPECT_TRUE(ring.remove("a"));
  EXPECT_TRUE(ring.empty());
}

// ---- per-member breakers ---------------------------------------------------------

/// An /api/v1/app/1 body an HttpShard decodes.
constexpr std::string_view kAppBody =
    "{\"id\":1,\"name\":\"a\",\"category\":\"c\",\"developer\":\"d\",\"paid\":false,"
    "\"price\":0,\"downloads\":3,\"version\":1,\"has_ads\":false,\"released\":0}";

/// An upstream exchange that answers every request 200 with `body`.
[[nodiscard]] fed::FederationGateway::Call healthy_call(std::string_view body = "{}") {
  return [response = net::HttpResponse::json(200, std::string(body))](
             const net::HttpRequest&) { return response; };
}

/// An upstream exchange that fails below HTTP on every request.
[[nodiscard]] fed::FederationGateway::Call dead_call() {
  return [](const net::HttpRequest&) -> net::HttpResponse {
    throw std::runtime_error("connection refused");
  };
}

TEST(MemberBreakers, FailingShardAmongThousandsOfMembersTripsItsBreaker) {
  // More members than a 1,024-entry breaker table holds. The dead shard
  // joins first, so a table evicting its stalest entries would drop the dead
  // shard's breaker during every scatter and it would never open.
  constexpr std::uint64_t kHealthy = 1100;
  fed::FederationGateway gateway;
  gateway.add_upstream("shard-dead", dead_call());
  for (std::uint64_t i = 0; i < kHealthy; ++i) {
    gateway.add_upstream(util::format("shard-{}", i), healthy_call(kAppBody));
  }
  for (int i = 0; i < 5; ++i) {
    const auto response = gateway.respond(get("/api/v1/app/1"));
    EXPECT_EQ(response.status, 502) << response.body;
  }
  const auto response = gateway.respond(get("/api/v1/app/1"));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("breaker_open"), std::string::npos) << response.body;

  const auto stats = gateway.stats();
  EXPECT_EQ(stats.transport, 5u);
  EXPECT_EQ(stats.breaker_open, 1u);
  // A scatter still calls every member whose breaker lets it through.
  EXPECT_EQ(stats.upstream_calls, 5 * (kHealthy + 1) + kHealthy);
  expect_fully_accounted(stats);
}

/// A gateway on `clock` whose shard-0 is dead until its breaker opens.
[[nodiscard]] std::unique_ptr<fed::FederationGateway> tripped_gateway(
    chaos::VirtualClock& clock) {
  fed::GatewayOptions options;
  options.clock = &clock;
  auto gateway = std::make_unique<fed::FederationGateway>(options);
  gateway->add_upstream("shard-0", dead_call());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(gateway->respond(get("/api/v1/meta")).status, 502);
  EXPECT_EQ(gateway->respond(get("/api/v1/meta")).status, 503);
  return gateway;
}

TEST(MemberBreakers, ReRegisteringATrippedShardKeepsItsBreaker) {
  chaos::VirtualClock clock;
  const auto gateway = tripped_gateway(clock);
  gateway->add_upstream("shard-0", healthy_call());
  // The healthy replacement waits out the open breaker it inherited.
  const auto open_timeout = gateway->options().breaker.open_timeout;
  EXPECT_EQ(gateway->respond(get("/api/v1/meta")).status, 503);
  clock.advance(open_timeout - 1ms);
  EXPECT_EQ(gateway->respond(get("/api/v1/meta")).status, 503);
  clock.advance(1ms);
  EXPECT_EQ(gateway->respond(get("/api/v1/meta")).status, 200);  // the half-open probe
  EXPECT_EQ(gateway->respond(get("/api/v1/meta")).status, 200);  // closed again
  EXPECT_EQ(gateway->stats().breaker_open, 3u);
  expect_fully_accounted(gateway->stats());
}

TEST(MemberBreakers, RemovingAShardDropsItsBreaker) {
  chaos::VirtualClock clock;
  const auto gateway = tripped_gateway(clock);
  ASSERT_TRUE(gateway->remove_upstream("shard-0"));
  gateway->add_upstream("shard-0", healthy_call());
  EXPECT_EQ(gateway->respond(get("/api/v1/meta")).status, 200);
  EXPECT_EQ(gateway->stats().breaker_open, 1u);
  expect_fully_accounted(gateway->stats());
}

// ---- breaker on the virtual clock ------------------------------------------------

TEST(Gateway, DeadShardIsOneTransportOutcomeEachThenBreakerOpens) {
  chaos::FaultPlan plan;
  plan.seed = 13;
  plan.max_faults_per_key = 0;  // uncapped: every call dies
  plan.rules.push_back({chaos::FaultSite::kExchange, chaos::FaultKind::kConnectionReset,
                        /*probability=*/1.0, /*latency=*/0ms});
  chaos::FaultInjector injector(plan);

  chaos::VirtualClock clock;
  fed::GatewayOptions options;
  options.clock = &clock;
  options.faults = &injector;
  fed::FederationGateway gateway(options);
  gateway.add_upstream("shard-0", [](const net::HttpRequest&) {
    return net::HttpResponse::json(200, "{\"store\": \"rig\"}");
  });

  // Default breaker: 5 consecutive failures trip open. Each call records
  // exactly one failure, so responds 1..5 are transport outcomes and
  // respond 6 is answered from the open breaker without calling the shard.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(gateway.respond(get("/api/v1/meta")).status, 502);
  }
  const auto response = gateway.respond(get("/api/v1/meta"));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("breaker_open"), std::string::npos) << response.body;

  const auto stats = gateway.stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.transport, 5u);
  EXPECT_EQ(stats.breaker_open, 1u);
  EXPECT_EQ(stats.upstream_calls, 5u);
  EXPECT_EQ(stats.hedges, 0u);
  expect_fully_accounted(stats);
}

// ---- gateway error surfaces ------------------------------------------------------

TEST(Gateway, NoUpstreamsIsShed) {
  fed::FederationGateway gateway;
  const auto response = gateway.respond(get("/api/v1/meta"));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("no_upstreams"), std::string::npos);
  EXPECT_EQ(gateway.stats().shed, 1u);
  expect_fully_accounted(gateway.stats());
}

TEST(Gateway, CommentMergeRefusesUnboundedScan) {
  fed::GatewayOptions options;
  options.comment_scan_pages = 1;
  fed::FederationGateway gateway(options);
  // total = 1000 needs 5 pages of 200; the 1-page bound must refuse, not scan.
  std::size_t pages = 0;
  gateway.add_upstream("shard-0", [&pages](const net::HttpRequest&) {
    ++pages;
    return net::HttpResponse::json(
        200, "{\"app\": 1, \"total\": 1000, \"page\": 0, \"comments\": []}");
  });
  const auto response = gateway.respond(get("/api/v1/app/1/comments"));
  EXPECT_EQ(response.status, 502);
  EXPECT_NE(response.body.find("comment_scan_overflow"), std::string::npos);
  EXPECT_EQ(pages, 1u);
  expect_fully_accounted(gateway.stats());
}

// ---- outcome accounting under a hostile fault plan -------------------------------

TEST(Gateway, AccountingInvariantHoldsUnderFaultPlanLoad) {
  synth::GeneratorConfig config = golden_config();
  config.app_scale = 0.005;  // keep the bring-up cheap; parity has its own suite

  crawlersim::ServicePolicy policy;
  policy.rate_per_second = 1e9;  // the invariant under test is the gateway's,
  policy.burst = 1e9;            // not the shard token buckets'

  fed::FederationOptions federation_options;
  federation_options.profile = synth::anzhi();
  federation_options.config = config;
  federation_options.shards = 2;
  federation_options.policy = policy;
  federation_options.day = kEndOfHistory;
  const fed::Federation federation = fed::build_federation(federation_options);

  chaos::FaultPlan plan;
  plan.seed = 0xfa117;
  plan.max_faults_per_key = 0;  // uncapped — the accounting must not rely on recovery
  plan.rules.push_back({chaos::FaultSite::kExchange, chaos::FaultKind::kConnectionReset,
                        /*probability=*/0.08, /*latency=*/0ms});
  plan.rules.push_back({chaos::FaultSite::kExchange, chaos::FaultKind::kHttp500,
                        /*probability=*/0.05, /*latency=*/0ms});
  chaos::FaultInjector injector(plan);

  chaos::VirtualClock clock;
  fed::GatewayOptions gateway_options;
  gateway_options.clock = &clock;
  gateway_options.faults = &injector;
  fed::FederationGateway gateway(gateway_options);
  federation.attach(gateway);

  load::ScheduleOptions schedule_options;
  schedule_options.seed = 0xfed10ad;
  schedule_options.clients = 4;
  schedule_options.requests_per_client = 150;
  schedule_options.mix.query_weight = 0.1;
  schedule_options.mix.app_count = 200;
  const load::Schedule schedule = load::build_schedule(schedule_options);

  load::RunOptions run_options;
  run_options.respond = [&gateway](const net::HttpRequest& request) {
    return gateway.respond(request);
  };
  run_options.clock = &clock;
  const load::RunReport report = load::run(schedule, run_options);

  // Harness-side: every issued request has exactly one outcome.
  EXPECT_EQ(report.totals.issued,
            report.totals.ok + report.totals.http_4xx + report.totals.http_5xx +
                report.totals.shed + report.totals.transport_errors);
  // The gateway never throws — upstream failures surface as HTTP errors.
  EXPECT_EQ(report.totals.transport_errors, 0u);

  const auto stats = gateway.stats();
  EXPECT_EQ(stats.requests, report.totals.issued);
  expect_fully_accounted(stats);
  // The plan's probabilities guarantee every bucket the plan can reach was
  // actually exercised, so the invariant is not vacuous.
  EXPECT_GT(stats.ok, 0u);
  EXPECT_GT(stats.transport + stats.breaker_open, 0u);
  EXPECT_GT(stats.http_5xx + stats.transport, 0u);
}

// ---- cross-shard parity against the single store and the goldens -----------------

/// A gateway over `federation` whose upstreams register respond() alone
/// (HttpShards), so every shard call passes through JSON.
[[nodiscard]] std::unique_ptr<fed::FederationGateway> http_only_gateway(
    const fed::Federation& federation, fed::GatewayOptions options = {}) {
  auto gateway = std::make_unique<fed::FederationGateway>(std::move(options));
  for (std::size_t i = 0; i < federation.services.size(); ++i) {
    crawlersim::AppstoreService* service = federation.services[i].get();
    gateway->add_upstream(federation.shard_ids[i], [service](const net::HttpRequest& request) {
      return service->respond(request);
    });
  }
  return gateway;
}

class FederationParity : public ::testing::Test {
 protected:
  struct World {
    synth::GeneratedStore single;
    std::unique_ptr<crawlersim::AppstoreService> service;
    std::vector<std::size_t> shard_counts{1, 2, 4};
    std::vector<fed::Federation> federations;
    std::vector<std::unique_ptr<fed::FederationGateway>> gateways;
    /// The same shards registered with their HTTP call alone (HttpShards).
    std::vector<std::unique_ptr<fed::FederationGateway>> http_gateways;
  };

  static void SetUpTestSuite() {
    if (world_ != nullptr) return;
    world_ = new World;
    synth::GeneratorConfig config = golden_config();
    config.comments = true;  // fig6 needs the rated-comment stream

    crawlersim::ServicePolicy policy;
    policy.rate_per_second = 1e9;
    policy.burst = 1e9;

    world_->single = synth::generate(synth::anzhi(), config);
    world_->service =
        std::make_unique<crawlersim::AppstoreService>(*world_->single.store, policy);
    world_->service->set_day(kEndOfHistory);

    for (const std::size_t shards : world_->shard_counts) {
      fed::FederationOptions options;
      options.profile = synth::anzhi();
      options.config = config;
      options.shards = shards;
      options.policy = policy;
      options.day = kEndOfHistory;
      world_->federations.push_back(fed::build_federation(options));
      auto gateway = std::make_unique<fed::FederationGateway>(
          fed::GatewayOptions{.ring = options.ring});
      world_->federations.back().attach(*gateway);
      world_->gateways.push_back(std::move(gateway));
      world_->http_gateways.push_back(http_only_gateway(
          world_->federations.back(), fed::GatewayOptions{.ring = options.ring}));
    }
  }

  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  [[nodiscard]] static net::HttpResponse single_store(const std::string& target) {
    return world_->service->respond(get(target));
  }

  [[nodiscard]] static net::HttpResponse gateway(std::size_t index,
                                                 const std::string& target) {
    return world_->gateways[index]->respond(get(target));
  }

  [[nodiscard]] static net::HttpResponse http_gateway(std::size_t index,
                                                      const std::string& target) {
    return world_->http_gateways[index]->respond(get(target));
  }

  [[nodiscard]] static crawlersim::Json parse_ok(const net::HttpResponse& response) {
    EXPECT_EQ(response.status, 200) << response.body;
    auto parsed = crawlersim::parse_json(response.body);
    EXPECT_TRUE(parsed.has_value()) << response.body;
    return std::move(*parsed);
  }

  static World* world_;
};

FederationParity::World* FederationParity::world_ = nullptr;

TEST_F(FederationParity, ParetoSharesBitExactAndInsideFig2Golden) {
  const GoldenMap fig2 = read_golden("fig2_pareto.csv");
  ASSERT_FALSE(fig2.empty());
  const auto expected = parse_ok(single_store("/api/v1/query?kind=pareto_share"));
  for (std::size_t i = 0; i < world_->shard_counts.size(); ++i) {
    const auto merged = parse_ok(gateway(i, "/api/v1/query?kind=pareto_share"));
    const auto& want = expected.at("pareto").as_array();
    const auto& got = merged.at("pareto").as_array();
    ASSERT_EQ(got.size(), want.size()) << world_->shard_counts[i] << " shards";
    for (std::size_t p = 0; p < want.size(); ++p) {
      const double fraction = want[p].at("fraction").as_number();
      EXPECT_EQ(got[p].at("fraction").as_number(), fraction);
      // Bit-exact against the union store (the merge runs the identical
      // finalizer over the summed per-app counts)...
      EXPECT_EQ(got[p].at("share").as_number(), want[p].at("share").as_number())
          << world_->shard_counts[i] << " shards, fraction " << fraction;
      // ...and inside the fig2 golden corridor like any single-store run.
      const auto golden =
          fig2.find("Anzhi:top" + util::format("{:.2f}", fraction));
      ASSERT_NE(golden, fig2.end());
      EXPECT_NEAR(got[p].at("share").as_number(), golden->second, 0.015);
    }
    EXPECT_EQ(merged.at("total_downloads").as_integer<std::uint64_t>().value(),
              expected.at("total_downloads").as_integer<std::uint64_t>().value());
  }
}

TEST_F(FederationParity, AffinityBitExactAndInsideFig6Golden) {
  const GoldenMap fig6 = read_golden("fig6_affinity.csv");
  ASSERT_FALSE(fig6.empty());
  // min_samples=1 keeps real per-user samples in play at golden scale, so
  // the merge path (concatenate shard samples, rebuild groups) is exercised
  // with non-trivial groups, not just the replicated random-walk baseline.
  for (const std::string_view spec :
       {std::string_view("depths=1,2,3"), std::string_view("depths=1,2,3&min_samples=1")}) {
    const std::string target =
        "/api/v1/query?kind=category_affinity&" + std::string(spec);
    const auto expected = parse_ok(single_store(target));
    for (std::size_t i = 0; i < world_->shard_counts.size(); ++i) {
      const auto merged = parse_ok(gateway(i, target));
      const auto& want = expected.at("affinity").as_array();
      const auto& got = merged.at("affinity").as_array();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t d = 0; d < want.size(); ++d) {
        for (const char* field : {"depth", "mean", "random_walk", "groups", "samples"}) {
          EXPECT_EQ(got[d].at(field).as_number(), want[d].at(field).as_number())
              << world_->shard_counts[i] << " shards, " << spec << ", point " << d
              << ", " << field;
        }
      }
    }
    if (spec != "depths=1,2,3") continue;
    // The default-spec answer is the one fig6_affinity.csv pins.
    for (const auto& point : expected.at("affinity").as_array()) {
      const std::string prefix =
          "anzhi:depth" + std::to_string(point.at("depth").as_integer<std::uint64_t>().value());
      for (const char* field : {"mean", "random_walk", "groups", "samples"}) {
        const auto golden = fig6.find(prefix + ":" + field);
        ASSERT_NE(golden, fig6.end()) << prefix << ":" << field;
        const double expected_value = golden->second;
        EXPECT_NEAR(point.at(field).as_number(), expected_value,
                    1e-6 + 1e-6 * std::abs(expected_value));
      }
    }
  }
  EXPECT_GT(parse_ok(single_store(
                         "/api/v1/query?kind=category_affinity&depths=1&min_samples=1"))
                .at("affinity")
                .as_array()[0]
                .at("groups")
                .as_integer<std::uint64_t>().value(),
            0u)
      << "min_samples=1 was expected to yield real merged groups";
}

TEST_F(FederationParity, RankCurveBitExactAndInsideFig8MeasuredGolden) {
  const GoldenMap curve_golden = read_golden("query_rank_curve.csv");
  ASSERT_FALSE(curve_golden.empty());
  const std::string target = "/api/v1/query?kind=rank_download_curve&points=50";
  const auto expected = parse_ok(single_store(target));
  for (std::size_t i = 0; i < world_->shard_counts.size(); ++i) {
    const auto merged = parse_ok(gateway(i, target));
    const auto& want = expected.at("curve").as_array();
    const auto& got = merged.at("curve").as_array();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < want.size(); ++p) {
      EXPECT_EQ(got[p].at("rank").as_integer<std::uint64_t>().value(),
                want[p].at("rank").as_integer<std::uint64_t>().value());
      EXPECT_EQ(got[p].at("downloads").as_integer<std::uint64_t>().value(),
                want[p].at("downloads").as_integer<std::uint64_t>().value());
      const auto golden =
          curve_golden.find(util::format(
              "anzhi:rank{}", got[p].at("rank").as_integer<std::uint64_t>().value()));
      ASSERT_NE(golden, curve_golden.end());
      EXPECT_NEAR(static_cast<double>(got[p].at("downloads").as_integer<std::uint64_t>().value()),
                  golden->second,
                  1e-9);
    }
    EXPECT_EQ(merged.at("total_downloads").as_integer<std::uint64_t>().value(),
              expected.at("total_downloads").as_integer<std::uint64_t>().value());
  }
}

TEST_F(FederationParity, CommentsMergePreservesTotalsAndRowSet) {
  // Row identity is (user, day, rating). `ordinal` is deliberately absent:
  // it is the store's within-day sequence number stamped at generation, so a
  // shard that skips other users' events assigns different ordinals than the
  // union store — a shard-local position, not replicated content
  // (docs/federation.md documents this next to the merged byte-order caveat).
  using Row = std::tuple<std::uint64_t, double, double>;
  const auto collect = [](const std::function<net::HttpResponse(const std::string&)>& fetch,
                          const std::string& base, std::vector<Row>& rows,
                          std::vector<double>& days) -> std::uint64_t {
    std::uint64_t total = 0;
    for (std::uint64_t page = 0;; ++page) {
      auto parsed = crawlersim::parse_json(
          fetch(util::format("{}?page={}", base, page)).body);
      if (!parsed.has_value()) ADD_FAILURE() << base;
      total = parsed->at("total").as_integer<std::uint64_t>().value();
      const auto& comments = parsed->at("comments").as_array();
      for (const auto& comment : comments) {
        rows.emplace_back(comment.at("user").as_integer<std::uint64_t>().value(),
                          comment.at("day").as_number(),
                          comment.at("rating").as_number());
        days.push_back(comment.at("day").as_number());
      }
      if ((page + 1) * 200 >= total || comments.empty()) break;
    }
    return total;
  };

  // Find an app that actually has comments in the union store.
  const auto directory = parse_ok(single_store("/api/v1/apps?page=0"));
  std::string base;
  for (const auto& id : directory.at("ids").as_array()) {
    const std::string candidate =
        util::format("/api/v1/app/{}/comments", id.as_integer<std::uint64_t>().value());
    const auto probe = parse_ok(single_store(candidate + "?page=0"));
    if (probe.at("total").as_integer<std::uint64_t>().value() > 0) {
      base = candidate;
      break;
    }
  }
  ASSERT_FALSE(base.empty()) << "no commented app at golden scale";

  std::vector<Row> single_rows;
  std::vector<double> single_days;
  const std::uint64_t single_total = collect(
      [](const std::string& t) { return single_store(t); }, base, single_rows,
      single_days);
  ASSERT_EQ(single_rows.size(), single_total);

  for (std::size_t i = 0; i < world_->shard_counts.size(); ++i) {
    std::vector<Row> merged_rows;
    std::vector<double> merged_days;
    const std::uint64_t merged_total = collect(
        [i](const std::string& t) { return gateway(i, t); }, base, merged_rows,
        merged_days);
    EXPECT_EQ(merged_total, single_total) << world_->shard_counts[i] << " shards";
    ASSERT_EQ(merged_rows.size(), single_rows.size());
    // The merged stream is day-ordered (the documented federation order)...
    EXPECT_TRUE(std::is_sorted(merged_days.begin(), merged_days.end()));
    // ...and is exactly the union store's row multiset.
    auto want = single_rows;
    std::sort(want.begin(), want.end());
    std::sort(merged_rows.begin(), merged_rows.end());
    EXPECT_EQ(merged_rows, want) << world_->shard_counts[i] << " shards";
  }
}

TEST_F(FederationParity, SingleUserQueryRoutesToOneShard) {
  net::HttpRequest request = get("/api/v1/query");
  request.method = "POST";
  request.body =
      "{\"kind\": \"top_k_downloads\", \"k\": 5, "
      "\"filter\": {\"field\": \"user\", \"op\": \"==\", \"value\": 7}}";

  const auto expected = parse_ok(world_->service->respond(request));
  const std::size_t four_shards = world_->shard_counts.size() - 1;
  ASSERT_EQ(world_->shard_counts[four_shards], 4u);
  const auto before = world_->gateways[four_shards]->stats();
  const auto merged = parse_ok(world_->gateways[four_shards]->respond(request));
  const auto after = world_->gateways[four_shards]->stats();

  // The fast path: one upstream call, no scatter, no partial merge.
  EXPECT_EQ(after.upstream_calls - before.upstream_calls, 1u);
  const auto& want = expected.at("top").as_array();
  const auto& got = merged.at("top").as_array();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < want.size(); ++p) {
    EXPECT_EQ(got[p].at("app").as_integer<std::uint64_t>().value(),
              want[p].at("app").as_integer<std::uint64_t>().value());
    EXPECT_EQ(got[p].at("downloads").as_integer<std::uint64_t>().value(),
              want[p].at("downloads").as_integer<std::uint64_t>().value());
  }
  EXPECT_EQ(merged.at("total_downloads").as_integer<std::uint64_t>().value(),
            expected.at("total_downloads").as_integer<std::uint64_t>().value());
}

TEST_F(FederationParity, HttpOnlyUpstreamsAnswerByteIdenticalBodies) {
  // Every scatter query above, plus top-k and one POST: the typed exchange
  // and the JSON adapter must merge to the same bytes at every shard count.
  std::vector<net::HttpRequest> requests;
  for (const std::string target : {
           "/api/v1/query?kind=pareto_share",
           "/api/v1/query?kind=category_affinity&depths=1,2,3",
           "/api/v1/query?kind=category_affinity&depths=1,2,3&min_samples=1",
           "/api/v1/query?kind=category_affinity&depths=1&min_samples=1",
           "/api/v1/query?kind=rank_download_curve&points=50",
           "/api/v1/query?kind=top_k_downloads&k=20",
       }) {
    requests.push_back(get(target));
  }
  net::HttpRequest post = get("/api/v1/query");
  post.method = "POST";
  post.body =
      "{\"kind\": \"top_k_downloads\", \"k\": 7, "
      "\"filter\": {\"field\": \"day\", \"op\": \"<=\", \"value\": 60}}";
  requests.push_back(post);

  for (const net::HttpRequest& request : requests) {
    const auto expected = world_->service->respond(request);
    ASSERT_EQ(expected.status, 200) << request.target << " " << expected.body;
    for (std::size_t i = 0; i < world_->shard_counts.size(); ++i) {
      const auto typed = world_->gateways[i]->respond(request);
      const auto adapted = world_->http_gateways[i]->respond(request);
      ASSERT_EQ(typed.status, 200) << typed.body;
      ASSERT_EQ(adapted.status, 200) << adapted.body;
      EXPECT_EQ(typed.body, adapted.body)
          << world_->shard_counts[i] << " shards, " << request.target << request.body;
    }
  }
}

TEST_F(FederationParity, TypedRoutesAnswerByteIdenticalBodies) {
  // Meta, every directory page, and every app's detail and first two
  // comments pages: ServiceShards and HttpShards must write the same bytes,
  // and all but the merged comments must be the single store's own body —
  // an app's summed downloads included.
  const std::size_t apps = world_->single.store->apps().size();
  std::vector<std::string> targets = {"/api/v1/meta"};
  for (std::size_t page = 0; page <= apps / 100; ++page) {
    targets.push_back(util::format("/api/v1/apps?page={}", page));
  }
  std::size_t commented = 0;
  for (std::size_t id = 0; id < apps; ++id) {
    targets.push_back(util::format("/api/v1/app/{}", id));
    targets.push_back(util::format("/api/v1/app/{}/comments?page=0", id));
    targets.push_back(util::format("/api/v1/app/{}/comments?page=1", id));
    const auto comments = parse_ok(single_store(targets.back()));
    if (comments.at("total").as_integer<std::uint64_t>().value() > 0) ++commented;
  }
  ASSERT_GT(commented, 0u) << "no commented app at golden scale";

  for (std::size_t i = 0; i < world_->shard_counts.size(); ++i) {
    std::size_t differ = 0;
    std::size_t unlike_single = 0;
    for (const std::string& target : targets) {
      const auto typed = gateway(i, target);
      const auto http = http_gateway(i, target);
      ASSERT_EQ(typed.status, 200) << target << " " << typed.body;
      if (typed.status != http.status || typed.body != http.body) {
        if (differ++ == 0) ADD_FAILURE() << target << ": " << typed.body << " vs " << http.body;
      }
      if (target.find("comments") == std::string::npos &&
          typed.body != single_store(target).body) {
        if (unlike_single++ == 0) ADD_FAILURE() << target << ": " << typed.body;
      }
    }
    EXPECT_EQ(differ, 0u) << world_->shard_counts[i] << " shards";
    EXPECT_EQ(unlike_single, 0u) << world_->shard_counts[i] << " shards";
  }
}

TEST_F(FederationParity, ShardUnionMatchesSingleStoreEventCounts) {
  // The bring-up contract behind all of the above: disjoint user slices
  // whose union is the whole store.
  const std::uint64_t single_downloads = world_->single.store->total_downloads();
  for (std::size_t i = 0; i < world_->shard_counts.size(); ++i) {
    std::uint64_t downloads = 0;
    for (const auto& generated : world_->federations[i].stores) {
      downloads += generated.store->total_downloads();
    }
    EXPECT_EQ(downloads, single_downloads) << world_->shard_counts[i] << " shards";
  }
}

// ---- typed shard calls -----------------------------------------------------------

[[nodiscard]] fed::Federation small_federation(const crawlersim::ServicePolicy& policy,
                                               std::size_t shards = 2, bool comments = false) {
  synth::GeneratorConfig config = golden_config();
  config.app_scale = 0.005;
  config.comments = comments;
  fed::FederationOptions options;
  options.profile = synth::anzhi();
  options.config = config;
  options.shards = shards;
  options.policy = policy;
  options.day = kEndOfHistory;
  return fed::build_federation(options);
}

[[nodiscard]] crawlersim::ServicePolicy unlimited_policy() {
  crawlersim::ServicePolicy policy;
  policy.rate_per_second = 1e9;
  policy.burst = 1e9;
  return policy;
}

[[nodiscard]] std::uint64_t counter_value(const obs::Registry& registry,
                                          std::string_view name, std::string_view label) {
  const obs::Snapshot snapshot = registry.snapshot();
  const obs::CounterSample* sample = snapshot.find_counter(name, label);
  return sample == nullptr ? 0 : sample->value;
}

void expect_same_partial(const query::PartialAggregate& a, const query::PartialAggregate& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.day, b.day);
  EXPECT_EQ(a.rows_total, b.rows_total);
  EXPECT_EQ(a.rows_selected, b.rows_selected);
  EXPECT_EQ(a.app_count, b.app_count);
  EXPECT_EQ(a.counts, b.counts);
}

/// A ServiceShard that logs which of its calls the gateway made.
class RecordingShard final : public fed::Shard {
 public:
  explicit RecordingShard(crawlersim::AppstoreService& service) : inner_(service) {}

  [[nodiscard]] std::optional<market::Day> day() const override { return inner_.day(); }
  [[nodiscard]] net::HttpResponse respond(const net::HttpRequest& request) override {
    calls.push_back("respond " + request.target);
    return inner_.respond(request);
  }
  [[nodiscard]] crawlersim::PartialResponse partial(const net::HttpRequest& request,
                                                    market::Day day) override {
    calls.push_back("partial " + request.target);
    return inner_.partial(request, day);
  }
  [[nodiscard]] crawlersim::AppResponse app(const net::HttpRequest& request,
                                            market::Day day) override {
    calls.push_back("app " + request.target);
    return inner_.app(request, day);
  }
  [[nodiscard]] crawlersim::CommentsResponse comments(const net::HttpRequest& request,
                                                      market::Day day,
                                                      std::size_t max_rows) override {
    calls.push_back("comments " + request.target);
    return inner_.comments(request, day, max_rows);
  }

  std::vector<std::string> calls;

 private:
  fed::ServiceShard inner_;
};

TEST(TypedShards, GatewayRoutesThroughTheRegisteredShard) {
  // Forwarded routes take respond(); app, comments and scatter queries take
  // the typed calls, and never reach an HttpShard's exchange but as JSON.
  const fed::Federation federation = small_federation(unlimited_policy(), 1);
  crawlersim::AppstoreService* service = federation.services.front().get();
  const std::vector<std::string> targets = {
      "/api/v1/meta",         "/api/v1/apps?page=1",          "/api/v1/app/1/apk",
      "/api/v1/app/1",        "/api/v1/app/1/comments?page=1", "/api/v1/query?kind=pareto_share",
      "/api/v1/query?kind=top_k_downloads&filter=user==3"};

  auto recording = std::make_shared<RecordingShard>(*service);
  fed::FederationGateway typed;
  typed.add_upstream("shard-0", recording);
  for (const std::string& target : targets) {
    ASSERT_EQ(typed.respond(get(target)).status, 200) << target;
  }
  EXPECT_EQ(recording->calls,
            (std::vector<std::string>{
                "respond /api/v1/meta", "respond /api/v1/apps?page=1",
                "respond /api/v1/app/1/apk", "app /api/v1/app/1",
                "comments /api/v1/app/1/comments?page=1",
                "partial /api/v1/query?kind=pareto_share",
                "respond /api/v1/query?kind=top_k_downloads&filter=user==3"}));

  std::vector<std::string> http_targets;
  fed::FederationGateway http;
  http.add_upstream("shard-0", [&](const net::HttpRequest& request) {
    http_targets.push_back(request.target);
    return service->respond(request);
  });
  for (const std::string& target : targets) {
    ASSERT_EQ(http.respond(get(target)).status, 200) << target;
  }
  EXPECT_EQ(http_targets,
            (std::vector<std::string>{"/api/v1/meta", "/api/v1/apps?page=1",
                                      "/api/v1/app/1/apk", "/api/v1/app/1",
                                      "/api/v1/app/1/comments?page=0",
                                      "/api/v1/query?kind=pareto_share&partial=1",
                                      "/api/v1/query?kind=top_k_downloads&filter=user==3"}));

  // Federation::attach registers ServiceShards: the scatter leaves the
  // shard's typed fragment cached for the next respond_partial at that day.
  fed::FederationGateway attached;
  federation.attach(attached);
  const net::HttpRequest curve = get("/api/v1/query?kind=rank_download_curve");
  ASSERT_EQ(attached.respond(curve).status, 200);
  const std::uint64_t hits =
      counter_value(service->metrics(), "service_response_cache_total", "hit");
  ASSERT_NE(service->respond_partial(curve, service->day()).value, nullptr);
  EXPECT_EQ(counter_value(service->metrics(), "service_response_cache_total", "hit"), hits + 1);
}

TEST(TypedShards, ForwardedRequestsReachTheRingOwnerThroughChurn) {
  // A forwarded request goes to the member the ring names for its target,
  // after every join, re-registration and removal.
  const fed::Federation federation = small_federation(unlimited_policy(), 1);
  crawlersim::AppstoreService& service = *federation.services.front();
  fed::FederationGateway gateway;
  std::map<std::string, std::shared_ptr<RecordingShard>> shards;
  const auto join = [&](const std::string& id) {
    shards[id] = std::make_shared<RecordingShard>(service);
    gateway.add_upstream(id, shards[id]);
  };
  const auto leave = [&](const std::string& id) {
    ASSERT_TRUE(gateway.remove_upstream(id));
    shards.erase(id);
  };
  const auto expect_owners_answer = [&](const std::string& step) {
    ASSERT_EQ(gateway.ring().size(), shards.size()) << step;
    for (int k = 0; k < 64; ++k) {
      const std::string target = util::format("/api/v1/meta?x={}", k);
      const std::string owner = gateway.ring().owner(util::hash64(target));
      for (const auto& entry : shards) entry.second->calls.clear();
      ASSERT_EQ(gateway.respond(get(target)).status, 200) << step << " " << target;
      for (const auto& [id, shard] : shards) {
        EXPECT_EQ(shard->calls, id == owner ? std::vector<std::string>{"respond " + target}
                                            : std::vector<std::string>{})
            << step << " " << target << " " << id;
      }
    }
  };
  for (int i = 0; i < 6; ++i) join(util::format("shard-{}", i));
  expect_owners_answer("six joins");
  leave("shard-1");
  leave("shard-4");
  expect_owners_answer("two removals");
  join("shard-6");
  join("shard-1");
  expect_owners_answer("a new member and a returning one");
  join("shard-3");
  expect_owners_answer("a re-registration");
  leave("shard-0");
  expect_owners_answer("the first member's removal");
}

TEST(TypedShards, UndecodableShardBodiesAre502) {
  for (const auto& [target, body] : std::vector<std::pair<std::string, std::string>>{
           {"/api/v1/query?kind=pareto_share", "{\"kind\": \"pareto_share\", \"partial\": true}"},
           // Integer members outside their range, or not integers at all.
           {"/api/v1/query?kind=pareto_share",
            "{\"kind\":\"pareto_share\",\"partial\":true,\"rows_total\":-1,\"counts\":[]}"},
           {"/api/v1/query?kind=pareto_share",
            "{\"kind\":\"pareto_share\",\"partial\":true,\"day\":1e300,\"counts\":[]}"},
           {"/api/v1/query?kind=pareto_share",
            "{\"kind\":\"pareto_share\",\"partial\":true,\"plan\":{\"index_scans\":-7},"
            "\"counts\":[]}"},
           {"/api/v1/query?kind=pareto_share",
            "{\"kind\":\"pareto_share\",\"partial\":true,\"app_count\":1,"
            "\"counts\":[[0,1.5]]}"},
           {"/api/v1/app/1", "{\"id\": 1, \"downloads\": 3}"},
           {"/api/v1/app/1", "{\"id\":-1,\"name\":\"a\",\"category\":\"c\",\"developer\":\"d\","
                             "\"paid\":false,\"price\":0,\"downloads\":3,\"version\":1,"
                             "\"has_ads\":false,\"released\":0}"},
           {"/api/v1/app/1", "not json"},
           {"/api/v1/app/1/comments", "{\"app\": 1, \"total\": 1}"},
           {"/api/v1/app/1/comments",
            "{\"app\": 1, \"total\": 1, \"comments\": [{\"user\": 1.5, \"day\": 0, "
            "\"ordinal\": 0, \"rating\": 5}]}"},
       }) {
    fed::FederationGateway gateway;
    gateway.add_upstream("shard-0", [body = body](const net::HttpRequest&) {
      return net::HttpResponse::json(200, body);
    });
    const auto response = gateway.respond(get(target));
    EXPECT_EQ(response.status, 502) << target << " " << body;
    EXPECT_NE(response.body.find("bad_upstream_body"), std::string::npos) << response.body;
    EXPECT_EQ(gateway.stats().http_5xx, 1u);
    expect_fully_accounted(gateway.stats());
  }
}

TEST(TypedShards, CommentMergeRefusesUnboundedScanFromServiceShards) {
  const fed::Federation federation = small_federation(unlimited_policy(), 1, true);
  crawlersim::AppstoreService& service = *federation.services.front();
  std::uint32_t busiest = 0;
  std::uint64_t most = 0;
  for (std::uint32_t id = 0; id < federation.stores.front().store->apps().size(); ++id) {
    const auto page = service.respond_comments(
        get(util::format("/api/v1/app/{}/comments", id)), service.day(), 0);
    ASSERT_FALSE(page.refused());
    if (page.value.total > most) {
      most = page.value.total;
      busiest = id;
    }
  }
  ASSERT_GT(most, 0u);
  // The tightest bound the busiest app overflows (no page at this scale),
  // then one page more.
  const std::size_t pages = (most - 1) / crawlersim::kCommentsPerPage;
  const std::string target = util::format("/api/v1/app/{}/comments", busiest);
  for (const std::size_t bound : {pages, pages + 1}) {
    fed::GatewayOptions options;
    options.comment_scan_pages = bound;
    fed::FederationGateway gateway(options);
    federation.attach(gateway);
    const auto response = gateway.respond(get(target));
    if (bound == pages) {
      EXPECT_EQ(response.status, 502) << response.body;
      EXPECT_NE(response.body.find("comment_scan_overflow"), std::string::npos);
    } else {
      EXPECT_EQ(response.status, 200) << response.body;
      EXPECT_NE(response.body.find(util::format("\"total\":{},", most)), std::string::npos)
          << response.body;
    }
    expect_fully_accounted(gateway.stats());
  }
}

TEST(TypedShards, RefusalsMatchTheHttpPathOutcomes) {
  const auto same_outcome = [](const fed::Federation& federation,
                               const fed::GatewayOptions& typed_options,
                               const fed::GatewayOptions& http_options,
                               const std::string& label) {
    fed::FederationGateway typed(typed_options);
    federation.attach(typed);
    const auto http = http_only_gateway(federation, http_options);
    for (const std::string target :
         {"/api/v1/query?kind=pareto_share", "/api/v1/query?kind=category_affinity",
          "/api/v1/app/1", "/api/v1/app/1/comments"}) {
      const auto via_typed = typed.respond(get(target));
      const auto via_http = http->respond(get(target));
      EXPECT_GE(via_typed.status, 400) << label;
      EXPECT_EQ(via_typed.status, via_http.status) << label << " " << target;
      EXPECT_EQ(via_typed.body, via_http.body) << label << " " << target;
    }
    const fed::GatewayStats a = typed.stats();
    const fed::GatewayStats b = http->stats();
    EXPECT_EQ(std::tie(a.requests, a.ok, a.http_4xx, a.http_5xx, a.transport,
                       a.breaker_open, a.shed, a.upstream_calls),
              std::tie(b.requests, b.ok, b.http_4xx, b.http_5xx, b.transport,
                       b.breaker_open, b.shed, b.upstream_calls))
        << label;
    expect_fully_accounted(a);
  };

  // Refusals by the shard's own policy gates.
  crawlersim::ServicePolicy rate_limited;
  rate_limited.rate_per_second = 1e-6;
  rate_limited.burst = 0;
  crawlersim::ServicePolicy region_gated = unlimited_policy();
  region_gated.china_only = true;
  crawlersim::ServicePolicy failing = unlimited_policy();
  failing.failure_rate = 1.0;
  for (const auto& [policy, label] :
       {std::pair{rate_limited, "429 rate limit"}, std::pair{region_gated, "403 region"},
        std::pair{failing, "500 injected by the shard"}}) {
    same_outcome(small_federation(policy), {}, {}, label);
  }

  // Refusals injected at the gateway's exchange seam.
  const fed::Federation federation = small_federation(unlimited_policy());
  for (const chaos::FaultKind kind :
       {chaos::FaultKind::kHttp429, chaos::FaultKind::kHttp403, chaos::FaultKind::kHttp500,
        chaos::FaultKind::kConnectionReset}) {
    chaos::FaultPlan plan;
    plan.seed = 3;
    plan.max_faults_per_key = 0;
    plan.rules.push_back({chaos::FaultSite::kExchange, kind, 1.0, 0ms});
    chaos::FaultInjector typed_faults(plan);
    chaos::FaultInjector http_faults(plan);
    fed::GatewayOptions typed_options;
    typed_options.faults = &typed_faults;
    fed::GatewayOptions http_options;
    http_options.faults = &http_faults;
    same_outcome(federation, typed_options, http_options,
                 util::format("fault kind {}", static_cast<int>(kind)));
  }
}

TEST(TypedShards, AttachRefusesShardsWithDivergentEntityState) {
  fed::Federation federation = small_federation(unlimited_policy());
  {
    fed::FederationGateway gateway;
    EXPECT_NO_THROW(federation.attach(gateway));
  }
  // Shard 1 regenerated from another seed: same shape, different entities.
  synth::GeneratorConfig config = golden_config();
  config.app_scale = 0.005;
  config.seed += 1;
  federation.services[1].reset();
  federation.stores[1] = synth::generate(synth::anzhi(), config);
  federation.services[1] = std::make_unique<crawlersim::AppstoreService>(
      *federation.stores[1].store, unlimited_policy());
  fed::FederationGateway gateway;
  EXPECT_THROW(federation.attach(gateway), std::runtime_error);
  EXPECT_TRUE(gateway.ring().empty());  // nothing registered
}

TEST(TypedShards, RepeatedTypedCallIsAShardCacheHit) {
  const fed::Federation federation = small_federation(unlimited_policy(), 1);
  crawlersim::AppstoreService& service = *federation.services.front();
  const net::HttpRequest request = get("/api/v1/query?kind=pareto_share");

  const crawlersim::PartialResponse first = service.respond_partial(request, service.day());
  ASSERT_NE(first.value, nullptr) << first.refusal.body;
  const std::uint64_t hits = counter_value(service.metrics(), "service_response_cache_total", "hit");
  const std::uint64_t queries =
      counter_value(service.metrics(), "query_requests_total", "pareto_share");
  EXPECT_EQ(queries, 1u);

  const crawlersim::PartialResponse second = service.respond_partial(request, service.day());
  EXPECT_EQ(second.value, first.value);  // the cached fragment itself
  EXPECT_EQ(counter_value(service.metrics(), "service_response_cache_total", "hit"), hits + 1);
  EXPECT_EQ(counter_value(service.metrics(), "query_requests_total", "pareto_share"), queries);
  EXPECT_EQ(counter_value(service.metrics(), "service_requests_total", "query"), 2u);

  // The typed fragment is the JSON partial form, decoded.
  net::HttpRequest flagged = request;
  flagged.target += "&partial=1";
  const auto json = service.respond(flagged);
  ASSERT_EQ(json.status, 200);
  expect_same_partial(crawlersim::partial_from_json(*crawlersim::parse_json(json.body)),
                      *first.value);
  EXPECT_EQ(first.value->day, kEndOfHistory);

  // A call at another day answers at that day, and is not served the
  // published day's entry.
  const auto earlier = service.respond_partial(request, 30);
  ASSERT_NE(earlier.value, nullptr);
  EXPECT_EQ(earlier.value->day, 30);
  EXPECT_NE(earlier.value, first.value);

  // Non-query endpoints and malformed queries are refused, never cached.
  EXPECT_EQ(service.respond_partial(get("/api/v1/meta"), service.day()).refusal.status, 404);
  const auto bad = service.respond_partial(get("/api/v1/query?kind=nope"), service.day());
  EXPECT_EQ(bad.value, nullptr);
  EXPECT_EQ(bad.refusal.status, 400);
  EXPECT_EQ(service.respond_app(get("/api/v1/meta"), service.day()).refusal.status, 404);
  EXPECT_EQ(service.respond_app(get("/api/v1/app/999999"), service.day()).refusal.status,
            404);
  EXPECT_EQ(service.respond_comments(get("/api/v1/app/1"), service.day(), 200).refusal.status,
            404);
}

TEST(TypedShards, HeldPartialSurvivesCacheClearAtCapacity) {
  const fed::Federation federation = small_federation(unlimited_policy(), 1);
  crawlersim::AppstoreService& service = *federation.services.front();
  const net::HttpRequest request = get("/api/v1/query?kind=rank_download_curve");

  const std::shared_ptr<const query::PartialAggregate> held =
      service.respond_partial(request, service.day()).value;
  ASSERT_NE(held, nullptr);
  const query::PartialAggregate copy = *held;
  ASSERT_FALSE(copy.counts.empty());

  // 4096 more distinct cacheable targets reach the cache's capacity, and
  // the next insert clears it — the held fragment's entry included.
  for (int i = 0; i < 4096; ++i) {
    ASSERT_EQ(service.respond(get(util::format("/api/v1/meta?sweep={}", i))).status, 200);
  }
  const std::uint64_t misses =
      counter_value(service.metrics(), "service_response_cache_total", "miss");
  const auto again = service.respond_partial(request, service.day());
  EXPECT_EQ(counter_value(service.metrics(), "service_response_cache_total", "miss"),
            misses + 1);
  ASSERT_NE(again.value, nullptr);
  EXPECT_NE(again.value, held);
  expect_same_partial(*held, copy);
  expect_same_partial(*again.value, copy);
}

TEST(TypedShards, ConcurrentCallersKeepFragmentsAcrossCacheClears) {
  // Callers on several threads hold fragments while others sweep the cache
  // past capacity; under the sanitizer presets a fragment freed by a clear
  // while still held, or a racy cache entry, fails this test.
  const fed::Federation federation = small_federation(unlimited_policy(), 1);
  crawlersim::AppstoreService& service = *federation.services.front();
  const market::Day day = service.day();
  const query::PartialAggregate expected =
      *service.respond_partial(get("/api/v1/query?kind=top_k_downloads"), day).value;
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1500; ++i) {
        const auto held = service.respond_partial(get("/api/v1/query?kind=top_k_downloads"), day);
        (void)service.respond(get(util::format("/api/v1/meta?t={}&i={}", t, i)));
        if (held.value == nullptr || held.value->counts != expected.counts) ++wrong;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(TypedShards, JsonFormRejectsCountsBeyond32Bits) {
  query::PartialAggregate partial;
  partial.kind = query::AggregateKind::kTopKDownloads;
  partial.day = 42;
  partial.app_count = 3;
  partial.counts = {{0, 7}, {2, 4294967295u}};
  const crawlersim::Json document = crawlersim::query_partial_json(partial);
  expect_same_partial(crawlersim::partial_from_json(document), partial);

  for (const std::string counts : {"[[0, 4294967296]]", "[[0, -1]]", "[[4294967296, 1]]"}) {
    const auto parsed = crawlersim::parse_json(
        "{\"kind\": \"top_k_downloads\", \"partial\": true, \"app_count\": 3, "
        "\"counts\": " + counts + "}");
    ASSERT_TRUE(parsed.has_value());
    try {
      (void)crawlersim::partial_from_json(*parsed);
      ADD_FAILURE() << counts << " was accepted";
    } catch (const query::QueryError& error) {
      EXPECT_EQ(error.code(), "bad_partial") << counts;
    }
  }
}

// ---- one day per request ---------------------------------------------------------

TEST(OneDayPerRequest, PartialsOfTwoDaysAreRefused) {
  query::QuerySpec spec;
  spec.kind = query::AggregateKind::kTopKDownloads;
  query::PartialAggregate a;
  a.kind = spec.kind;
  a.app_count = 3;
  a.counts = {{0, 2}};
  a.day = 5;
  query::PartialAggregate b = a;
  const query::PartialAggregate* same[] = {&a, &b};
  EXPECT_EQ(query::merge_partials(spec, same).total_downloads, 4u);
  b.day = 6;
  try {
    (void)query::merge_partials(spec, same);
    ADD_FAILURE() << "partials of days 5 and 6 were merged";
  } catch (const query::QueryError& error) {
    EXPECT_EQ(error.code(), "merge_mismatch");
  }

  // HttpShards answer at their own day: two shards a day apart are a
  // divergence the gateway refuses, never a mixed answer.
  const fed::Federation federation = small_federation(unlimited_policy());
  federation.services[1]->set_day(60);
  const auto gateway = http_only_gateway(federation);
  const auto response = gateway->respond(get("/api/v1/query?kind=pareto_share"));
  EXPECT_EQ(response.status, 502);
  EXPECT_NE(response.body.find("shard_divergence"), std::string::npos) << response.body;
}

/// A query document without plan statistics, which are summed across
/// shards and legitimately differ from a single store (docs/federation.md).
[[nodiscard]] std::string payload_of(const std::string& body) {
  const auto document = crawlersim::parse_json(body);
  if (!document || !document->is_object()) return "unparseable: " + body;
  crawlersim::JsonObject kept;
  for (const auto& [key, value] : document->as_object()) {
    if (key != "plan" && key != "rows_total") kept.emplace_back(key, value);
  }
  return crawlersim::Json(std::move(kept)).dump();
}

TEST(OneDayPerRequest, ScattersRacingSetDayAnswerAtOneDay) {
  // One thread flips every shard between two days, one shard at a time,
  // while two callers scatter store-wide queries and app pages. Each answer
  // must be a single store's answer at one of the two days: the day a
  // query states, and either day for an app page.
  fed::Federation federation = small_federation(unlimited_policy(), 4);
  fed::FederationGateway gateway;
  federation.attach(gateway);

  synth::GeneratorConfig config = golden_config();
  config.app_scale = 0.005;
  const synth::GeneratedStore single = synth::generate(synth::anzhi(), config);
  const events::FrontierSnapshot downloads = single.store->download_log();
  market::Day last = 0;
  for (std::uint64_t i = 0; i < downloads.size(); ++i) last = std::max(last, downloads.day()[i]);
  const market::Day days[2] = {last / 2, last};
  crawlersim::AppstoreService at_first(*single.store, unlimited_policy());
  crawlersim::AppstoreService at_second(*single.store, unlimited_policy());
  at_first.set_day(days[0]);
  at_second.set_day(days[1]);

  const std::vector<std::string> queries = {"/api/v1/query?kind=pareto_share",
                                            "/api/v1/query?kind=top_k_downloads&k=20",
                                            "/api/v1/query?kind=rank_download_curve&points=50"};
  std::map<std::pair<std::string, market::Day>, std::string> expected_query;
  for (const std::string& target : queries) {
    const std::string first = payload_of(at_first.respond(get(target)).body);
    const std::string second = payload_of(at_second.respond(get(target)).body);
    ASSERT_NE(first, second) << target;
    expected_query[{target, days[0]}] = first;
    expected_query[{target, days[1]}] = second;
  }
  std::vector<std::string> apps;
  std::vector<std::pair<std::string, std::string>> expected_app;
  for (std::uint32_t id = 0; id < single.store->apps().size() && apps.size() < 16; ++id) {
    const std::string target = util::format("/api/v1/app/{}", id);
    const auto first = at_first.respond(get(target));
    const auto second = at_second.respond(get(target));
    if (first.status != 200 || first.body == second.body) continue;
    apps.push_back(target);
    expected_app.emplace_back(first.body, second.body);
  }
  ASSERT_FALSE(apps.empty()) << "no app whose downloads moved between the days";

  federation.set_day(days[0]);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> answers{0};
  std::atomic<std::size_t> wrong{0};
  std::thread flipper([&] {
    for (std::size_t flip = 0; !stop.load(); ++flip) federation.set_day(days[flip % 2]);
  });
  std::vector<std::thread> callers;
  for (std::size_t caller = 0; caller < 2; ++caller) {
    callers.emplace_back([&, caller] {
      for (std::size_t i = 0; i < 150; ++i) {
        const std::string& query = queries[(i + caller) % queries.size()];
        const auto answer = gateway.respond(get(query));
        const auto document = crawlersim::parse_json(answer.body);
        const crawlersim::Json* day = document ? document->find("day") : nullptr;
        const auto it = day == nullptr || !day->is_number()
                            ? expected_query.end()
                            : expected_query.find(
                                  {query, static_cast<market::Day>(day->as_number())});
        if (answer.status != 200 || it == expected_query.end() ||
            payload_of(answer.body) != it->second) {
          ++wrong;
        }
        const std::size_t app = (i * 7 + caller) % apps.size();
        const auto page = gateway.respond(get(apps[app]));
        if (page.body != expected_app[app].first && page.body != expected_app[app].second) {
          ++wrong;
        }
        answers += 2;
      }
    });
  }
  for (std::thread& thread : callers) thread.join();
  stop = true;
  flipper.join();
  EXPECT_EQ(answers.load(), 600u);
  EXPECT_EQ(wrong.load(), 0u);
  expect_fully_accounted(gateway.stats());
}

// ---- the gateway's answer cache ---------------------------------------------------

[[nodiscard]] std::uint64_t answer_cache(fed::FederationGateway& gateway,
                                         std::string_view outcome) {
  return counter_value(gateway.metrics(), "gateway_answer_cache_total", outcome);
}

/// Store-wide scatter queries as a dashboard sends them, and one POST.
[[nodiscard]] std::vector<net::HttpRequest> dashboard_requests() {
  std::vector<net::HttpRequest> requests;
  for (const std::string target : {
           "/api/v1/query?kind=top_k_downloads&k=10",
           "/api/v1/query?kind=pareto_share",
           "/api/v1/query?kind=category_affinity&depths=1,2,3&min_samples=1",
           "/api/v1/query?kind=rank_download_curve&points=100",
           "/api/v1/query?kind=top_k_downloads&k=10&filter=day<=40",
           "/api/v1/query?kind=pareto_share&filter=category==2",
       }) {
    requests.push_back(get(target));
  }
  net::HttpRequest post = get("/api/v1/query");
  post.method = "POST";
  post.body =
      "{\"kind\": \"top_k_downloads\", \"k\": 7, "
      "\"filter\": {\"field\": \"day\", \"op\": \"<=\", \"value\": 60}}";
  requests.push_back(post);
  return requests;
}

TEST(AnswerCache, RepeatedScatterQueriesAnswerTheFirstBytes) {
  // A repeat is served from the answer cache: the first answer's bytes,
  // which are an HTTP-only gateway's bytes, while every shard call still
  // runs. An HTTP-only gateway decodes new fragments on every call, so it
  // never hits. A new day gives every shard new fragments, so the first
  // request after it merges again.
  fed::Federation federation = small_federation(unlimited_policy(), 2, true);
  fed::FederationGateway gateway;
  federation.attach(gateway);
  const auto http = http_only_gateway(federation);
  const std::vector<net::HttpRequest> requests = dashboard_requests();
  constexpr std::uint64_t kRepeats = 3;
  const std::uint64_t shards = federation.services.size();
  for (const market::Day day : {market::Day{40}, kEndOfHistory}) {
    federation.set_day(day);
    for (const net::HttpRequest& request : requests) {
      const std::string what = util::format("day {} {}{}", day, request.target, request.body);
      const std::uint64_t hits = answer_cache(gateway, "hit");
      const std::uint64_t misses = answer_cache(gateway, "miss");
      const std::uint64_t calls = gateway.stats().upstream_calls;
      const net::HttpResponse first = gateway.respond(request);
      ASSERT_EQ(first.status, 200) << what << " " << first.body;
      EXPECT_EQ(first.body, http->respond(request).body) << what;
      for (std::uint64_t repeat = 0; repeat < kRepeats; ++repeat) {
        EXPECT_EQ(gateway.respond(request).body, first.body) << what;
      }
      EXPECT_EQ(answer_cache(gateway, "miss"), misses + 1) << what;
      EXPECT_EQ(answer_cache(gateway, "hit"), hits + kRepeats) << what;
      EXPECT_EQ(gateway.stats().upstream_calls, calls + (1 + kRepeats) * shards) << what;
    }
  }
  EXPECT_EQ(answer_cache(*http, "hit"), 0u);
  EXPECT_EQ(answer_cache(*http, "miss"), 2 * requests.size());

  // A shard that leaves takes its fragment with it: the remaining shard's
  // fragments alone are another answer, never the two-shard body.
  ASSERT_TRUE(gateway.remove_upstream(federation.shard_ids.back()));
  ASSERT_TRUE(http->remove_upstream(federation.shard_ids.back()));
  for (const net::HttpRequest& request : requests) {
    EXPECT_EQ(gateway.respond(request).body, http->respond(request).body)
        << "one shard left, " << request.target << request.body;
  }
  expect_fully_accounted(gateway.stats());
}

TEST(AnswerCache, NewDayAndNewDownloadsAnswerAsASingleStore) {
  // After Federation::set_day, and after a download lands on its user's
  // shard, the next identical query must merge the shards' new fragments:
  // a single store under the same change answers the same payload.
  fed::Federation federation = small_federation(unlimited_policy(), 4);
  fed::FederationGateway gateway;
  federation.attach(gateway);
  synth::GeneratorConfig config = golden_config();
  config.app_scale = 0.005;
  synth::GeneratedStore single = synth::generate(synth::anzhi(), config);
  crawlersim::AppstoreService service(*single.store, unlimited_policy());

  const std::vector<net::HttpRequest> requests = dashboard_requests();
  const auto expect_single_store_payloads = [&](const std::string& when) {
    for (const net::HttpRequest& request : requests) {
      const std::string expected = payload_of(service.respond(request).body);
      for (int repeat = 0; repeat < 2; ++repeat) {
        const net::HttpResponse merged = gateway.respond(request);
        ASSERT_EQ(merged.status, 200) << when << " " << request.target << " " << merged.body;
        EXPECT_EQ(payload_of(merged.body), expected) << when << " " << request.target << request.body;
      }
    }
  };
  for (const market::Day day : {market::Day{40}, market::Day{60}}) {
    federation.set_day(day);
    service.set_day(day);
    expect_single_store_payloads(util::format("at day {}", day));
  }
  const std::uint32_t user = 5;
  market::AppStore& owner = *federation.stores[federation.ring.owner_index(user)].store;
  for (std::uint32_t app = 0; app < 3; ++app) {
    owner.record_download(market::UserId{user}, market::AppId{app}, 60);
    single.store->record_download(market::UserId{user}, market::AppId{app}, 60);
    expect_single_store_payloads(util::format("after a download of app {}", app));
  }
  EXPECT_GT(answer_cache(gateway, "hit"), 0u);
}

TEST(Gateway, CommentsPagesWhoseFirstRowOverflowsAreEmpty) {
  // page * 200 past 2^64 must not wrap to a small row index: the merged
  // page is empty and states the true total.
  const fed::Federation federation = small_federation(unlimited_policy(), 2, true);
  fed::FederationGateway gateway;
  federation.attach(gateway);
  const auto answer = [&](const std::string& target) {
    const net::HttpResponse response = gateway.respond(get(target));
    EXPECT_EQ(response.status, 200) << target << " " << response.body;
    return *crawlersim::parse_json(response.body);
  };
  std::uint64_t id = 0;
  std::uint64_t total = 0;
  for (; id < federation.stores.front().store->apps().size(); ++id) {
    total =
        answer(util::format("/api/v1/app/{}/comments", id))
            .at("total")
            .as_integer<std::uint64_t>()
            .value();
    if (total > 0) break;
  }
  ASSERT_GT(total, 0u) << "no commented app";
  // 2^61 * 200 wraps to row 0.
  for (const std::string page : {"2305843009213693952", "18446744073709551615"}) {
    const crawlersim::Json merged =
        answer(util::format("/api/v1/app/{}/comments?page={}", id, page));
    EXPECT_TRUE(merged.at("comments").as_array().empty()) << page << " " << merged.dump();
    EXPECT_EQ(merged.at("total").as_integer<std::uint64_t>().value(), total) << page;
  }
}

// ---- documented metric families --------------------------------------------------

/// Every backquoted metric name in the "Wired families" table of
/// docs/observability.md, labels stripped.
[[nodiscard]] std::set<std::string> documented_families() {
  std::ifstream in(std::string(APPSTORE_DOCS_DIR) + "/observability.md");
  std::set<std::string> names;
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (line.starts_with("## ")) in_table = line == "## Wired families";
    if (!in_table) continue;
    for (std::size_t open = line.find('`'); open != std::string::npos;) {
      const std::size_t close = line.find('`', open + 1);
      if (close == std::string::npos) break;
      const std::string token = line.substr(open + 1, close - open - 1);
      names.insert(token.substr(0, token.find('{')));
      open = line.find('`', close + 1);
    }
  }
  return names;
}

TEST(Observability, EveryRegisteredFamilyIsDocumented) {
  // Each family registered by the gateway and the shard services (once every
  // route has served a request), and by the layers that run outside a
  // federation, must be a row of the docs' table.
  const fed::Federation federation = small_federation(unlimited_policy(), 2, true);
  fed::FederationGateway gateway;
  federation.attach(gateway);
  for (const std::string target :
       {"/api/v1/meta", "/api/v1/apps?page=0", "/api/v1/app/1", "/api/v1/app/1/comments",
        "/api/v1/app/1/apk", "/api/v1/query?kind=pareto_share",
        "/api/v1/query?kind=top_k_downloads&filter=user==3", "/api/v1/metrics",
        "/api/v1/nope"}) {
    (void)gateway.respond(get(target));
  }
  for (const net::HttpRequest& request : dashboard_requests()) (void)gateway.respond(request);

  // A durable store's open -> ingest -> checkpoint -> reopen cycle.
  obs::Registry durable_metrics;
  {
    const std::filesystem::path directory =
        std::filesystem::temp_directory_path() / "appstore_federation_test_durable";
    std::filesystem::remove_all(directory);
    market::DurableOptions options;
    options.live.max_rows = 1u << 12;
    options.live.segment_rows = 1u << 8;
    options.live.max_users = 8;
    options.live.metrics = &durable_metrics;
    options.fsync = false;
    options.metrics = &durable_metrics;
    for (int pass = 0; pass < 2; ++pass) {
      market::DurableStore durable(directory, "docs", options);
      (void)durable.open();
      if (pass == 0) {
        const market::CategoryId category = durable.add_category("games");
        const market::DeveloperId developer = durable.add_developer("dev");
        (void)durable.add_users(8);
        const market::AppId app =
            durable.add_app("app", developer, category, market::Pricing::kFree, 0, 0);
        events::EventLog downloads(events::Columns::kDay);
        downloads.append(1, app.value, 0);
        durable.ingest_downloads(downloads);
        (void)durable.checkpoint();
        durable.set_has_ads(app, true);  // a WAL record for the reopen to replay
      }
      durable.close();
    }
    std::filesystem::remove_all(directory);
  }

  // A parallel loop.
  obs::Registry par_metrics;
  par::Options par_options;
  par_options.threads = 2;
  par_options.metrics = &par_metrics;
  std::vector<std::uint64_t> squares(64);
  par::parallel_for(squares.size(), par_options,
                    [&](std::uint64_t i) { squares[i] = i * i; });

  // A fault injector that injects once.
  obs::Registry fault_metrics;
  chaos::FaultPlan plan;
  plan.rules.push_back({chaos::FaultSite::kExchange, chaos::FaultKind::kHttp500,
                        /*probability=*/1.0, /*latency=*/0ms});
  chaos::FaultInjector injector(plan, &fault_metrics);
  EXPECT_EQ(injector.next(chaos::FaultSite::kExchange, "shard-0").kind,
            chaos::FaultKind::kHttp500);

  // One load run through the gateway.
  obs::Registry load_metrics;
  load::ScheduleOptions schedule_options;
  schedule_options.clients = 1;
  schedule_options.requests_per_client = 20;
  schedule_options.mix.query_weight = 0.1;
  schedule_options.mix.app_count = 100;
  chaos::VirtualClock clock;
  load::RunOptions run_options;
  run_options.respond = [&gateway](const net::HttpRequest& request) {
    return gateway.respond(request);
  };
  run_options.metrics = &load_metrics;
  run_options.clock = &clock;
  EXPECT_EQ(load::run(load::build_schedule(schedule_options), run_options).totals.issued, 20u);

  // One crawler day over a shard service's socket.
  obs::Registry crawler_metrics;
  crawlersim::AppstoreService& shard = *federation.services.front();
  crawlersim::CrawlDatabase database;
  crawlersim::CrawlerOptions crawler_options;
  crawler_options.port = shard.port();
  crawler_options.metrics = &crawler_metrics;
  crawlersim::Crawler crawler(crawler_options, database);
  EXPECT_GT(crawler.crawl_day(shard.day()).apps_observed, 0u);

  const std::set<std::string> documented = documented_families();
  ASSERT_TRUE(documented.contains("service_requests_total")) << "docs table not found";
  std::vector<const obs::Registry*> registries = {&gateway.metrics(),   &durable_metrics,
                                                  &par_metrics,         &fault_metrics,
                                                  &load_metrics,        &crawler_metrics};
  for (const auto& service : federation.services) registries.push_back(&service->metrics());
  std::set<std::string> registered;
  std::set<std::string> missing;
  const auto check = [&](const auto& samples) {
    for (const auto& sample : samples) {
      registered.insert(sample.name);
      if (!documented.contains(sample.name)) missing.insert(sample.name);
    }
  };
  for (const obs::Registry* registry : registries) {
    const obs::Snapshot snapshot = registry->snapshot();
    check(snapshot.counters);
    check(snapshot.gauges);
    check(snapshot.histograms);
  }
  // Each layer above registered its families.
  for (const std::string family :
       {"gateway_requests_total", "wal_records_total", "wal_replayed_records_total",
        "checkpoints_total", "live_events_appended_total", "par_tasks_total",
        "faults_injected_total", "load_requests_total", "crawler_requests_total",
        "trace_span_seconds"}) {
    EXPECT_TRUE(registered.contains(family)) << family;
  }
  std::string list;
  for (const std::string& name : missing) list += " " + name;
  EXPECT_TRUE(missing.empty()) << "registered but not in docs/observability.md:" << list;
}

}  // namespace
}  // namespace appstore
