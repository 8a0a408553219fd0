// Load-generation harness: schedule determinism, open/closed-loop accounting
// invariants, latency-SLO smoke on the cached endpoints, and JSON report
// round-trip. Runs under `ctest -L load` and the TSan preset.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "chaos/clock.hpp"
#include "crawler/json.hpp"
#include "crawler/service.hpp"
#include "load/harness.hpp"
#include "load/report.hpp"
#include "load/workload.hpp"
#include "obs/registry.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"

namespace appstore::load {
namespace {

[[nodiscard]] bool schedules_equal(const Schedule& a, const Schedule& b) {
  if (a.per_client.size() != b.per_client.size()) return false;
  for (std::size_t c = 0; c < a.per_client.size(); ++c) {
    if (a.per_client[c].size() != b.per_client[c].size()) return false;
    for (std::size_t i = 0; i < a.per_client[c].size(); ++i) {
      const Request& x = a.per_client[c][i];
      const Request& y = b.per_client[c][i];
      if (x.kind != y.kind || x.target != y.target || x.arrival != y.arrival) return false;
    }
  }
  return true;
}

// ---- schedule determinism ------------------------------------------------------

TEST(Workload, SameSeedSameSchedule) {
  ScheduleOptions options;
  options.seed = 42;
  options.clients = 6;
  options.requests_per_client = 300;
  options.open_loop_rate_hz = 250.0;
  EXPECT_TRUE(schedules_equal(build_schedule(options), build_schedule(options)));
}

TEST(Workload, DifferentSeedDifferentSchedule) {
  ScheduleOptions options;
  options.clients = 4;
  options.requests_per_client = 200;
  ScheduleOptions other = options;
  other.seed = options.seed + 1;
  EXPECT_FALSE(schedules_equal(build_schedule(options), build_schedule(other)));
}

TEST(Workload, PerClientStreamsIndependentOfClientCount) {
  // Client c's request stream is derived from (seed, c) alone — adding more
  // clients (more "workers" issuing load) must not change existing streams.
  ScheduleOptions narrow;
  narrow.clients = 2;
  narrow.requests_per_client = 150;
  ScheduleOptions wide = narrow;
  wide.clients = 8;
  const Schedule a = build_schedule(narrow);
  const Schedule b = build_schedule(wide);
  for (std::size_t c = 0; c < narrow.clients; ++c) {
    ASSERT_EQ(a.per_client[c].size(), b.per_client[c].size());
    for (std::size_t i = 0; i < a.per_client[c].size(); ++i) {
      EXPECT_EQ(a.per_client[c][i].target, b.per_client[c][i].target);
    }
  }
}

TEST(Workload, OpenLoopArrivalsStrictlyIncreaseClosedLoopZero) {
  ScheduleOptions options;
  options.clients = 3;
  options.requests_per_client = 100;
  options.open_loop_rate_hz = 500.0;
  for (const auto& client : build_schedule(options).per_client) {
    auto previous = std::chrono::nanoseconds(-1);
    for (const Request& request : client) {
      EXPECT_GT(request.arrival, previous);
      previous = request.arrival;
    }
  }
  options.open_loop_rate_hz = 0.0;
  for (const auto& client : build_schedule(options).per_client) {
    for (const Request& request : client) {
      EXPECT_EQ(request.arrival.count(), 0);
    }
  }
}

TEST(Workload, PopularitySkewFollowsZipf) {
  // With zr well above 0 and clustering off, low ids (globally popular apps)
  // must dominate app-detail targets.
  ScheduleOptions options;
  options.clients = 4;
  options.requests_per_client = 2000;
  options.mix.meta_weight = 0.0;
  options.mix.apps_weight = 0.0;
  options.mix.app_weight = 1.0;
  options.mix.comments_weight = 0.0;
  options.mix.app_count = 1000;
  options.mix.p = 0.0;  // global Zipf only
  options.mix.zr = 1.0;
  std::uint64_t top_decile = 0;
  std::uint64_t total = 0;
  for (const auto& client : build_schedule(options).per_client) {
    for (const Request& request : client) {
      const std::string_view rest = crawlersim::AppstoreService::route(request.target).rest;
      const std::uint64_t id = std::stoull(std::string(rest));
      top_decile += id < 100 ? 1 : 0;
      ++total;
    }
  }
  // Under Zipf(1.0, n=1000) the top 10% of apps carry ~62% of draws; uniform
  // sampling would give 10%.
  EXPECT_GT(static_cast<double>(top_decile) / static_cast<double>(total), 0.4);
}

// ---- run accounting ------------------------------------------------------------

class LoadRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::GeneratorConfig config;
    config.app_scale = 0.002;
    config.download_scale = 2e-6;
    config.seed = 23;
    generated_ = std::make_unique<synth::GeneratedStore>(
        synth::generate(synth::anzhi(), config));
  }

  [[nodiscard]] ScheduleOptions schedule_options() const {
    ScheduleOptions options;
    options.clients = 4;
    options.requests_per_client = 120;
    options.mix.app_count =
        static_cast<std::uint32_t>(generated_->store->apps().size());
    options.mix.directory_pages = 3;
    options.mix.per_page = 50;
    return options;
  }

  std::unique_ptr<synth::GeneratedStore> generated_;
};

TEST_F(LoadRunTest, ClosedLoopAccountingInvariant) {
  // A policy mix that produces every outcome class: a tight rate limit
  // (429s), injected failures (500s), and out-of-range app ids (404s).
  crawlersim::ServicePolicy policy;
  policy.rate_per_second = 400.0;
  policy.burst = 20.0;
  policy.failure_rate = 0.25;  // high enough that zero injected 500s is ~impossible
  crawlersim::AppstoreService service(*generated_->store, policy);
  service.set_day(60);

  ScheduleOptions schedule_opts = schedule_options();
  schedule_opts.mix.app_count =
      static_cast<std::uint32_t>(generated_->store->apps().size()) * 2;  // force 404s
  RunOptions options;
  options.service = &service;
  obs::Registry registry;
  options.metrics = &registry;
  const RunReport report = run(build_schedule(schedule_opts), options);

  EXPECT_EQ(report.totals.issued,
            static_cast<std::uint64_t>(schedule_opts.clients) *
                schedule_opts.requests_per_client);
  EXPECT_EQ(report.totals.issued,
            report.totals.ok + report.totals.http_4xx + report.totals.http_5xx +
                report.totals.shed + report.totals.transport_errors);
  EXPECT_GT(report.totals.ok, 0u);
  EXPECT_GT(report.totals.http_4xx, 0u);  // 404s and 429s
  EXPECT_GT(report.totals.http_5xx, 0u);  // injected 500s
  EXPECT_EQ(report.totals.transport_errors, 0u);  // in-process: no transport

  // The metrics families mirror the report totals.
  const auto snapshot = registry.snapshot();
  const auto* ok = snapshot.find_counter("load_requests_total", "ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->value, report.totals.ok);
}

TEST_F(LoadRunTest, OpenLoopOverSocketsAccountingInvariant) {
  crawlersim::ServicePolicy policy;
  policy.rate_per_second = 1e9;
  policy.burst = 1e9;
  crawlersim::AppstoreService service(*generated_->store, policy);
  service.set_day(60);

  chaos::VirtualClock clock;  // arrival sleeps advance virtually: instant run
  ScheduleOptions schedule_opts = schedule_options();
  schedule_opts.open_loop_rate_hz = 200.0;
  RunOptions options;
  options.service = &service;
  options.over_sockets = true;
  options.clock = &clock;
  const RunReport report = run(build_schedule(schedule_opts), options);

  EXPECT_EQ(report.totals.issued,
            report.totals.ok + report.totals.http_4xx + report.totals.http_5xx +
                report.totals.shed + report.totals.transport_errors);
  EXPECT_EQ(report.totals.ok, report.totals.issued);  // nothing throttled
  EXPECT_GT(clock.elapsed().count(), 0);              // pacing used the clock
}

TEST_F(LoadRunTest, DeterministicOutcomesAtAnyWorkerCount) {
  // In-process, closed-loop, per-client rate limiting and seeded targets:
  // totals must not depend on how many client threads issue the load.
  for (const std::uint32_t clients : {1u, 4u}) {
    crawlersim::ServicePolicy policy;
    policy.rate_per_second = 1e9;
    policy.burst = 1e9;
    crawlersim::AppstoreService service(*generated_->store, policy);
    service.set_day(60);
    ScheduleOptions schedule_opts = schedule_options();
    schedule_opts.clients = clients;
    RunOptions options;
    options.service = &service;
    const RunReport report = run(build_schedule(schedule_opts), options);
    EXPECT_EQ(report.totals.ok, report.totals.issued)
        << clients << " clients: all requests against an unthrottled service succeed";
  }
}

// ---- latency SLO smoke ---------------------------------------------------------

TEST_F(LoadRunTest, CachedEndpointsMeetGenerousP99Budget) {
  crawlersim::ServicePolicy policy;
  policy.rate_per_second = 1e9;
  policy.burst = 1e9;
  crawlersim::AppstoreService service(*generated_->store, policy);
  service.set_day(60);

  ScheduleOptions schedule_opts = schedule_options();
  schedule_opts.requests_per_client = 300;
  schedule_opts.mix.meta_weight = 0.3;
  schedule_opts.mix.apps_weight = 0.7;
  schedule_opts.mix.app_weight = 0.0;
  schedule_opts.mix.comments_weight = 0.0;
  RunOptions options;
  options.service = &service;
  const RunReport report = run(build_schedule(schedule_opts), options);

  ASSERT_EQ(report.totals.ok, report.totals.issued);
  // Generous SLO: in-process cached responses are microseconds; 50ms leaves
  // three orders of magnitude of headroom for slow CI machines while still
  // catching an accidentally quadratic (or lock-convoyed) fast path.
  for (const EndpointLatency& latency : report.latency) {
    if (latency.count == 0) continue;
    EXPECT_LT(latency.p99, 0.050) << latency.endpoint;
    EXPECT_LE(latency.p50, latency.p99) << latency.endpoint;
  }
}

// ---- report JSON ---------------------------------------------------------------

TEST(LoadReport, JsonRoundTripsThroughParser) {
  RunReport report;
  report.schedule.seed = 7;
  report.schedule.clients = 8;
  report.schedule.requests_per_client = 100;
  report.over_sockets = true;
  report.totals = {800, 700, 10, 5, 85, 0};
  report.totals.shed_accept = 3;
  report.totals.shed_queue = 2;
  report.totals.shed_admission = 80;
  report.wall_seconds = 1.25;
  report.throughput_rps = 640.0;
  report.latency.push_back({"meta", 160, 0.001, 0.0008, 0.002, 0.004});

  ServingComparison comparison;
  comparison.baseline = report;
  comparison.worker_pool = report;
  comparison.worker_pool.throughput_rps = 3200.0;
  comparison.speedup = 5.0;
  comparison.cache_hits = 750;
  comparison.cache_misses = 50;

  const auto parsed = crawlersim::parse_json(to_json(comparison).dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->at("speedup").as_number(), 5.0);
  EXPECT_EQ(parsed->at("response_cache_hits").as_integer<std::uint64_t>().value(), 750u);
  const auto& baseline = parsed->at("baseline_uncached");
  EXPECT_EQ(baseline.at("totals").at("issued").as_integer<std::uint64_t>().value(), 800u);
  const auto& breakdown = baseline.at("totals").at("shed_breakdown");
  EXPECT_EQ(breakdown.at("accept").as_integer<std::uint64_t>().value(), 3u);
  EXPECT_EQ(breakdown.at("queue").as_integer<std::uint64_t>().value(), 2u);
  EXPECT_EQ(breakdown.at("admission").as_integer<std::uint64_t>().value(), 80u);
  EXPECT_EQ(baseline.at("latency").as_array().size(), 1u);
  EXPECT_DOUBLE_EQ(
      baseline.at("latency").as_array()[0].at("p99_seconds").as_number(), 0.004);
}

}  // namespace
}  // namespace appstore::load
