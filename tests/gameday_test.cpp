// Game-day regression suite (ISSUE 9): scenario schedule determinism and
// shape, outcome-accounting invariants for every scenario × fault seed, the
// admission controller's property suite (1000 seeded load shapes on a
// VirtualClock), and the SLO gate — adaptive admission holds p99 queue delay
// near target at 2× saturation without giving up goodput against the fixed
// queue-capacity cliff. Runs under `ctest -L gameday` and the TSan preset.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chaos/clock.hpp"
#include "chaos/fault.hpp"
#include "crawler/service.hpp"
#include "load/harness.hpp"
#include "load/scenario.hpp"
#include "load/workload.hpp"
#include "net/admission.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "obs/registry.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "util/rng.hpp"

namespace appstore {
namespace {

using namespace std::chrono_literals;

constexpr load::ScenarioKind kAllKinds[] = {load::ScenarioKind::kFlashCrowd,
                                            load::ScenarioKind::kUpdateStorm,
                                            load::ScenarioKind::kDiurnal};

[[nodiscard]] bool schedules_equal(const load::Schedule& a, const load::Schedule& b) {
  if (a.per_client.size() != b.per_client.size()) return false;
  for (std::size_t c = 0; c < a.per_client.size(); ++c) {
    if (a.per_client[c].size() != b.per_client[c].size()) return false;
    for (std::size_t i = 0; i < a.per_client[c].size(); ++i) {
      const load::Request& x = a.per_client[c][i];
      const load::Request& y = b.per_client[c][i];
      if (x.kind != y.kind || x.target != y.target || x.arrival != y.arrival) {
        return false;
      }
    }
  }
  return true;
}

// ---- scenario determinism ------------------------------------------------------

TEST(GamedayScenario, SameOptionsSameScenarioIncludingFaultPlan) {
  for (const load::ScenarioKind kind : kAllKinds) {
    load::ScenarioOptions options;
    options.kind = kind;
    options.clients = 3;
    options.base_rate_hz = 40.0;
    options.duration_seconds = 6.0;
    options.faults.rate = 0.12;
    const load::Scenario a = load::build_scenario(options);
    const load::Scenario b = load::build_scenario(options);

    ASSERT_EQ(a.phases.size(), b.phases.size()) << to_string(kind);
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
      EXPECT_EQ(a.phases[i].name, b.phases[i].name);
      EXPECT_DOUBLE_EQ(a.phases[i].start_seconds, b.phases[i].start_seconds);
      EXPECT_DOUBLE_EQ(a.phases[i].duration_seconds, b.phases[i].duration_seconds);
      EXPECT_DOUBLE_EQ(a.phases[i].rate_hz, b.phases[i].rate_hz);
    }
    EXPECT_TRUE(schedules_equal(a.schedule, b.schedule)) << to_string(kind);
    EXPECT_TRUE(a.schedule.open_loop());

    // The fault plan is part of the scenario value: sampling decide() over a
    // window of call ordinals must replay identically.
    ASSERT_TRUE(a.fault_plan.has_value());
    ASSERT_TRUE(b.fault_plan.has_value());
    for (std::uint32_t call = 0; call < 64; ++call) {
      const chaos::Fault x =
          a.fault_plan->decide(chaos::FaultSite::kServer, "/api/app/7", call);
      const chaos::Fault y =
          b.fault_plan->decide(chaos::FaultSite::kServer, "/api/app/7", call);
      EXPECT_EQ(x.kind, y.kind);
      EXPECT_EQ(x.latency, y.latency);
    }
  }
}

TEST(GamedayScenario, DifferentSeedDifferentSchedule) {
  load::ScenarioOptions options;
  options.kind = load::ScenarioKind::kFlashCrowd;
  options.clients = 3;
  options.duration_seconds = 4.0;
  load::ScenarioOptions other = options;
  other.seed = options.seed + 1;
  EXPECT_FALSE(schedules_equal(load::build_scenario(options).schedule,
                               load::build_scenario(other).schedule));
}

TEST(GamedayScenario, ArrivalsNonDecreasingAndInsideScenarioWindow) {
  for (const load::ScenarioKind kind : kAllKinds) {
    load::ScenarioOptions options;
    options.kind = kind;
    options.clients = 4;
    options.base_rate_hz = 60.0;
    options.duration_seconds = 5.0;
    const load::Scenario scenario = load::build_scenario(options);
    const auto window =
        std::chrono::nanoseconds(static_cast<std::int64_t>(options.duration_seconds * 1e9));
    ASSERT_EQ(scenario.schedule.per_client.size(), options.clients);
    for (const auto& client : scenario.schedule.per_client) {
      auto previous = std::chrono::nanoseconds(-1);
      for (const load::Request& request : client) {
        EXPECT_GE(request.arrival, previous);
        EXPECT_LT(request.arrival, window) << to_string(kind);
        previous = request.arrival;
      }
    }
    // Flash/storm phases run exactly at peak; the diurnal raised cosine is
    // sampled at segment midpoints, so its hottest segment sits just under.
    const double nominal =
        options.clients * options.base_rate_hz * options.peak_multiplier;
    if (kind == load::ScenarioKind::kDiurnal) {
      EXPECT_GT(scenario.peak_offered_rps(), 0.9 * nominal);
      EXPECT_LE(scenario.peak_offered_rps(), nominal);
    } else {
      EXPECT_DOUBLE_EQ(scenario.peak_offered_rps(), nominal);
    }
    EXPECT_FALSE(scenario.fault_plan.has_value());  // default: no chaos overlay
  }
}

// Counts arrivals (all kinds) inside [from, to) scenario seconds.
[[nodiscard]] std::uint64_t arrivals_between(const load::Schedule& schedule, double from,
                                             double to) {
  const auto lo = std::chrono::nanoseconds(static_cast<std::int64_t>(from * 1e9));
  const auto hi = std::chrono::nanoseconds(static_cast<std::int64_t>(to * 1e9));
  std::uint64_t count = 0;
  for (const auto& client : schedule.per_client) {
    for (const load::Request& request : client) {
      count += (request.arrival >= lo && request.arrival < hi) ? 1 : 0;
    }
  }
  return count;
}

TEST(GamedayScenario, FlashCrowdConcentratesOnTheHeadOfThePopularityCurve) {
  load::ScenarioOptions options;
  options.kind = load::ScenarioKind::kFlashCrowd;
  options.clients = 4;
  options.base_rate_hz = 120.0;
  options.peak_multiplier = 6.0;
  options.duration_seconds = 10.0;
  options.mix.app_count = 1000;
  const load::Scenario scenario = load::build_scenario(options);

  // Share of app-detail requests hitting the top decile of app ids, steady
  // window vs flash window. The flash mix raises zr and cluster stickiness,
  // so the spike must concentrate harder on the head than steady traffic.
  const auto head_share = [&](double from, double to) {
    const auto lo = std::chrono::nanoseconds(static_cast<std::int64_t>(from * 1e9));
    const auto hi = std::chrono::nanoseconds(static_cast<std::int64_t>(to * 1e9));
    std::uint64_t head = 0;
    std::uint64_t total = 0;
    for (const auto& client : scenario.schedule.per_client) {
      for (const load::Request& request : client) {
        if (request.arrival < lo || request.arrival >= hi) continue;
        if (request.kind != load::OpKind::kApp &&
            request.kind != load::OpKind::kComments) {
          continue;
        }
        const std::string_view path =
            std::string_view(request.target).substr(0, request.target.find('?'));
        const std::string_view rest = crawlersim::AppstoreService::route(path).rest;
        const std::uint64_t id = std::stoull(std::string(rest));
        head += id < options.mix.app_count / 10 ? 1 : 0;
        ++total;
      }
    }
    return total == 0 ? 0.0 : static_cast<double>(head) / static_cast<double>(total);
  };
  const double steady = head_share(0.0, 4.0);
  const double flash = head_share(4.0, 6.0);
  EXPECT_GT(flash, steady + 0.02);

  // The flash phase also runs app-detail heavy (0.65 + 0.25 of the mix).
  EXPECT_GT(arrivals_between(scenario.schedule, 4.0, 6.0),
            2 * arrivals_between(scenario.schedule, 0.0, 2.0));
}

TEST(GamedayScenario, UpdateStormMultipliesDirectoryPollingRate) {
  load::ScenarioOptions options;
  options.kind = load::ScenarioKind::kUpdateStorm;
  options.clients = 4;
  options.base_rate_hz = 80.0;
  options.peak_multiplier = 5.0;
  options.duration_seconds = 10.0;
  const load::Scenario scenario = load::build_scenario(options);

  // Calm is [0, 3), storm [3, 6): equal windows, so counts compare directly.
  const double calm = static_cast<double>(arrivals_between(scenario.schedule, 0.0, 3.0));
  const double storm = static_cast<double>(arrivals_between(scenario.schedule, 3.0, 6.0));
  ASSERT_GT(calm, 0.0);
  EXPECT_GT(storm / calm, 3.0);  // nominal ratio is peak_multiplier = 5

  // The storm is a directory/meta polling wave (Fig. 4): the meta+apps share
  // of storm traffic must exceed the calm phases' organic share.
  const auto directory_share = [&](double from, double to) {
    const auto lo = std::chrono::nanoseconds(static_cast<std::int64_t>(from * 1e9));
    const auto hi = std::chrono::nanoseconds(static_cast<std::int64_t>(to * 1e9));
    std::uint64_t directory = 0;
    std::uint64_t total = 0;
    for (const auto& client : scenario.schedule.per_client) {
      for (const load::Request& request : client) {
        if (request.arrival < lo || request.arrival >= hi) continue;
        directory += (request.kind == load::OpKind::kMeta ||
                      request.kind == load::OpKind::kApps)
                         ? 1
                         : 0;
        ++total;
      }
    }
    return static_cast<double>(directory) / static_cast<double>(total);
  };
  EXPECT_GT(directory_share(3.0, 6.0), directory_share(0.0, 3.0) + 0.1);
}

TEST(GamedayScenario, DiurnalMiddayRunsHotterThanNight) {
  load::ScenarioOptions options;
  options.kind = load::ScenarioKind::kDiurnal;
  options.clients = 4;
  options.base_rate_hz = 50.0;
  options.peak_multiplier = 6.0;
  options.duration_seconds = 12.0;
  const load::Scenario scenario = load::build_scenario(options);
  ASSERT_EQ(scenario.phases.size(), 12u);

  // Midday segments (5, 6) sit at the top of the raised cosine; the night
  // segments (0, 11) at the bottom. Same total window width on both sides.
  const double night = static_cast<double>(
      arrivals_between(scenario.schedule, 0.0, 1.0) +
      arrivals_between(scenario.schedule, 11.0, 12.0));
  const double midday = static_cast<double>(
      arrivals_between(scenario.schedule, 5.0, 7.0));
  ASSERT_GT(night, 0.0);
  EXPECT_GT(midday / night, 2.5);
}

// ---- accounting invariants under faults ----------------------------------------

class GamedayRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::GeneratorConfig config;
    config.app_scale = 0.002;
    config.download_scale = 2e-6;
    config.seed = 23;
    generated_ = std::make_unique<synth::GeneratedStore>(
        synth::generate(synth::anzhi(), config));
  }

  std::unique_ptr<synth::GeneratedStore> generated_;
};

TEST_F(GamedayRunTest, AccountingInvariantForEveryScenarioAndFaultSeed) {
  // Every scenario kind × fault seed, over real sockets, replayed on a
  // VirtualClock (arrival pacing and injected latency advance virtual time,
  // so three virtual seconds of game day run in milliseconds of wall time).
  // Whatever the chaos overlay does, every scheduled request must land in
  // exactly one outcome bucket.
  for (const load::ScenarioKind kind : kAllKinds) {
    for (const std::uint64_t fault_seed : {0xfa117ULL, 0xbeadULL}) {
      load::ScenarioOptions scenario_options;
      scenario_options.kind = kind;
      scenario_options.seed = 0x9a3e;
      scenario_options.clients = 4;
      scenario_options.base_rate_hz = 30.0;
      scenario_options.peak_multiplier = 4.0;
      scenario_options.duration_seconds = 3.0;
      scenario_options.mix.app_count =
          static_cast<std::uint32_t>(generated_->store->apps().size());
      scenario_options.mix.directory_pages = 3;
      scenario_options.mix.per_page = 50;
      scenario_options.faults.rate = 0.15;
      scenario_options.faults.seed = fault_seed;
      scenario_options.faults.latency = 20ms;
      const load::Scenario scenario = load::build_scenario(scenario_options);
      ASSERT_TRUE(scenario.fault_plan.has_value());

      chaos::VirtualClock clock;
      chaos::FaultInjector injector(*scenario.fault_plan);
      crawlersim::ServicePolicy policy;
      policy.rate_per_second = 1e9;
      policy.burst = 1e9;
      policy.server_workers = 2;
      policy.server_queue_capacity = 64;
      policy.clock = &clock;
      policy.faults = &injector;
      policy.admission.mode = net::AdmissionMode::kQueueDelay;
      policy.admission.target_delay = 1ms;
      policy.admission.interval = 20ms;
      crawlersim::AppstoreService service(*generated_->store, policy);
      service.set_day(60);

      load::RunOptions run_options;
      run_options.service = &service;
      run_options.over_sockets = true;
      run_options.clock = &clock;
      obs::Registry registry;
      run_options.metrics = &registry;
      const load::RunReport report = load::run(scenario.schedule, run_options);
      service.stop();

      const std::string label = std::string(to_string(kind)) + " / fault seed " +
                                std::to_string(fault_seed);
      EXPECT_EQ(report.totals.issued, scenario.schedule.total_requests()) << label;
      EXPECT_EQ(report.totals.issued,
                report.totals.ok + report.totals.http_4xx + report.totals.http_5xx +
                    report.totals.shed + report.totals.transport_errors)
          << label;
      // Header attribution never exceeds the 503 total (in-process and
      // legacy 503s carry no X-Shed-Reason).
      EXPECT_GE(report.totals.shed, report.totals.shed_accept +
                                        report.totals.shed_queue +
                                        report.totals.shed_admission)
          << label;
      EXPECT_GT(report.totals.ok, 0u) << label;
      EXPECT_GT(injector.injected_total(), 0u) << label;  // the overlay fired
    }
  }
}

// ---- admission controller: unit behaviour --------------------------------------

TEST(Admission, RetryAfterFloorsAtOneSecond) {
  net::AdmissionController controller(net::AdmissionOptions{});
  EXPECT_EQ(controller.retry_after_seconds(), 1);  // no samples yet
  controller.observe(3ms);
  EXPECT_EQ(controller.retry_after_seconds(), 1);  // sub-second waits floor at 1
}

TEST(Admission, RetryAfterTracksSmoothedQueueWaitAndCapsAtSixtySeconds) {
  net::AdmissionController controller(net::AdmissionOptions{});
  for (int i = 0; i < 30; ++i) controller.observe(3500ms);
  // EWMA(alpha 1/8) after 30 samples of 3.5 s sits at ~3.44 s; ceil = 4.
  EXPECT_EQ(controller.retry_after_seconds(), 4);
  for (int i = 0; i < 40; ++i) controller.observe(std::chrono::seconds(200));
  EXPECT_EQ(controller.retry_after_seconds(), 60);
}

TEST(Admission, FixedModeIsTheLegacyQueueCapacityCliff) {
  chaos::VirtualClock clock;
  net::AdmissionOptions options;
  options.mode = net::AdmissionMode::kFixed;
  options.limit_ceiling = 8;
  options.clock = &clock;
  net::AdmissionController controller(options);
  // However bad the measured queue delay gets, kFixed never adapts: admit
  // strictly below the ceiling, refuse at it, and count nothing as an
  // adaptive shed.
  for (int i = 0; i < 50; ++i) {
    controller.observe(std::chrono::seconds(2));
    clock.advance(200ms);
  }
  EXPECT_EQ(controller.limit(), 8u);
  EXPECT_EQ(controller.admit(7), net::AdmissionDecision::kAdmit);
  EXPECT_EQ(controller.admit(8), net::AdmissionDecision::kQueueFull);
  EXPECT_EQ(controller.admit(100), net::AdmissionDecision::kQueueFull);
  EXPECT_EQ(controller.sheds(), 0u);
}

// ---- admission controller: property suite --------------------------------------

// Mirrors the TokenBucketLimiter property suite: 1000 seeded load shapes on a
// VirtualClock, asserting the two invariants the serving layer relies on:
//   1. while every measured queue wait stays under the target, the controller
//      never sheds (the limit rests at the ceiling);
//   2. after overload ends, the limit always recovers to the ceiling.
TEST(AdmissionProperty, NeverShedsUnderTargetAndAlwaysRecovers) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    util::Rng rng = util::rng::derive(0xad317, seed);
    chaos::VirtualClock clock;
    net::AdmissionOptions options;
    options.mode = net::AdmissionMode::kQueueDelay;
    options.target_delay = std::chrono::microseconds(rng.range(500, 8000));
    options.interval = std::chrono::microseconds(rng.range(2000, 50000));
    options.limit_ceiling = static_cast<std::size_t>(rng.range(16, 256));
    options.min_limit = 2;
    options.clock = &clock;
    net::AdmissionController controller(options);
    const double target_ns = static_cast<double>(options.target_delay.count());

    // Phase 1 — healthy: all waits strictly under target. Never shed.
    const std::int64_t healthy_intervals = rng.range(5, 20);
    for (std::int64_t i = 0; i < healthy_intervals; ++i) {
      const std::int64_t samples = rng.range(1, 8);
      for (std::int64_t s = 0; s < samples; ++s) {
        controller.observe(std::chrono::nanoseconds(
            static_cast<std::int64_t>(rng.uniform(0.0, 0.9) * target_ns)));
      }
      const auto depth = static_cast<std::size_t>(rng.below(options.limit_ceiling));
      ASSERT_EQ(controller.admit(depth), net::AdmissionDecision::kAdmit)
          << "seed " << seed << ": shed while queue delay was under target";
      clock.advance(options.interval);
    }
    ASSERT_EQ(controller.limit(), options.limit_ceiling) << "seed " << seed;
    ASSERT_EQ(controller.sheds(), 0u) << "seed " << seed;

    // Phase 2 — overload: every wait far above target. The limit must come
    // off the ceiling and near-ceiling depths must be refused.
    for (int i = 0; i < 12; ++i) {
      for (int s = 0; s < 4; ++s) {
        controller.observe(std::chrono::nanoseconds(
            static_cast<std::int64_t>(rng.uniform(2.0, 10.0) * target_ns)));
      }
      clock.advance(options.interval);
      (void)controller.admit(0);  // rolls the control interval
    }
    ASSERT_LT(controller.limit(), options.limit_ceiling) << "seed " << seed;
    ASSERT_EQ(controller.admit(options.limit_ceiling - 1),
              net::AdmissionDecision::kOverload)
        << "seed " << seed;

    // Phase 3 — load drops (idle intervals only): the limit must climb all
    // the way back to the ceiling, and admission must resume.
    for (int i = 0; i < 64 && controller.limit() < options.limit_ceiling; ++i) {
      clock.advance(options.interval);
      ASSERT_EQ(controller.admit(0), net::AdmissionDecision::kAdmit)
          << "seed " << seed << ": an empty queue must always be admissible";
    }
    ASSERT_EQ(controller.limit(), options.limit_ceiling)
        << "seed " << seed << ": limit failed to recover after load dropped";
  }
}

// ---- the SLO gate: adaptive vs fixed at 2x saturation --------------------------

struct SloOutcome {
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t transport = 0;
  double wall_seconds = 0.0;
  double queue_wait_p99 = 0.0;
  std::uint64_t admission_sheds = 0;
  std::size_t final_limit = 0;
  int sample_retry_after = -1;
  std::string sample_reason;
};

// Drives 2x-saturation open-loop load at a worker-pool server whose service
// time is a deterministic injected 5 ms sleep (sleep-dominated on purpose:
// the suite must behave on single-core CI boxes, so capacity is set by
// latency injection, not by burning CPU). 2 workers x 5 ms = ~400 rps
// capacity; 16 clients x 50 Hz = 800 rps offered.
[[nodiscard]] SloOutcome run_overloaded(net::AdmissionMode mode) {
  obs::Registry registry;
  chaos::FaultPlan plan;
  plan.seed = 77;
  plan.max_faults_per_key = 0;  // uncapped: every request pays the service time
  plan.rules = {{chaos::FaultSite::kServer, chaos::FaultKind::kLatency, 1.0, 5ms}};
  chaos::FaultInjector injector(plan);

  net::ServerOptions options;
  options.worker_threads = 2;
  options.queue_capacity = 64;
  options.metrics = &registry;
  options.faults = &injector;
  options.admission.mode = mode;
  options.admission.target_delay = 5ms;
  // Slow, gentle probing (+1 admissible slot per 25 ms) keeps the AIMD
  // oscillation tight around the knee instead of sawing up to the ceiling.
  options.admission.interval = 25ms;
  options.admission.increase = 1;
  options.admission.decrease = 0.5;  // sharp cuts: halve on congestion
  net::HttpServer server(options, [](const net::HttpRequest&) {
    return net::HttpResponse::text(200, "ok");
  });

  if (mode != net::AdmissionMode::kFixed) {
    // Pre-converge the controller with synthetic overload observations so the
    // measured run doesn't pay the ramp-down from the ceiling (a real game
    // day amortizes convergence over minutes; this test has ~600 ms).
    EXPECT_NE(server.admission(), nullptr);  // non-void function: EXPECT, not ASSERT
    for (int interval = 0; interval < 12; ++interval) {
      for (int s = 0; s < 4; ++s) server.admission()->observe(40ms);
      std::this_thread::sleep_for(27ms);
    }
  }

  constexpr int kClients = 16;
  constexpr int kRequests = 30;
  constexpr auto kGap = 20ms;
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> transport{0};
  std::atomic<int> sample_retry{-1};
  std::mutex sample_mutex;
  std::string sample_reason;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng = util::rng::derive(0x510, static_cast<std::uint64_t>(c));
      net::PersistentHttpClient client("127.0.0.1", server.port());
      for (int i = 0; i < kRequests; ++i) {
        // Open loop with a coordinated-omission guard: when the previous
        // request ran past this arrival, issue immediately.
        const auto due = start + i * kGap +
                         std::chrono::microseconds(rng.range(0, 5000));
        std::this_thread::sleep_until(due);
        try {
          const net::HttpResponse response = client.get("/api/hot");
          if (response.status == 200) {
            ++ok;
          } else if (response.status == 503) {
            ++shed;
            const auto retry = response.headers.find("Retry-After");
            const auto reason = response.headers.find("X-Shed-Reason");
            if (retry != response.headers.end() && reason != response.headers.end()) {
              sample_retry.store(std::stoi(retry->second), std::memory_order_relaxed);
              const std::lock_guard lock(sample_mutex);
              sample_reason = reason->second;
            }
          }
        } catch (const std::exception&) {
          ++transport;
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();

  SloOutcome outcome;
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  outcome.ok = ok.load();
  outcome.shed = shed.load();
  outcome.transport = transport.load();
  outcome.final_limit = server.admission() != nullptr ? server.admission()->limit() : 0;
  outcome.sample_retry_after = sample_retry.load();
  outcome.sample_reason = sample_reason;
  const obs::Snapshot snapshot = registry.snapshot();
  const auto* wait = snapshot.find_histogram("server_queue_wait_seconds");
  outcome.queue_wait_p99 = wait != nullptr ? wait->p99 : 0.0;
  const auto* admission = snapshot.find_counter("server_shed_total", "admission");
  outcome.admission_sheds = admission != nullptr ? admission->value : 0;
  server.stop();
  return outcome;
}

TEST(GamedaySlo, AdaptiveAdmissionHoldsQueueDelayAtTwiceSaturation) {
  constexpr std::uint64_t kIssued = 16 * 30;
  // The timing gates below are real-time measurements on a possibly
  // oversubscribed CI core; a single descheduled worker can blow any honest
  // latency budget. Best-of-three: an actual controller regression fails all
  // attempts, a scheduler stall doesn't.
  constexpr int kAttempts = 3;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    const SloOutcome fixed = run_overloaded(net::AdmissionMode::kFixed);
    const SloOutcome adaptive = run_overloaded(net::AdmissionMode::kQueueDelay);

    // Hard invariants, checked on every attempt.
    // Outcome accounting holds at the client, for both controllers.
    ASSERT_EQ(fixed.ok + fixed.shed + fixed.transport, kIssued);
    ASSERT_EQ(adaptive.ok + adaptive.shed + adaptive.transport, kIssued);
    // The fixed cliff never sheds here (the queue never reaches capacity 64
    // with 16 clients) — it just lets the backlog stand; the adaptive
    // controller sheds at the limit instead and attributes every 503.
    ASSERT_EQ(fixed.shed, 0u);
    ASSERT_GT(adaptive.shed, 0u);
    ASSERT_GT(adaptive.admission_sheds, 0u);
    ASSERT_EQ(adaptive.sample_reason, "admission");
    ASSERT_GE(adaptive.sample_retry_after, 1);  // satellite: integer >= 1
    ASSERT_GT(fixed.wall_seconds, 0.0);
    ASSERT_GT(adaptive.wall_seconds, 0.0);

    const double fixed_goodput = static_cast<double>(fixed.ok) / fixed.wall_seconds;
    const double adaptive_goodput =
        static_cast<double>(adaptive.ok) / adaptive.wall_seconds;
    std::printf(
        "slo attempt %d: fixed p99_wait=%.4fs goodput=%.0f/s | adaptive "
        "p99_wait=%.4fs goodput=%.0f/s sheds=%llu limit=%zu\n",
        attempt, fixed.queue_wait_p99, fixed_goodput, adaptive.queue_wait_p99,
        adaptive_goodput, static_cast<unsigned long long>(adaptive.admission_sheds),
        adaptive.final_limit);

    // The SLO gates. Target is 5 ms; the AIMD oscillation tops out around a
    // depth-6 queue (~3 drain rounds = 15-20 ms actual wait) and the
    // log-bucketed histogram estimates within 2x (the reading lands in the
    // 13-26 ms bucket), so 30 ms is the tightest honest budget — still well
    // under the ~38 ms standing queue the fixed cliff tolerates at this
    // load. Shedding must also buy that latency without giving up
    // throughput (goodput within a CI margin of the fixed baseline — both
    // run at ~capacity).
    const bool holds_delay = adaptive.queue_wait_p99 <= 0.030;
    const bool beats_cliff = fixed.queue_wait_p99 > adaptive.queue_wait_p99;
    const bool holds_limit = adaptive.final_limit < 64;
    const bool keeps_goodput = adaptive_goodput >= 0.6 * fixed_goodput;
    if (holds_delay && beats_cliff && holds_limit && keeps_goodput) return;

    EXPECT_LT(attempt, kAttempts)
        << "SLO gate failed on every attempt: holds_delay=" << holds_delay
        << " beats_cliff=" << beats_cliff << " holds_limit=" << holds_limit
        << " keeps_goodput=" << keeps_goodput
        << " (adaptive p99=" << adaptive.queue_wait_p99
        << "s, fixed p99=" << fixed.queue_wait_p99
        << "s, adaptive goodput=" << adaptive_goodput
        << "/s, fixed goodput=" << fixed_goodput << "/s)";
  }
}

}  // namespace
}  // namespace appstore
