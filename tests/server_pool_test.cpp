// Worker-pool server behavior: keep-alive reuse, bounded-queue load
// shedding, graceful drain, and the service's per-day response cache.
// Runs under the TSan preset (see CMakePresets.json / ROADMAP.md) — the
// dispatcher/worker handoff is exactly the kind of code TSan exists for.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "crawler/json.hpp"
#include "crawler/service.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "obs/registry.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"

namespace appstore::net {
namespace {

using namespace std::chrono_literals;

// ---- keep-alive ----------------------------------------------------------------

TEST(WorkerPool, KeepAliveReusesOneConnection) {
  ServerOptions options;
  options.worker_threads = 2;
  HttpServer server(options,
                    [](const HttpRequest&) { return HttpResponse::text(200, "ok"); });
  PersistentHttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(client.get("/x").status, 200);
  }
  EXPECT_EQ(client.connections_opened(), 1u);
  EXPECT_EQ(server.requests_served(), 50u);
}

TEST(WorkerPool, ServesConcurrentPersistentClients) {
  ServerOptions options;
  options.worker_threads = 4;
  HttpServer server(options,
                    [](const HttpRequest&) { return HttpResponse::text(200, "ok"); });
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < 8; ++c) {
    threads.emplace_back([&server, &failures] {
      PersistentHttpClient client("127.0.0.1", server.port());
      for (int i = 0; i < 25; ++i) {
        if (client.get("/x").status != 200) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_served(), 200u);
}

// ---- bounded queue load shedding ----------------------------------------------

TEST(WorkerPool, BoundedQueueShedsWith503AndRetryAfter) {
  // One worker, a queue of one: with the worker blocked, at most one further
  // request can wait; everything else must be shed with an explicit 503.
  std::promise<void> blocked_promise;
  auto blocked = blocked_promise.get_future();
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  ServerOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 1;
  HttpServer server(options, [&blocked_promise, release](const HttpRequest& request) {
    if (request.target == "/block") {
      blocked_promise.set_value();
      release.wait();
    }
    return HttpResponse::text(200, "ok");
  });

  // Occupy the single worker.
  std::thread blocker([&server] {
    HttpClient client("127.0.0.1", server.port());
    EXPECT_EQ(client.get("/block").status, 200);
  });
  // Wait until the blocker is inside the handler (not just queued) — the
  // requests_served counter is no use here, it only ticks after completion.
  ASSERT_EQ(blocked.wait_for(5s), std::future_status::ready);
  const auto deadline = std::chrono::steady_clock::now() + 5s;

  // Saturate: these connections become readable while the only worker is
  // blocked; once the ready queue holds one of them the rest are shed.
  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 6; ++i) {
    clients.emplace_back([&server, &ok, &shed] {
      HttpClient client("127.0.0.1", server.port(),
                        ClientOptions{.timeout = std::chrono::milliseconds(10000)});
      const HttpResponse response = client.get("/fill");
      if (response.status == 200) ++ok;
      if (response.status == 503) {
        ++shed;
        // Retry-After is the admission controller's recovery estimate: an
        // integer number of seconds, floored at 1 (gameday_test pins the
        // estimate itself; here only the contract).
        const int retry_after = std::stoi(response.headers.at("Retry-After"));
        EXPECT_GE(retry_after, 1);
        EXPECT_EQ(response.headers.at("X-Shed-Reason"), "queue");
      }
    });
  }
  // Give the dispatcher time to observe the readable connections and shed.
  while (server.connections_shed() < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  release_promise.set_value();
  for (auto& client : clients) client.join();
  blocker.join();

  EXPECT_EQ(ok.load() + shed.load(), 6);
  EXPECT_GE(shed.load(), 1);
  EXPECT_EQ(server.connections_shed(), static_cast<std::uint64_t>(shed.load()));
}

// ---- graceful drain ------------------------------------------------------------

TEST(WorkerPool, GracefulDrainCompletesInFlightRequests) {
  std::promise<void> started_promise;
  auto started = started_promise.get_future();
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<bool> signalled{false};
  ServerOptions options;
  options.worker_threads = 2;
  auto server = std::make_unique<HttpServer>(
      options, [&, release](const HttpRequest&) {
        if (!signalled.exchange(true)) started_promise.set_value();
        release.wait();
        return HttpResponse::text(200, "drained");
      });

  std::promise<HttpResponse> result_promise;
  auto result = result_promise.get_future();
  std::thread client_thread([&server, &result_promise] {
    // Persistent client: it does NOT ask for "Connection: close", so a close
    // header on the response can only be the server's drain signal.
    PersistentHttpClient client("127.0.0.1", server->port());
    result_promise.set_value(client.get("/slow"));
  });
  ASSERT_EQ(started.wait_for(5s), std::future_status::ready);

  // stop() while the request is in the handler: it must complete, and its
  // response must carry "Connection: close" (the drain signal).
  std::thread stopper([&server] { server->stop(); });
  std::this_thread::sleep_for(10ms);  // let stop() reach the drain phase
  release_promise.set_value();
  stopper.join();
  client_thread.join();

  const HttpResponse response = result.get();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "drained");
  EXPECT_EQ(response.headers.at("Connection"), "close");
  EXPECT_EQ(server->requests_served(), 1u);
}

// ---- response cache ------------------------------------------------------------

class ResponseCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::GeneratorConfig config;
    config.app_scale = 0.002;
    config.download_scale = 2e-6;
    config.seed = 17;
    generated_ = std::make_unique<synth::GeneratedStore>(
        synth::generate(synth::anzhi(), config));
  }

  [[nodiscard]] std::uint64_t cache_counter(const crawlersim::AppstoreService& service,
                                            std::string_view label) const {
    // Keep the snapshot alive past find_counter: the pointer it returns aims
    // into the snapshot's own storage, not the registry.
    const auto snapshot = service.metrics().snapshot();
    const auto* sample = snapshot.find_counter("service_response_cache_total", label);
    return sample != nullptr ? sample->value : 0;
  }

  std::unique_ptr<synth::GeneratedStore> generated_;
};

TEST_F(ResponseCacheTest, InvalidatedAcrossAdvanceDay) {
  crawlersim::ServicePolicy policy;
  policy.rate_per_second = 1e9;
  policy.burst = 1e9;
  crawlersim::AppstoreService service(*generated_->store, policy);
  service.set_day(0);

  PersistentHttpClient client("127.0.0.1", service.port());
  Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";

  const auto day0 = client.get("/api/v1/meta", headers);
  ASSERT_EQ(day0.status, 200);
  const auto day0_again = client.get("/api/v1/meta", headers);
  EXPECT_EQ(day0_again.body, day0.body);
  EXPECT_EQ(cache_counter(service, "hit"), 1u);
  EXPECT_EQ(cache_counter(service, "miss"), 1u);

  // Advancing the day must invalidate: the store grows as apps release, so
  // a stale cached /api/v1/meta would report the wrong total_apps.
  service.set_day(60);
  const auto day60 = client.get("/api/v1/meta", headers);
  ASSERT_EQ(day60.status, 200);
  EXPECT_EQ(cache_counter(service, "miss"), 2u);
  const auto parsed0 = crawlersim::parse_json(day0.body);
  const auto parsed60 = crawlersim::parse_json(day60.body);
  ASSERT_TRUE(parsed0.has_value() && parsed60.has_value());
  EXPECT_EQ(parsed60->at("day").as_integer<std::uint64_t>().value(), 60u);
  EXPECT_GT(parsed60->at("total_apps").as_integer<std::uint64_t>().value(),
            parsed0->at("total_apps").as_integer<std::uint64_t>().value());

  // Directory pages are cached per (target, day) too.
  const auto apps_first = client.get("/api/v1/apps?page=0&per_page=50", headers);
  const auto apps_second = client.get("/api/v1/apps?page=0&per_page=50", headers);
  ASSERT_EQ(apps_first.status, 200);
  EXPECT_EQ(apps_first.body, apps_second.body);
  EXPECT_EQ(cache_counter(service, "hit"), 2u);
  EXPECT_EQ(cache_counter(service, "miss"), 3u);
}

TEST_F(ResponseCacheTest, CachedAndUncachedBodiesAgree) {
  crawlersim::ServicePolicy cached_policy;
  cached_policy.rate_per_second = 1e9;
  cached_policy.burst = 1e9;
  crawlersim::ServicePolicy uncached_policy = cached_policy;
  uncached_policy.cache_responses = false;

  crawlersim::AppstoreService cached(*generated_->store, cached_policy);
  crawlersim::AppstoreService uncached(*generated_->store, uncached_policy);
  cached.set_day(60);
  uncached.set_day(60);

  HttpRequest request;
  request.headers["X-Client-Id"] = "proxy-eu-1";
  for (const char* target :
       {"/api/v1/meta", "/api/v1/apps?page=0&per_page=25", "/api/v1/apps?page=1&per_page=25"}) {
    request.target = target;
    const auto cold = cached.respond(request);
    const auto warm = cached.respond(request);  // second hit comes from cache
    const auto reference = uncached.respond(request);
    EXPECT_EQ(cold.body, reference.body) << target;
    EXPECT_EQ(warm.body, reference.body) << target;
    EXPECT_EQ(warm.status, reference.status) << target;
  }
}

}  // namespace
}  // namespace appstore::net
