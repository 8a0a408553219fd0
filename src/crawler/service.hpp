// The simulated appstore REST service (the "server side" of Fig. 1).
//
// Wraps a fully-generated market::AppStore behind an HTTP API exposing what
// the real stores' websites exposed: a paginated app directory and per-app
// statistics pages with *exact* download counts (the reason these four
// stores were chosen, §2.1). The service advances through virtual crawl
// days; responses reflect cumulative state up to the current day, so a
// daily re-crawl observes the store exactly as the paper's crawlers did.
//
// Policy enforcement mirrors §2.2:
//   * per-client token-bucket rate limiting (client = "X-Client-Id" header,
//     i.e. the proxy identity) with 429 on violation;
//   * optional region gating: a store configured as China-only answers 403
//     to clients whose id is not tagged "cn" (the paper could reach the
//     Chinese stores only through PlanetLab nodes in China);
//   * optional random transient failures (500) to exercise crawler retries.
//
// Endpoints (the /api/v1 surface; any other path answers 404):
//   /api/v1/meta                      -> {store, day, total_apps}
//   /api/v1/apps?page=P&per_page=N   -> {page, total, ids:[...]}
//   /api/v1/app/<id>                  -> per-app statistics
//   /api/v1/app/<id>/comments?page=P -> {total, comments:[...]}
//   /api/v1/app/<id>/apk              -> the current version's APK blob
//                                        (synthetic; see crawler/apk.hpp)
//   /api/v1/query                     -> online analytics (GET query-string
//                                        or POST JSON; see docs/query.md)
//   /api/v1/metrics[?fmt=text]       -> observability snapshot (JSON by
//                                        default; exempt from rate limiting
//                                        and region gating)
//
// Every non-200 response carries the uniform JSON error envelope
//   {"error": {"code": <slug>, "message": <text>, "retry_after_ms"?: <ms>}}
// (including the 503 load-shed response written below the handler, via
// net::ServerOptions::shed_body).
//
// Every instance owns an obs::Registry populated with per-endpoint request
// and latency families (service_requests_total{endpoint},
// service_request_seconds{endpoint}), policy counters
// (service_injected_failures_total, service_region_blocked_total,
// rate_limiter_*_total), response-cache counters
// (service_response_cache_total{hit,miss}), and the underlying HttpServer's
// http_* and server_* families.
//
// Meta, apps and query responses are cached per (virtual day, ingest
// epoch): an entry stops matching the moment the day advances or any event
// publishes, so the cache never needs a stop-the-world clear and the service
// keeps serving day-N answers while the crawler ingests day N+1. See
// docs/serving.md.
//
// The typed calls respond_partial(), respond_app() and respond_comments()
// are the in-process forms a federation gateway uses: the same gates and
// metrics as respond(), at the day the caller passes, but the answer is a
// typed value, never JSON. respond() serializes the same values through
// app_body() and comments_body(), the one writer per body the gateway also
// uses, so shard and gateway bodies are byte-identical by construction. See
// docs/federation.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crawler/json.hpp"
#include "events/event_log.hpp"
#include "market/durable.hpp"
#include "market/store.hpp"
#include "net/proxy.hpp"
#include "net/rate_limiter.hpp"
#include "net/server.hpp"
#include "obs/registry.hpp"
#include "query/engine.hpp"
#include "util/rng.hpp"

namespace appstore::crawlersim {

struct ServicePolicy {
  double rate_per_second = 200.0;  ///< token refill per client
  double burst = 50.0;             ///< bucket depth
  bool china_only = false;         ///< 403 for non-"cn" clients
  double failure_rate = 0.0;       ///< probability of a injected 500
  std::uint64_t failure_seed = 7;
  /// Response cache for the hot read-only endpoints (meta, apps pages and
  /// query). Entries are keyed by the target and stamped (day, ingest
  /// epoch); a stamp mismatch is a miss, so advancing the day or publishing
  /// events invalidates without locking readers out.
  /// Counted in service_response_cache_total{hit,miss}.
  bool cache_responses = true;
  /// Server sizing, forwarded to net::ServerOptions.
  std::size_t server_workers = 0;         ///< 0 = ServerOptions default
  std::size_t server_queue_capacity = 256;
  std::size_t max_connections = 256;
  /// Admission policy for the ready queue (net::AdmissionOptions, forwarded
  /// to net::ServerOptions): the default kFixed mode is the legacy
  /// queue-capacity cliff; the adaptive modes shed once measured queue delay
  /// exceeds admission.target_delay. See docs/gameday.md.
  net::AdmissionOptions admission;
  /// Optional server-side chaos seam + clock, forwarded to the underlying
  /// net::HttpServer (see net::ServerOptions). Must outlive the service.
  chaos::Clock* clock = nullptr;
  chaos::FaultInjector* faults = nullptr;
  /// Engine limits + planner knobs of the /api/v1/query endpoint.
  query::QueryOptions query;
  /// Optional durability spine: when set, advancing the virtual day via
  /// set_day() first checkpoints the closing day (WAL retired, manifest
  /// published) — the paper's daily crawl cadence becomes the checkpoint
  /// cadence. Must be the DurableStore that owns the served store and must
  /// outlive the service. Serving continues lock-free during the
  /// checkpoint; only ingest writers stall.
  market::DurableStore* durable = nullptr;
};

/// Rows per /api/v1/app/<id>/comments page.
inline constexpr std::uint64_t kCommentsPerPage = 200;

/// The /api/v1/app/<id> document. The string fields view entity strings
/// owned elsewhere: the served store's for an in-process answer, `document`
/// for one decoded from a shard's JSON body.
struct AppDetail {
  std::uint32_t id = 0;
  std::string_view name;
  std::string_view category;
  std::string_view developer;
  bool paid = false;
  double price = 0.0;
  std::uint64_t downloads = 0;  ///< cumulative up to the answer's day
  std::uint32_t version = 0;
  bool has_ads = false;
  market::Day released = 0;
  std::shared_ptr<const Json> document;  ///< null for an in-process answer
};

/// An app's comments visible at one day: the total, and a run of them in
/// the store's append order (events::Event; `app` is the page's app).
struct CommentsPage {
  std::uint32_t app = 0;
  std::uint64_t total = 0;
  std::vector<events::Event> rows;
};

/// A typed call's answer: `value`, or — when a policy gate or the request
/// itself refused the call — the error response respond() would have sent.
template <class T>
struct TypedResponse {
  T value{};
  net::HttpResponse refusal;  ///< status 200 unless refused

  [[nodiscard]] bool refused() const noexcept { return refusal.status != 200; }
};

/// respond_partial()'s answer. The fragment is immutable and shared with the
/// response cache; a holder keeps it alive past any cache clear.
using PartialResponse = TypedResponse<std::shared_ptr<const query::PartialAggregate>>;
using AppResponse = TypedResponse<AppDetail>;
using CommentsResponse = TypedResponse<CommentsPage>;

/// The /api/v1/app/<id> body.
[[nodiscard]] std::string app_body(const AppDetail& app);

/// One /api/v1/app/<id>/comments body: page `page` of app `app`'s `total`
/// comments, whose rows are `rows`.
[[nodiscard]] std::string comments_body(std::uint32_t app, std::uint64_t total,
                                        std::uint64_t page,
                                        std::span<const events::Event> rows);

/// The uniform error envelope every non-200 response carries:
/// {"error": {"code", "message", "retry_after_ms"?}}, plus Retry-After when
/// `retry_after_ms` >= 0.
[[nodiscard]] net::HttpResponse error_response(int status, std::string_view code,
                                               std::string_view message,
                                               std::int64_t retry_after_ms = -1);

class AppstoreService {
 public:
  /// Endpoint classes used as metric labels (docs/observability.md).
  enum class Endpoint : std::uint8_t {
    kMeta = 0,
    kApps,
    kApp,
    kComments,
    kApk,
    kQuery,
    kMetrics,
    kOther,
  };
  static constexpr std::size_t kEndpointCount = 8;

  /// Result of table-driven path routing (see route()).
  struct RouteMatch {
    Endpoint endpoint = Endpoint::kOther;
    std::string_view rest;  ///< path after the matched route prefix
  };

  /// Per-request context handed to handlers — the Options-struct form, so
  /// new handler parameters stop accreting positional arguments.
  struct ServiceRequest {
    const net::HttpRequest* http = nullptr;
    Endpoint endpoint = Endpoint::kOther;
    std::string_view rest;  ///< RouteMatch::rest (e.g. the app id segment)
    market::Day day = 0;
    std::string client;
  };

  /// Starts serving `store` on 127.0.0.1:`port` (0 = ephemeral). The store
  /// must outlive the service and is not mutated.
  AppstoreService(const market::AppStore& store, ServicePolicy policy,
                  std::uint16_t port = 0, net::TokenBucketLimiter::Clock clock = nullptr);

  [[nodiscard]] std::uint16_t port() const noexcept { return server_->port(); }
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return server_->requests_served();
  }

  /// The HTTP server's admission controller. bench_gameday uses it to
  /// pre-converge the adaptive limit before a measured window and to read
  /// the final limit and shed count afterwards.
  [[nodiscard]] net::AdmissionController* admission() noexcept {
    return server_->admission();
  }

  /// The service's metrics registry (also served at /api/v1/metrics).
  [[nodiscard]] const obs::Registry& metrics() const noexcept { return registry_; }
  [[nodiscard]] obs::Registry& metrics() noexcept { return registry_; }

  /// Publishes the new virtual crawl day (thread-safe, wait-free for
  /// concurrent readers). Cached responses stamped with older days simply
  /// stop matching — no stop-the-world invalidation.
  void set_day(market::Day day);
  [[nodiscard]] market::Day day() const noexcept {
    return day_.load(std::memory_order_relaxed);
  }

  /// Serves one request in-process, through the full policy + cache path the
  /// HTTP handler uses — the load harness drives this directly when it wants
  /// to measure the service without socket overhead.
  [[nodiscard]] net::HttpResponse respond(const net::HttpRequest& request) {
    return handle(request);
  }

  /// The typed partial form of a /api/v1/query request (GET or POST; no
  /// partial flag needed) aggregated up to `day`: what respond() answers
  /// with ?partial=1 at that day, without the JSON. Runs the same policy
  /// gates and service_* metrics, and caches the fragment itself under the
  /// (day, epoch) stamp. Any other endpoint is refused 404.
  [[nodiscard]] PartialResponse respond_partial(const net::HttpRequest& request,
                                                market::Day day);

  /// The typed form of a /api/v1/app/<id> request at `day`: the document
  /// respond() writes at that day. Any other endpoint is refused 404.
  [[nodiscard]] AppResponse respond_app(const net::HttpRequest& request, market::Day day);

  /// The typed form of a /api/v1/app/<id>/comments request at `day`, with
  /// every page at once: the total visible comments and the first
  /// `max_rows` of them (the page parameter is ignored). Any other endpoint
  /// is refused 404.
  [[nodiscard]] CommentsResponse respond_comments(const net::HttpRequest& request,
                                                  market::Day day, std::size_t max_rows);

  void stop() { server_->stop(); }

  /// Table-driven path routing: strips the /api/v1 prefix and matches the
  /// remainder against the route table (anything else is kOther). Exposed
  /// for tests and the federation gateway.
  [[nodiscard]] static RouteMatch route(std::string_view path) noexcept;

 private:
  [[nodiscard]] net::HttpResponse handle(const net::HttpRequest& request);
  [[nodiscard]] ServiceRequest context_for(const net::HttpRequest& request,
                                           const RouteMatch& match) const;
  /// The policy gates (region, rate limit, injected failure, method): the
  /// refusal, or nullopt when the request may proceed.
  [[nodiscard]] std::optional<net::HttpResponse> check_gates(const ServiceRequest& context);
  [[nodiscard]] net::HttpResponse handle_meta(market::Day day) const;
  [[nodiscard]] net::HttpResponse handle_apps(const net::HttpRequest& request,
                                              market::Day day) const;
  /// Cache-aware dispatch for the per-day-immutable endpoints. `key` is the
  /// cache key (prefix-stripped target, plus the body for POST).
  [[nodiscard]] net::HttpResponse handle_cacheable(const ServiceRequest& context,
                                                   std::string key);
  /// The shared frame of the typed calls: routes `request`, counts and
  /// times it under its endpoint class, refuses it 404 unless it is
  /// `endpoint`, runs the policy gates, then answers `compute(context)`.
  template <class Answer, class Compute>
  [[nodiscard]] Answer serve_typed(const net::HttpRequest& request, Endpoint endpoint,
                                   Compute&& compute);
  /// The app a /app/<id> route names (catching the derived layout up
  /// first), or nullopt when there is no such app.
  [[nodiscard]] std::optional<std::uint32_t> app_of(std::string_view rest) const;
  [[nodiscard]] AppResponse app_at(std::uint32_t id, market::Day day) const;
  /// App `id`'s comments visible at `day`: the total, and the visible rows
  /// [first, first + limit) in append order.
  [[nodiscard]] CommentsPage comments_at(std::uint32_t id, market::Day day,
                                         std::uint64_t first, std::uint64_t limit) const;
  [[nodiscard]] net::HttpResponse handle_comments(std::uint32_t id, market::Day day,
                                                  const net::HttpRequest& request) const;
  [[nodiscard]] net::HttpResponse handle_apk(std::uint32_t id, market::Day day) const;
  [[nodiscard]] net::HttpResponse handle_metrics(const net::HttpRequest& request) const;
  [[nodiscard]] net::HttpResponse handle_query(const ServiceRequest& context) const;

  /// Cumulative downloads of an app up to the current day (binary search
  /// over the app's sorted event-day list).
  [[nodiscard]] std::uint64_t downloads_up_to(std::uint32_t app, market::Day day) const;
  [[nodiscard]] std::uint32_t version_up_to(std::uint32_t app, market::Day day) const;

  const market::AppStore& store_;
  ServicePolicy policy_;
  std::atomic<market::Day> day_{0};
  obs::Registry registry_;
  net::TokenBucketLimiter limiter_;
  std::atomic<std::uint64_t> failure_state_;

  /// Lock-free per-endpoint handles into registry_, resolved at construction.
  obs::Counter* endpoint_requests_[kEndpointCount] = {};
  obs::Histogram* endpoint_latency_[kEndpointCount] = {};
  obs::Counter* injected_failures_ = nullptr;
  obs::Counter* region_blocked_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;

  /// The analytics engine behind /api/v1/query (bound to store_, metrics in
  /// registry_).
  std::unique_ptr<query::QueryEngine> query_engine_;

  /// Response cache keyed by the prefix-stripped request target. Each entry is
  /// stamped with the (day, ingest epoch) it was computed under; a lookup
  /// must match both, so entries from an older day or a pre-ingest epoch are
  /// dead weight that the next insert for the same key replaces. A racing
  /// insert re-checks both stamps under the writer lock (the map never
  /// serves a response from another day or epoch).
  struct CachedResponse {
    market::Day day;
    std::uint64_t epoch;
    net::HttpResponse response;  ///< the HTTP answer (unused by typed entries)
    /// respond_partial()'s fragment; null for HTTP entries. Typed entries
    /// live under their own keys (see respond_partial).
    std::shared_ptr<const query::PartialAggregate> partial;
  };
  /// The entry for `key` when its stamp is (day, epoch), counting the hit;
  /// nullopt when caching is off or the lookup misses.
  [[nodiscard]] std::optional<CachedResponse> cache_find(const std::string& key,
                                                         market::Day day,
                                                         std::uint64_t epoch) const;
  /// Counts the miss, then caches the answer computed under (day, epoch) —
  /// `partial` when non-null, else `response` when it is a 200 — if that
  /// stamp is still current.
  void cache_store(std::string key, market::Day day, std::uint64_t epoch,
                   const net::HttpResponse& response,
                   std::shared_ptr<const query::PartialAggregate> partial = nullptr);
  mutable std::shared_mutex cache_mutex_;
  std::unordered_map<std::string, CachedResponse> response_cache_;

  /// Derived per-app read layout, refreshed incrementally from the live
  /// logs' frontiers: each refresh absorbs only rows past the recorded
  /// watermarks, so steady-state serving after a quiet frontier is two
  /// atomic loads and a shared lock. Guarded by derived_mutex_.
  struct DerivedState {
    /// Per-app sorted download-event days.
    std::vector<std::vector<market::Day>> download_days;
    /// Per-app comment row ids (into store.comment_log()) in append order.
    std::vector<std::vector<std::uint32_t>> comment_index;
    std::uint64_t download_rows = 0;  ///< download-log rows absorbed
    std::uint64_t comment_rows = 0;   ///< comment-log rows absorbed
  };
  /// Catches the derived state up to the current frontiers (no-op fast path
  /// when the watermarks already match).
  void refresh_derived() const;
  mutable std::shared_mutex derived_mutex_;
  mutable DerivedState derived_;

  std::unique_ptr<net::HttpServer> server_;
};

/// Metric label for an endpoint class ("meta", "apps", ...).
[[nodiscard]] std::string_view to_string(AppstoreService::Endpoint endpoint) noexcept;

}  // namespace appstore::crawlersim
