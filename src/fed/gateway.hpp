// The federation gateway: one HTTP front door over N shard stores.
//
// Each shard holds the full replicated entity state (categories, developers,
// apps, updates) but only the download/comment events of the users its ring
// slice owns (synth::GeneratorConfig::user_filter). The gateway routes:
//
//   /api/v1/metrics            -> the gateway's own registry
//   /api/v1/meta, .../apk      -> one shard (entity data is replicated;
//                                 the shard is picked by hashing the target
//                                 so load spreads)
//   /api/v1/apps               -> scatter to every shard; the directory is
//                                 replicated, so the bodies must be
//                                 identical — a mismatch is answered 502
//                                 {"code": "shard_divergence"}
//   /api/v1/app/<id>           -> scatter; download counts sum across
//                                 shards, entity fields come from the first
//   /api/v1/app/<id>/comments  -> scatter a bounded page prefix per shard,
//                                 merge-sort by (day, shard, position),
//                                 slice the requested page
//   /api/v1/query              -> a filter pinning user == K routes the
//                                 whole query to K's ring owner; otherwise
//                                 every shard answers its typed mergeable
//                                 query::PartialAggregate and the gateway
//                                 finalizes via query::merge_partials — the
//                                 same code path a single store's engine
//                                 runs, which is what makes federated
//                                 answers bit-exact (docs/federation.md)
//
// Partials travel typed. An upstream registers an HTTP call and, optionally,
// a typed partial call (Federation::attach registers the shard service's
// AppstoreService::respond_partial), so an in-process scatter query is never
// serialized to JSON and parsed back. An upstream registered with the HTTP
// call alone gets an adapter as its typed call: it asks for the JSON partial
// form (?partial=1 / "partial": true) and decodes it, answering 502
// bad_upstream_body when the body does not decode. The router sees typed
// partials only; what the upstream registered decides the path. Typed calls
// run through the same breaker, admission, fault seam, hedging and
// accounting as HTTP calls.
//
// Per-upstream protection reuses the existing primitives: a
// net::CircuitBreaker per shard held in a bounded net::UpstreamTable, and a
// net::AdmissionController per shard capping in-flight calls. Slow calls
// are hedged: once the primary attempt has been in flight longer than the
// hedge delay (fixed, or derived from the upstream's observed latency
// quantile), a second attempt races it; the loser is cancelled and counted
// in hedges_cancelled, never as an outcome, so the gateway invariant
//
//   requests == ok + http_4xx + http_5xx + transport + breaker_open + shed
//
// holds exactly (federation_test pins it under fault plans). All time flows
// through chaos::Clock, so the hedge race replays deterministically on a
// VirtualClock: attempts are timed in virtual time and the race is resolved
// arithmetically (winner = faster effective completion), not by wall-clock
// scheduling.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/clock.hpp"
#include "chaos/fault.hpp"
#include "crawler/service.hpp"
#include "fed/ring.hpp"
#include "market/types.hpp"
#include "net/admission.hpp"
#include "net/breaker.hpp"
#include "net/http.hpp"
#include "net/upstreams.hpp"
#include "obs/registry.hpp"

namespace appstore::fed {

struct GatewayOptions {
  RingOptions ring{};
  /// Breaker configuration stamped per upstream (see net::UpstreamTable).
  net::CircuitBreaker::Options breaker{};
  /// Cap on per-upstream breaker state (satellite: the gateway's upstream
  /// table must stay bounded under membership churn).
  std::size_t max_upstream_keys = net::UpstreamTable::kDefaultMaxKeys;
  /// Per-shard in-flight admission (kFixed: shed only at limit_ceiling).
  net::AdmissionOptions admission{};

  /// Hedging. A zero hedge_delay means "derive it": once hedge_min_samples
  /// primary successes were recorded for an upstream, the delay is that
  /// upstream's hedge_quantile latency; until then no hedge fires. A
  /// non-zero delay is used as-is (what the deterministic tests pin).
  bool hedge_enabled = true;
  std::chrono::nanoseconds hedge_delay{0};
  double hedge_quantile = 0.95;
  std::size_t hedge_min_samples = 64;

  /// Per-shard page-prefix cap for the comments merge (the gateway refuses
  /// — 502 "comment_scan_overflow" — rather than scanning unboundedly).
  std::size_t comment_scan_pages = 64;

  /// Time source for hedge timing and breakers (nullptr = real time).
  chaos::Clock* clock = nullptr;
  /// Optional fault seam consulted per upstream call (FaultSite::kExchange,
  /// key = shard id). Must outlive the gateway.
  chaos::FaultInjector* faults = nullptr;
};

/// Whole-gateway accounting. `requests` counts respond() calls;
/// every one lands in exactly one outcome bucket.
struct GatewayStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;            ///< gateway answered < 400
  std::uint64_t http_4xx = 0;      ///< gateway answered 4xx
  std::uint64_t http_5xx = 0;      ///< gateway answered 5xx (not the below)
  std::uint64_t transport = 0;     ///< 502 for an upstream transport error
  std::uint64_t breaker_open = 0;  ///< 503, some upstream's breaker open
  std::uint64_t shed = 0;          ///< 503, per-shard admission refused

  std::uint64_t upstream_calls = 0;    ///< attempts reaching a shard
  std::uint64_t hedges = 0;            ///< hedge attempts issued
  std::uint64_t hedge_wins = 0;        ///< races the hedge won
  std::uint64_t hedges_cancelled = 0;  ///< losing attempts (never outcomes)
};

class FederationGateway {
 public:
  /// One in-process upstream exchange (typically AppstoreService::respond
  /// bound to a shard service). Throwing means a transport error.
  using Call = std::function<net::HttpResponse(const net::HttpRequest&)>;
  /// One typed partial exchange for a /api/v1/query request (typically
  /// AppstoreService::respond_partial). Throwing means a transport error.
  using PartialCall = std::function<crawlersim::PartialResponse(const net::HttpRequest&)>;

  explicit FederationGateway(GatewayOptions options = {});

  /// Registers shard `id` and joins it to the ring. Without a `partial` call
  /// the gateway decodes `call`'s JSON partial form instead (see above).
  /// Replaces the calls of an existing id (the breaker and latency history
  /// survive).
  void add_upstream(const std::string& id, Call call, PartialCall partial = {});

  /// Removes shard `id` from the ring and drops its breaker state.
  /// False when unknown.
  bool remove_upstream(const std::string& id);

  /// Serves one request through the routing table above.
  [[nodiscard]] net::HttpResponse respond(const net::HttpRequest& request);

  [[nodiscard]] GatewayStats stats() const;
  [[nodiscard]] const HashRing& ring() const noexcept { return ring_; }
  [[nodiscard]] obs::Registry& metrics() noexcept { return registry_; }
  [[nodiscard]] net::UpstreamTable& upstreams() noexcept { return breakers_; }
  [[nodiscard]] const GatewayOptions& options() const noexcept { return options_; }

 private:
  /// Per-upstream serving state (membership is explicit, unlike the bounded
  /// breaker table): the exchange callable, in-flight admission, and the
  /// primary-success latency reservoir the hedge delay derives from.
  struct Upstream {
    std::string id;
    Call call;
    PartialCall partial;
    std::unique_ptr<net::AdmissionController> admission;
    std::atomic<std::size_t> in_flight{0};

    /// Ring of recent primary-success latencies (ns); the cached hedge
    /// delay is recomputed every kRecacheEvery samples.
    static constexpr std::size_t kReservoirSize = 512;
    static constexpr std::size_t kRecacheEvery = 64;
    std::mutex latency_mutex;
    std::vector<std::int64_t> latency_ring;
    std::size_t latency_next = 0;
    std::uint64_t latency_samples = 0;
    std::atomic<std::int64_t> cached_hedge_delay_ns{-1};  ///< -1 = not ready
  };

  enum class CallStatus : std::uint8_t {
    kOk = 0,       ///< got an HTTP response (any status)
    kTransport,    ///< exchange failed below HTTP
    kBreakerOpen,  ///< not attempted: breaker open
    kShed,         ///< not attempted: per-shard admission refused
  };

  /// Which of an upstream's calls an exchange uses.
  enum class CallKind : std::uint8_t {
    kHttp = 0,  ///< Upstream::call
    kPartial,   ///< Upstream::partial
  };

  /// A typed partial call's fragment travels in `partial` with `response`
  /// left a bare 200; a refusal travels in `response` like an HTTP answer.
  struct CallResult {
    CallStatus status = CallStatus::kTransport;
    net::HttpResponse response;
    std::shared_ptr<const query::PartialAggregate> partial;
    std::chrono::nanoseconds latency{0};
  };

  /// One raw timed exchange through the fault seam (no breaker/admission).
  struct Attempt {
    bool transport = false;
    net::HttpResponse response;
    std::shared_ptr<const query::PartialAggregate> partial;
    std::chrono::nanoseconds latency{0};
  };
  [[nodiscard]] Attempt exchange(Upstream& upstream, const net::HttpRequest& request,
                                 CallKind kind);

  /// Breaker + admission + hedged exchange against one shard.
  [[nodiscard]] CallResult call_upstream(Upstream& upstream, const net::HttpRequest& request,
                                         CallKind kind = CallKind::kHttp);

  /// The hedge delay for `upstream` (fixed, derived, or nullopt = no hedge).
  [[nodiscard]] std::optional<std::chrono::nanoseconds> hedge_delay(Upstream& upstream);
  void record_latency(Upstream& upstream, std::chrono::nanoseconds latency);

  /// Scatter `request` to every upstream, sequentially in ring-membership
  /// order (deterministic upstream call order — what the chaos tests use).
  [[nodiscard]] std::vector<CallResult> scatter(const net::HttpRequest& request,
                                                CallKind kind = CallKind::kHttp);

  /// Outcome classification of one gateway response — tagged explicitly at
  /// the point the response is built (a 503 alone cannot tell breaker_open
  /// from shed).
  enum class Outcome : std::uint8_t {
    kOk = 0,
    kHttp4xx,
    kHttp5xx,
    kTransport,
    kBreakerOpen,
    kShed,
  };
  struct Routed {
    net::HttpResponse response;
    Outcome outcome = Outcome::kOk;
  };
  /// Tags by status class (for responses forwarded from a shard).
  [[nodiscard]] static Routed classify(net::HttpResponse response);
  /// Maps a single upstream CallResult to the gateway answer.
  [[nodiscard]] Routed from_call(CallResult result) const;

  /// Routing dispatch; caller (respond) counts the outcome. Expects
  /// upstreams_mutex_ held shared.
  [[nodiscard]] Routed dispatch(const net::HttpRequest& request);

  // Route handlers; each returns the gateway response plus its outcome tag.
  [[nodiscard]] Routed route_single(const net::HttpRequest& request, std::uint64_t ring_key);
  [[nodiscard]] Routed route_apps(const net::HttpRequest& request);
  [[nodiscard]] Routed route_app(const net::HttpRequest& request, std::string_view rest);
  [[nodiscard]] Routed route_comments(const net::HttpRequest& request,
                                      std::string_view rest);
  [[nodiscard]] Routed route_query(const net::HttpRequest& request);

  /// Maps a set of scatter results to the error short-circuit (breaker /
  /// shed / transport / first non-200), or nullopt when all are 200.
  [[nodiscard]] std::optional<Routed> scatter_error(
      const std::vector<CallResult>& results) const;

  void count_outcome(Outcome outcome);
  [[nodiscard]] Upstream* find_upstream(const std::string& id) noexcept;

  GatewayOptions options_;
  obs::Registry registry_;

  /// Lock-free handles into registry_, resolved at construction.
  obs::Counter* outcome_requests_[6] = {};  ///< gateway_requests_total, index = Outcome
  obs::Counter* upstream_calls_ = nullptr;
  obs::Counter* hedges_issued_ = nullptr;
  obs::Counter* hedges_won_ = nullptr;
  obs::Counter* hedges_cancelled_ = nullptr;

  HashRing ring_;
  net::UpstreamTable breakers_;

  mutable std::shared_mutex upstreams_mutex_;
  std::vector<std::unique_ptr<Upstream>> upstreams_;  ///< ring-member order

  mutable std::mutex stats_mutex_;
  GatewayStats stats_;
};

}  // namespace appstore::fed
