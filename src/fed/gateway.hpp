// The federation gateway: one HTTP front door over N shard stores.
//
// Each shard holds the full replicated entity state (categories, developers,
// apps, updates) but only the download/comment events of the users its ring
// slice owns (synth::GeneratorConfig::user_filter). The gateway routes:
//
//   /api/v1/metrics            -> the gateway's own registry
//   /api/v1/meta, .../apps,    -> one shard (entity data is replicated; the
//   .../apk                       shard is picked by hashing the target so
//                                 load spreads)
//   /api/v1/app/<id>           -> scatter typed app calls; download counts
//                                 sum across shards, entity fields come from
//                                 the first; the body is written once
//   /api/v1/app/<id>/comments  -> one typed call per shard for its total and
//                                 visible rows (at most comment_scan_pages
//                                 pages' worth, or 502 comment_scan_overflow),
//                                 merged by (day, shard, position); only the
//                                 requested page is written
//   /api/v1/query              -> a filter pinning user == K routes the
//                                 whole query to K's ring owner; otherwise
//                                 every shard answers its typed mergeable
//                                 query::PartialAggregate and the gateway
//                                 finalizes via query::merge_partials — the
//                                 same code path a single store's engine
//                                 runs, which is what makes federated
//                                 answers bit-exact (docs/federation.md)
//
// The answer cache: merge_partials is a pure function of (spec, fragments),
// and the spec of the request key, so a merged scatter-query body is kept
// with weak references to the fragments it was merged from, and served
// again only while every shard hands back those same fragment objects
// (each shard's response cache keeps handing back one object per (day,
// epoch) stamp; any set_day or publish gives it a new one). The shard calls
// still all run first, so the in-flight caps, the breakers, the fault seam
// and the accounting see every request.
//
// Shards are fed::Shard objects (fed/shard.hpp). Federation::attach
// registers a ServiceShard per in-process shard, so no JSON passes between
// gateway and shard; an upstream registered with an HTTP call becomes an
// HttpShard, the only gateway code that parses JSON. The app, comments and
// scatter-query routes read one day per request — the least day the
// in-process shards have published — and pass it to every typed call, so a
// scatter that races Federation::set_day still answers at one day
// (HttpShards answer at their own day; merge_partials refuses fragments of
// two days, answered 502 shard_divergence).
//
// Per-upstream protection lives in each member's record: a constant cap on
// in-flight calls and a net::CircuitBreaker, created when the shard joins,
// kept when its id is re-registered and dropped when it leaves, so
// membership alone bounds breaker state. Every shard call, typed or not,
// runs through the in-flight cap, the breaker, the kExchange fault seam and
// the accounting. Scatter calls the shards one after the other, so there is
// no in-process hedge: a backup issued after the primary has returned
// cannot win (docs/federation.md §4). Every respond() lands in exactly one
// outcome counter, so
//
//   requests == ok + http_4xx + http_5xx + transport + breaker_open + shed
//
// holds by construction; stats() reads the gateway_* counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chaos/clock.hpp"
#include "chaos/fault.hpp"
#include "fed/ring.hpp"
#include "fed/shard.hpp"
#include "market/types.hpp"
#include "net/breaker.hpp"
#include "net/http.hpp"
#include "obs/registry.hpp"
#include "query/engine.hpp"

namespace appstore::fed {

struct GatewayOptions {
  RingOptions ring{};
  /// Configuration of each member's breaker (clock nullptr = `clock`).
  net::CircuitBreaker::Options breaker{};

  /// Per-shard page-prefix cap for the comments merge (the gateway refuses
  /// — 502 "comment_scan_overflow" — rather than scanning unboundedly).
  std::size_t comment_scan_pages = 64;

  /// Time source for upstream latencies and breakers (nullptr = real time).
  chaos::Clock* clock = nullptr;
  /// Optional fault seam consulted per upstream call (FaultSite::kExchange,
  /// key = shard id). Must outlive the gateway.
  chaos::FaultInjector* faults = nullptr;
};

/// Whole-gateway accounting, read from the gateway_* counters. `requests`
/// is the sum of the six outcomes.
struct GatewayStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;            ///< gateway answered < 400
  std::uint64_t http_4xx = 0;      ///< gateway answered 4xx
  std::uint64_t http_5xx = 0;      ///< gateway answered 5xx (not the below)
  std::uint64_t transport = 0;     ///< 502 for an upstream transport error
  std::uint64_t breaker_open = 0;  ///< 503, some upstream's breaker open
  std::uint64_t shed = 0;          ///< 503, a shard's in-flight cap refused

  std::uint64_t upstream_calls = 0;  ///< shard calls attempted
  /// Always 0: the gateway issues no hedges. Kept for the benchmark, which
  /// still reads them.
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
};

class FederationGateway {
 public:
  /// One in-process upstream exchange (typically AppstoreService::respond
  /// bound to a shard service). Throwing means a transport error.
  using Call = HttpShard::Call;

  explicit FederationGateway(GatewayOptions options = {});

  /// Registers shard `id` behind an HTTP exchange (an HttpShard) and joins
  /// it to the ring with a closed breaker. Replaces the shard of an existing
  /// id (its breaker survives).
  void add_upstream(const std::string& id, Call call);
  /// Registers `shard` as shard `id`, as above.
  void add_upstream(const std::string& id, std::shared_ptr<Shard> shard);

  /// Removes shard `id` from the ring and drops its record, breaker
  /// included. False when unknown.
  bool remove_upstream(const std::string& id);

  /// Serves one request through the routing table above.
  [[nodiscard]] net::HttpResponse respond(const net::HttpRequest& request);

  [[nodiscard]] GatewayStats stats() const;
  [[nodiscard]] const HashRing& ring() const noexcept { return ring_; }
  [[nodiscard]] obs::Registry& metrics() noexcept { return registry_; }
  [[nodiscard]] const GatewayOptions& options() const noexcept { return options_; }

 private:
  /// Every request writes the membership lock's reader count, each scatter
  /// query the answer-cache lock's, and each shard call its member's breaker
  /// and in-flight count. Each of these starts a cache line of its own, so
  /// the two callers' writes never share a line with the fields a request
  /// only reads, wherever the allocator places the gateway.
  static constexpr std::size_t kCacheLine = 64;

  /// One member: its shard, its breaker and its calls in flight.
  struct alignas(kCacheLine) Upstream {
    Upstream(std::string member, std::shared_ptr<Shard> served,
             const net::CircuitBreaker::Options& breaker_options)
        : id(std::move(member)), shard(std::move(served)), breaker(breaker_options) {}

    std::string id;
    std::shared_ptr<Shard> shard;
    net::CircuitBreaker breaker;
    std::atomic<std::size_t> in_flight{0};
  };

  enum class CallStatus : std::uint8_t {
    kOk = 0,       ///< got an answer (a value or a refusal)
    kTransport,    ///< exchange failed below HTTP
    kBreakerOpen,  ///< not attempted: breaker open
    kShed,         ///< not attempted: the shard's in-flight cap was reached
  };

  /// One shard call's outcome. `Answer` is net::HttpResponse for
  /// Shard::respond, else the typed call's crawlersim::TypedResponse.
  template <class Answer>
  struct CallResult {
    CallStatus status = CallStatus::kTransport;
    Answer answer{};
  };

  /// In-flight cap + breaker + fault seam + accounting around one shard
  /// call, `exchange(shard)`.
  template <class Answer, class Exchange>
  [[nodiscard]] CallResult<Answer> call_upstream(Upstream& upstream, Exchange&& exchange);

  /// `exchange` against every upstream, sequentially in ring-membership
  /// order (deterministic upstream call order — what the chaos tests use).
  template <class Answer, class Exchange>
  [[nodiscard]] std::vector<CallResult<Answer>> scatter(Exchange&& exchange);

  /// The day this request reads every in-process shard at: the least day
  /// they have published (0 when every shard is an HttpShard).
  [[nodiscard]] market::Day request_day() const;

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
  /// The gateway answer for a call that got no answer (`status` != kOk).
  [[nodiscard]] Routed unanswered(CallStatus status) const;

  /// Routing dispatch; caller (respond) counts the outcome. Expects
  /// upstreams_mutex_ held shared.
  [[nodiscard]] Routed dispatch(const net::HttpRequest& request);

  // Route handlers; each returns the gateway response plus its outcome tag.
  [[nodiscard]] Routed route_single(const net::HttpRequest& request, std::uint64_t ring_key);
  [[nodiscard]] Routed route_app(const net::HttpRequest& request);
  [[nodiscard]] Routed route_comments(const net::HttpRequest& request);
  [[nodiscard]] Routed route_query(const net::HttpRequest& request);

  /// Maps a set of scatter results to the error short-circuit (breaker /
  /// shed / transport / first refusal), or nullopt when all answered.
  template <class Answer>
  [[nodiscard]] std::optional<Routed> scatter_error(
      const std::vector<CallResult<Answer>>& results) const;

  using Fragments = std::vector<CallResult<crawlersim::PartialResponse>>;
  /// The cached body for `key` when it was merged from exactly `fragments`
  /// (the same objects, in scatter order).
  [[nodiscard]] std::optional<std::string> cached_answer(const std::string& key,
                                                         const Fragments& fragments) const;
  /// Caches `body` as merged from `fragments`, unless one of them is held by
  /// no one else (an HttpShard's or an uncached shard's), so it can never
  /// be handed back.
  void cache_answer(std::string key, const Fragments& fragments, const std::string& body);

  /// A merged scatter-query body and the fragments it was merged from.
  /// Weak: the shard caches own the fragments, and an entry must not pin
  /// ones they have dropped.
  struct CachedAnswer {
    std::vector<std::weak_ptr<const query::PartialAggregate>> fragments;
    std::string body;
  };

  GatewayOptions options_;
  obs::Registry registry_;

  /// Lock-free handles into registry_, resolved at construction.
  obs::Counter* outcome_requests_[6] = {};  ///< gateway_requests_total, index = Outcome
  obs::Counter* upstream_calls_ = nullptr;
  obs::Counter* answer_hits_ = nullptr;    ///< gateway_answer_cache_total{hit}
  obs::Counter* answer_misses_ = nullptr;  ///< gateway_answer_cache_total{miss}

  /// The membership lock: respond() holds it shared, add_upstream and
  /// remove_upstream unique. Under it the ring and upstreams_ are appended
  /// to and erased from together, so upstreams_[ring_.owner_index(key)] is
  /// the owner's record.
  alignas(kCacheLine) mutable std::shared_mutex upstreams_mutex_;
  alignas(kCacheLine) HashRing ring_;
  std::vector<std::unique_ptr<Upstream>> upstreams_;  ///< ring-member order

  alignas(kCacheLine) mutable std::shared_mutex answers_mutex_;
  /// Keyed by target, plus '\n' + body for a POST; cleared at capacity.
  alignas(kCacheLine) std::unordered_map<std::string, CachedAnswer> answers_;
};

}  // namespace appstore::fed
