#include "fed/gateway.hpp"

#include <algorithm>
#include <chrono>
#include <type_traits>
#include <utility>
#include <vector>

#include "crawler/query_json.hpp"
#include "crawler/service.hpp"
#include "obs/export.hpp"
#include "query/expression.hpp"
#include "query/federate.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace appstore::fed {

namespace {

using crawlersim::error_response;

/// The error response a call's answer carries: the response itself for
/// Shard::respond, the refusal of a typed answer (status 200 = none).
template <class Answer>
[[nodiscard]] auto& refusal_of(Answer& answer) noexcept {
  if constexpr (std::is_same_v<std::remove_const_t<Answer>, net::HttpResponse>) {
    return answer;
  } else {
    return answer.refusal;
  }
}

/// gateway_requests_total labels, indexed by FederationGateway::Outcome.
constexpr std::string_view kOutcomeLabels[6] = {"ok",        "http_4xx",     "http_5xx",
                                                "transport", "breaker_open", "shed"};

/// Bound on cached merged answers, with the service response cache's rule:
/// at capacity the map is cleared and starts over.
constexpr std::size_t kMaxCachedAnswers = 4096;

/// Calls one shard may have in flight; a call past it is shed (503
/// admission_shed) before it reaches the breaker.
constexpr std::size_t kMaxInFlightPerShard = 256;

/// The answer-cache key: the target, plus '\n' + body for a POST (the key
/// the shard services' response caches use).
[[nodiscard]] std::string answer_key(const net::HttpRequest& request) {
  std::string key = request.target;
  if (request.method == "POST") {
    key += '\n';
    key += request.body;
  }
  return key;
}

}  // namespace

FederationGateway::FederationGateway(GatewayOptions options)
    : options_(std::move(options)), ring_(options_.ring) {
  registry_.describe("gateway_requests_total", "Gateway responses by outcome");
  registry_.describe("gateway_upstream_calls_total", "Shard calls attempted");
  registry_.describe("gateway_answer_cache_total",
                     "Merged scatter-query answers served from the answer cache (hit) or "
                     "merged (miss)");
  for (std::size_t i = 0; i < std::size(kOutcomeLabels); ++i) {
    outcome_requests_[i] = &registry_.counter("gateway_requests_total", kOutcomeLabels[i]);
  }
  upstream_calls_ = &registry_.counter("gateway_upstream_calls_total");
  answer_hits_ = &registry_.counter("gateway_answer_cache_total", "hit");
  answer_misses_ = &registry_.counter("gateway_answer_cache_total", "miss");
}

void FederationGateway::add_upstream(const std::string& id, Call call) {
  add_upstream(id, std::make_shared<HttpShard>(std::move(call)));
}

void FederationGateway::add_upstream(const std::string& id, std::shared_ptr<Shard> shard) {
  const std::unique_lock lock(upstreams_mutex_);
  for (auto& upstream : upstreams_) {
    if (upstream->id == id) {
      upstream->shard = std::move(shard);
      return;
    }
  }
  net::CircuitBreaker::Options breaker = options_.breaker;
  if (breaker.clock == nullptr) breaker.clock = options_.clock;
  upstreams_.push_back(std::make_unique<Upstream>(id, std::move(shard), breaker));
  ring_.add(id);
}

bool FederationGateway::remove_upstream(const std::string& id) {
  const std::unique_lock lock(upstreams_mutex_);
  const auto it = std::find_if(upstreams_.begin(), upstreams_.end(),
                               [&](const auto& upstream) { return upstream->id == id; });
  if (it == upstreams_.end()) return false;
  upstreams_.erase(it);
  ring_.remove(id);
  return true;
}

GatewayStats FederationGateway::stats() const {
  const auto count = [this](Outcome outcome) {
    return outcome_requests_[static_cast<std::size_t>(outcome)]->value();
  };
  GatewayStats stats;
  stats.ok = count(Outcome::kOk);
  stats.http_4xx = count(Outcome::kHttp4xx);
  stats.http_5xx = count(Outcome::kHttp5xx);
  stats.transport = count(Outcome::kTransport);
  stats.breaker_open = count(Outcome::kBreakerOpen);
  stats.shed = count(Outcome::kShed);
  stats.requests = stats.ok + stats.http_4xx + stats.http_5xx + stats.transport +
                   stats.breaker_open + stats.shed;
  stats.upstream_calls = upstream_calls_->value();
  return stats;
}

net::HttpResponse FederationGateway::respond(const net::HttpRequest& request) {
  Routed routed;
  {
    const std::shared_lock lock(upstreams_mutex_);
    routed = dispatch(request);
  }
  outcome_requests_[static_cast<std::size_t>(routed.outcome)]->inc();
  return std::move(routed.response);
}

FederationGateway::Routed FederationGateway::dispatch(const net::HttpRequest& request) {
  using Service = crawlersim::AppstoreService;
  const std::string path = request.path();
  const Service::RouteMatch match = Service::route(path);

  if (match.endpoint == Service::Endpoint::kMetrics) {
    const auto params = request.query();
    const auto it = params.find("fmt");
    if (it != params.end() && it->second == "text") {
      return classify(net::HttpResponse::text(200, obs::to_text(registry_)));
    }
    return classify(net::HttpResponse::json(200, obs::to_json(registry_)));
  }
  if (upstreams_.empty()) {
    return {error_response(503, "no_upstreams", "no shards registered"), Outcome::kShed};
  }
  switch (match.endpoint) {
    case Service::Endpoint::kMeta:
    case Service::Endpoint::kApps:
    case Service::Endpoint::kApk:
      // Replicated data: any one shard answers (Federation::attach checked
      // that the in-process shards agree); hash the target so load spreads
      // across the membership.
      return route_single(request, util::hash64(request.target));
    case Service::Endpoint::kApp: return route_app(request);
    case Service::Endpoint::kComments: return route_comments(request);
    case Service::Endpoint::kQuery: return route_query(request);
    case Service::Endpoint::kMetrics:
    case Service::Endpoint::kOther: break;
  }
  return {error_response(404, "not_found", "no such endpoint"), Outcome::kHttp4xx};
}

// ---- upstream calls --------------------------------------------------------

template <class Answer, class Exchange>
FederationGateway::CallResult<Answer> FederationGateway::call_upstream(Upstream& upstream,
                                                                       Exchange&& exchange) {
  CallResult<Answer> result;
  if (upstream.in_flight.load(std::memory_order_relaxed) >= kMaxInFlightPerShard) {
    result.status = CallStatus::kShed;
    return result;
  }
  if (!upstream.breaker.allow()) {
    result.status = CallStatus::kBreakerOpen;
    return result;
  }
  upstream.in_flight.fetch_add(1, std::memory_order_acq_rel);
  bool transport = false;
  chaos::Fault fault;
  if (options_.faults != nullptr) {
    fault = options_.faults->next(chaos::FaultSite::kExchange, upstream.id);
  }
  switch (fault.kind) {
    case chaos::FaultKind::kConnectRefused:
    case chaos::FaultKind::kConnectionReset:
      transport = true;
      break;
    case chaos::FaultKind::kHttp429:
      refusal_of(result.answer) = error_response(429, "injected_fault", "injected 429");
      break;
    case chaos::FaultKind::kHttp403:
      refusal_of(result.answer) = error_response(403, "injected_fault", "injected 403");
      break;
    case chaos::FaultKind::kHttp500:
      refusal_of(result.answer) = error_response(500, "injected_fault", "injected 500");
      break;
    case chaos::FaultKind::kLatency:
      chaos::sleep_or_real(options_.clock, fault.latency);
      [[fallthrough]];
    default:
      try {
        result.answer = exchange(*upstream.shard);
      } catch (...) {
        transport = true;
      }
      break;
  }
  upstream.in_flight.fetch_sub(1, std::memory_order_acq_rel);
  if (transport || refusal_of(result.answer).status >= 500) {
    (void)upstream.breaker.record_failure();
  } else {
    upstream.breaker.record_success();
  }
  upstream_calls_->inc();
  result.status = transport ? CallStatus::kTransport : CallStatus::kOk;
  return result;
}

template <class Answer, class Exchange>
std::vector<FederationGateway::CallResult<Answer>> FederationGateway::scatter(
    Exchange&& exchange) {
  std::vector<CallResult<Answer>> results;
  results.reserve(upstreams_.size());
  for (const auto& upstream : upstreams_) {
    results.push_back(call_upstream<Answer>(*upstream, exchange));
  }
  return results;
}

market::Day FederationGateway::request_day() const {
  std::optional<market::Day> day;
  for (const auto& upstream : upstreams_) {
    if (const std::optional<market::Day> published = upstream->shard->day()) {
      day = day ? std::min(*day, *published) : *published;
    }
  }
  return day.value_or(0);
}

// ---- outcome mapping -------------------------------------------------------

FederationGateway::Routed FederationGateway::classify(net::HttpResponse response) {
  Routed routed;
  routed.outcome = response.status < 400   ? Outcome::kOk
                   : response.status < 500 ? Outcome::kHttp4xx
                                           : Outcome::kHttp5xx;
  routed.response = std::move(response);
  return routed;
}

FederationGateway::Routed FederationGateway::unanswered(CallStatus status) const {
  switch (status) {
    case CallStatus::kTransport:
      return {error_response(502, "upstream_transport", "shard exchange failed"),
              Outcome::kTransport};
    case CallStatus::kBreakerOpen:
      return {error_response(
                  503, "breaker_open", "shard breaker open",
                  std::chrono::duration_cast<std::chrono::milliseconds>(
                      options_.breaker.open_timeout)
                      .count()),
              Outcome::kBreakerOpen};
    case CallStatus::kOk:
    case CallStatus::kShed: break;
  }
  return {error_response(503, "admission_shed", "shard admission refused", 1000),
          Outcome::kShed};
}

template <class Answer>
std::optional<FederationGateway::Routed> FederationGateway::scatter_error(
    const std::vector<CallResult<Answer>>& results) const {
  for (const auto status : {CallStatus::kBreakerOpen, CallStatus::kShed,
                            CallStatus::kTransport}) {
    for (const auto& result : results) {
      if (result.status == status) return unanswered(status);
    }
  }
  for (const auto& result : results) {
    if (refusal_of(result.answer).status != 200) return classify(refusal_of(result.answer));
  }
  return std::nullopt;
}

// ---- routes ----------------------------------------------------------------

FederationGateway::Routed FederationGateway::route_single(const net::HttpRequest& request,
                                                          std::uint64_t ring_key) {
  Upstream& owner = *upstreams_[ring_.owner_index(ring_key)];
  CallResult<net::HttpResponse> result = call_upstream<net::HttpResponse>(
      owner, [&](Shard& shard) { return shard.respond(request); });
  if (result.status != CallStatus::kOk) return unanswered(result.status);
  return classify(std::move(result.answer));
}

FederationGateway::Routed FederationGateway::route_app(const net::HttpRequest& request) {
  const market::Day day = request_day();
  auto results = scatter<crawlersim::AppResponse>(
      [&](Shard& shard) { return shard.app(request, day); });
  if (auto error = scatter_error(results)) return std::move(*error);
  // Entity fields are replicated; only the download count is sharded.
  std::uint64_t downloads = 0;
  for (const auto& result : results) downloads += result.answer.value.downloads;
  crawlersim::AppDetail& app = results.front().answer.value;
  app.downloads = downloads;
  return classify(net::HttpResponse::json(200, crawlersim::app_body(app)));
}

FederationGateway::Routed FederationGateway::route_comments(const net::HttpRequest& request) {
  const auto params = request.query();
  std::uint64_t page = 0;
  if (const auto it = params.find("page"); it != params.end()) {
    if (!util::parse_u64(it->second, page)) {
      return {error_response(400, "bad_request", "bad page"), Outcome::kHttp4xx};
    }
  }
  const market::Day day = request_day();
  const std::size_t max_rows = options_.comment_scan_pages * crawlersim::kCommentsPerPage;
  const auto results = scatter<crawlersim::CommentsResponse>(
      [&](Shard& shard) { return shard.comments(request, day, max_rows); });
  if (auto error = scatter_error(results)) return std::move(*error);

  std::uint64_t total = 0;
  std::vector<const events::Event*> rows;
  for (const auto& result : results) {
    const crawlersim::CommentsPage& shard_page = result.answer.value;
    if (shard_page.total > max_rows) {
      return {error_response(502, "comment_scan_overflow",
                             "per-shard comment pages exceed the merge bound"),
              Outcome::kHttp5xx};
    }
    total += shard_page.total;
    for (const events::Event& row : shard_page.rows) rows.push_back(&row);
  }
  // Deterministic merged order: day, then ring-membership order, then the
  // shard's own append order — the order `rows` was filled in, which the
  // stable sort keeps within a day (docs/federation.md documents that this
  // is a stable federation order, not the single store's byte order).
  std::stable_sort(rows.begin(), rows.end(), [](const events::Event* a, const events::Event* b) {
    return a->day < b->day;
  });
  std::vector<events::Event> slice;
  const std::uint64_t first = crawlersim::page_start(page, crawlersim::kCommentsPerPage);
  for (std::uint64_t i = first; i < rows.size() && i - first < crawlersim::kCommentsPerPage;
       ++i) {
    slice.push_back(*rows[i]);
  }
  return classify(net::HttpResponse::json(
      200, crawlersim::comments_body(results.front().answer.value.app, total, page, slice)));
}

FederationGateway::Routed FederationGateway::route_query(const net::HttpRequest& request) {
  query::QuerySpec spec;
  try {
    spec = crawlersim::parse_query_request(request);
  } catch (const query::QueryError& error) {
    return {error_response(400, error.code(), error.what()), Outcome::kHttp4xx};
  }
  // A query pinned to one user lives entirely on that user's ring owner:
  // forward it whole and let the shard (and its response cache) answer.
  if (const auto user = query::single_user_route(spec)) {
    return route_single(request, static_cast<std::uint64_t>(*user));
  }
  const market::Day day = request_day();
  const Fragments results = scatter<crawlersim::PartialResponse>(
      [&](Shard& shard) { return shard.partial(request, day); });
  if (auto error = scatter_error(results)) return std::move(*error);

  std::vector<const query::PartialAggregate*> partials;
  partials.reserve(results.size());
  for (const auto& result : results) {
    if (result.answer.value == nullptr) {
      return {error_response(502, "bad_upstream_body", "shard answered no partial"),
              Outcome::kHttp5xx};
    }
    partials.push_back(result.answer.value.get());
  }
  std::string key = answer_key(request);
  if (std::optional<std::string> body = cached_answer(key, results)) {
    answer_hits_->inc();
    return classify(net::HttpResponse::json(200, std::move(*body)));
  }
  answer_misses_->inc();
  std::string body;
  try {
    const query::QueryResult merged = query::merge_partials(spec, partials);
    body = crawlersim::query_result_json(merged, partials.front()->day).dump();
  } catch (const query::QueryError& error) {
    return {error_response(502, "shard_divergence", error.what()), Outcome::kHttp5xx};
  }
  cache_answer(std::move(key), results, body);
  return classify(net::HttpResponse::json(200, std::move(body)));
}

std::optional<std::string> FederationGateway::cached_answer(const std::string& key,
                                                            const Fragments& fragments) const {
  const std::shared_lock lock(answers_mutex_);
  const auto it = answers_.find(key);
  if (it == answers_.end() || it->second.fragments.size() != fragments.size()) {
    return std::nullopt;
  }
  // lock(), never a stored address: an expired fragment matches nothing,
  // even when a new fragment reuses its address.
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    if (it->second.fragments[i].lock() != fragments[i].answer.value) return std::nullopt;
  }
  return it->second.body;
}

void FederationGateway::cache_answer(std::string key, const Fragments& fragments,
                                     const std::string& body) {
  CachedAnswer entry;
  entry.fragments.reserve(fragments.size());
  for (const auto& fragment : fragments) {
    if (fragment.answer.value.use_count() < 2) return;
    entry.fragments.emplace_back(fragment.answer.value);
  }
  entry.body = body;
  const std::unique_lock lock(answers_mutex_);
  if (answers_.size() >= kMaxCachedAnswers) answers_.clear();
  answers_.insert_or_assign(std::move(key), std::move(entry));
}

}  // namespace appstore::fed
