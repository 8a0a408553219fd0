#include "crawler/service.hpp"

#include <algorithm>

#include "crawler/apk.hpp"
#include "crawler/json.hpp"
#include "crawler/query_json.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace appstore::crawlersim {

namespace {

constexpr std::size_t kMaxPerPage = 500;

/// Bound on cached responses: meta plus directory pages plus distinct
/// query targets — a handful per day in practice; the cap only guards
/// against a pathological client enumerating distinct targets.
constexpr std::size_t kMaxCachedResponses = 4096;

constexpr std::string_view kV1Prefix = "/api/v1";

/// Key prefix of respond_partial()'s typed cache entries.
constexpr std::string_view kTypedPartialKey = "typed:";

/// The route table: path remainder (after the version prefix) -> endpoint.
/// Prefix routes match any path continuing past the pattern; /app/<id>
/// sub-routes (comments, apk) are refined by suffix below.
struct Route {
  std::string_view pattern;
  bool exact;
  AppstoreService::Endpoint endpoint;
};

constexpr Route kRoutes[] = {
    {"/meta", true, AppstoreService::Endpoint::kMeta},
    {"/apps", true, AppstoreService::Endpoint::kApps},
    {"/app/", false, AppstoreService::Endpoint::kApp},
    {"/query", true, AppstoreService::Endpoint::kQuery},
    {"/metrics", true, AppstoreService::Endpoint::kMetrics},
};

[[nodiscard]] std::string client_of(const net::HttpRequest& request) {
  const auto it = request.headers.find("X-Client-Id");
  return it == request.headers.end() ? std::string("anonymous") : it->second;
}

/// Response-cache key: `prefix`, then the target minus the version prefix;
/// a POST query is additionally keyed by its body.
[[nodiscard]] std::string cache_key(const net::HttpRequest& request,
                                    std::string_view prefix = {}) {
  std::string key(prefix);
  key += std::string_view(request.target).substr(kV1Prefix.size());
  if (request.method == "POST") {
    key += '\n';
    key += request.body;
  }
  return key;
}

[[nodiscard]] bool is_china_client(std::string_view client) {
  // Proxy ids are "proxy-<region>-<n>".
  return client.find("-cn-") != std::string_view::npos;
}

[[nodiscard]] std::string_view reason_for(int status) noexcept {
  switch (status) {
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

}  // namespace

net::HttpResponse error_response(int status, std::string_view code, std::string_view message,
                                 std::int64_t retry_after_ms) {
  JsonObject error;
  error.emplace_back("code", Json(code));
  error.emplace_back("message", Json(message));
  if (retry_after_ms >= 0) error.emplace_back("retry_after_ms", Json(retry_after_ms));
  net::HttpResponse response = net::HttpResponse::json(
      status, json_object({{"error", Json(std::move(error))}}).dump());
  response.reason = std::string(reason_for(status));
  if (retry_after_ms >= 0) {
    response.headers["Retry-After"] =
        std::to_string(std::max<std::int64_t>(1, (retry_after_ms + 999) / 1000));
  }
  return response;
}

std::string app_body(const AppDetail& app) {
  std::string out;
  out.reserve(160 + app.name.size() + app.category.size() + app.developer.size());
  out += "{\"id\":";
  write_json_number(out, app.id);
  out += ",\"name\":";
  write_json_string(out, app.name);
  out += ",\"category\":";
  write_json_string(out, app.category);
  out += ",\"developer\":";
  write_json_string(out, app.developer);
  out += app.paid ? ",\"paid\":true,\"price\":" : ",\"paid\":false,\"price\":";
  write_json_number(out, app.price);
  out += ",\"downloads\":";
  write_json_number(out, static_cast<double>(app.downloads));
  out += ",\"version\":";
  write_json_number(out, app.version);
  out += app.has_ads ? ",\"has_ads\":true,\"released\":" : ",\"has_ads\":false,\"released\":";
  write_json_number(out, app.released);
  out += '}';
  return out;
}

std::string comments_body(std::uint32_t app, std::uint64_t total, std::uint64_t page,
                          std::span<const events::Event> rows) {
  std::string out;
  out.reserve(64 + 56 * rows.size());
  out += "{\"app\":";
  write_json_number(out, app);
  out += ",\"total\":";
  write_json_number(out, static_cast<double>(total));
  out += ",\"page\":";
  write_json_number(out, static_cast<double>(page));
  out += ",\"comments\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += i == 0 ? "{\"user\":" : ",{\"user\":";
    write_json_number(out, rows[i].user);
    out += ",\"day\":";
    write_json_number(out, rows[i].day);
    out += ",\"ordinal\":";
    write_json_number(out, rows[i].ordinal);
    out += ",\"rating\":";
    write_json_number(out, rows[i].rating);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string_view to_string(AppstoreService::Endpoint endpoint) noexcept {
  switch (endpoint) {
    case AppstoreService::Endpoint::kMeta: return "meta";
    case AppstoreService::Endpoint::kApps: return "apps";
    case AppstoreService::Endpoint::kApp: return "app";
    case AppstoreService::Endpoint::kComments: return "comments";
    case AppstoreService::Endpoint::kApk: return "apk";
    case AppstoreService::Endpoint::kQuery: return "query";
    case AppstoreService::Endpoint::kMetrics: return "metrics";
    case AppstoreService::Endpoint::kOther: return "other";
  }
  return "?";
}

AppstoreService::RouteMatch AppstoreService::route(std::string_view path) noexcept {
  RouteMatch match;
  if (!path.starts_with(kV1Prefix)) return match;
  const std::string_view rest = path.substr(kV1Prefix.size());
  for (const Route& entry : kRoutes) {
    const bool hit = entry.exact ? rest == entry.pattern : rest.starts_with(entry.pattern);
    if (!hit) continue;
    match.endpoint = entry.endpoint;
    match.rest = rest.substr(entry.pattern.size());
    if (entry.endpoint == Endpoint::kApp) {
      if (match.rest.ends_with("/comments")) {
        match.endpoint = Endpoint::kComments;
        match.rest.remove_suffix(std::string_view("/comments").size());
      } else if (match.rest.ends_with("/apk")) {
        match.endpoint = Endpoint::kApk;
        match.rest.remove_suffix(std::string_view("/apk").size());
      }
    }
    return match;
  }
  return match;
}

AppstoreService::AppstoreService(const market::AppStore& store, ServicePolicy policy,
                                 std::uint16_t port, net::TokenBucketLimiter::Clock clock)
    : store_(store),
      policy_(policy),
      limiter_(policy.rate_per_second, policy.burst, std::move(clock)),
      failure_state_(policy.failure_seed) {
  registry_.describe("service_requests_total", "Requests by endpoint class");
  registry_.describe("service_request_seconds", "Handler latency by endpoint class");
  registry_.describe("service_injected_failures_total", "Injected 500 responses");
  registry_.describe("service_region_blocked_total", "403 responses (region gating)");
  registry_.describe("service_response_cache_total",
                     "Per-day response cache lookups by outcome");
  for (std::size_t i = 0; i < kEndpointCount; ++i) {
    const std::string_view label = to_string(static_cast<Endpoint>(i));
    endpoint_requests_[i] = &registry_.counter("service_requests_total", label);
    endpoint_latency_[i] = &registry_.histogram("service_request_seconds", label);
  }
  injected_failures_ = &registry_.counter("service_injected_failures_total");
  region_blocked_ = &registry_.counter("service_region_blocked_total");
  cache_hits_ = &registry_.counter("service_response_cache_total", "hit");
  cache_misses_ = &registry_.counter("service_response_cache_total", "miss");
  limiter_.attach_metrics(registry_);

  query_engine_ = std::make_unique<query::QueryEngine>(store_, policy_.query, &registry_);

  derived_.download_days.resize(store_.apps().size());
  derived_.comment_index.resize(store_.apps().size());
  refresh_derived();

  net::ServerOptions server_options;
  server_options.port = port;
  server_options.metrics = &registry_;
  server_options.clock = policy_.clock;
  server_options.faults = policy_.faults;
  server_options.worker_threads = policy_.server_workers;
  server_options.queue_capacity = policy_.server_queue_capacity;
  server_options.max_connections = policy_.max_connections;
  server_options.admission = policy_.admission;
  // The load-shed 503 is written below the handler; give it the same error
  // envelope every in-handler error uses.
  server_options.shed_body =
      error_response(503, "overloaded", "server busy", 1000).body;
  server_options.shed_content_type = "application/json";
  server_ = std::make_unique<net::HttpServer>(
      server_options, [this](const net::HttpRequest& request) { return handle(request); });
}

void AppstoreService::refresh_derived() const {
  const events::FrontierSnapshot downloads = store_.download_log();
  const events::FrontierSnapshot comments = store_.comment_log();
  {
    const std::shared_lock lock(derived_mutex_);
    if (derived_.download_rows == downloads.size() &&
        derived_.comment_rows == comments.size()) {
      return;
    }
  }
  const std::unique_lock lock(derived_mutex_);
  // Absorb only the rows past the watermarks. Live ingestion appends in
  // (roughly) day order, so the common insert position is the back of the
  // per-app vector; out-of-order days fall back to a sorted insert.
  for (std::uint64_t i = derived_.download_rows; i < downloads.size(); ++i) {
    auto& days = derived_.download_days[downloads.app()[i]];
    const market::Day day = downloads.day()[i];
    if (days.empty() || day >= days.back()) {
      days.push_back(day);
    } else {
      days.insert(std::upper_bound(days.begin(), days.end(), day), day);
    }
  }
  derived_.download_rows = downloads.size();
  for (std::uint64_t i = derived_.comment_rows; i < comments.size(); ++i) {
    derived_.comment_index[comments.app()[i]].push_back(static_cast<std::uint32_t>(i));
  }
  derived_.comment_rows = comments.size();
}

std::uint64_t AppstoreService::downloads_up_to(std::uint32_t app, market::Day day) const {
  const std::shared_lock lock(derived_mutex_);
  const auto& days = derived_.download_days[app];
  return static_cast<std::uint64_t>(
      std::upper_bound(days.begin(), days.end(), day) - days.begin());
}

std::uint32_t AppstoreService::version_up_to(std::uint32_t app, market::Day day) const {
  const auto& updates = store_.apps()[app].update_days;
  return 1 + static_cast<std::uint32_t>(
                 std::upper_bound(updates.begin(), updates.end(), day) - updates.begin());
}

AppstoreService::ServiceRequest AppstoreService::context_for(
    const net::HttpRequest& request, const RouteMatch& match) const {
  ServiceRequest context;
  context.http = &request;
  context.endpoint = match.endpoint;
  context.rest = match.rest;
  context.day = day_.load(std::memory_order_relaxed);
  context.client = client_of(request);
  return context;
}

std::optional<net::HttpResponse> AppstoreService::check_gates(const ServiceRequest& context) {
  if (policy_.china_only && !is_china_client(context.client)) {
    region_blocked_->inc();
    return error_response(403, "region_blocked", "store not served in this region");
  }
  if (!limiter_.allow(context.client)) {
    const auto retry_ms = static_cast<std::int64_t>(
        std::max(1.0, 1000.0 / std::max(policy_.rate_per_second, 1e-9)));
    return error_response(429, "rate_limited", "per-client rate limit exceeded",
                          retry_ms);
  }
  if (policy_.failure_rate > 0.0) {
    // Deterministic per-request failure injection (splitmix64 walk).
    std::uint64_t state = failure_state_.fetch_add(1, std::memory_order_relaxed);
    util::Rng rng(util::splitmix64(state));
    if (rng.chance(policy_.failure_rate)) {
      injected_failures_->inc();
      return error_response(500, "internal", "transient failure (injected)");
    }
  }
  const bool post_allowed = context.endpoint == Endpoint::kQuery;
  const std::string& method = context.http->method;
  if (method != "GET" && !(post_allowed && method == "POST")) {
    return error_response(405, "method_not_allowed",
                          post_allowed ? "only GET and POST supported"
                                       : "only GET supported");
  }
  return std::nullopt;
}

net::HttpResponse AppstoreService::handle(const net::HttpRequest& request) {
  const std::string path = request.path();
  const RouteMatch match = route(path);
  const auto slot = static_cast<std::size_t>(match.endpoint);
  endpoint_requests_[slot]->inc();
  const obs::ScopedTimer timer(endpoint_latency_[slot]);

  // The metrics endpoint is operational, not part of the simulated store:
  // it bypasses region gating, rate limiting and failure injection so a
  // scrape can never be throttled by (or perturb) the workload under study.
  if (match.endpoint == Endpoint::kMetrics) return handle_metrics(request);

  const ServiceRequest context = context_for(request, match);
  if (auto refusal = check_gates(context)) return std::move(*refusal);

  switch (match.endpoint) {
    case Endpoint::kMeta:
    case Endpoint::kApps:
    case Endpoint::kQuery:
      return handle_cacheable(context, cache_key(request));
    case Endpoint::kApp:
    case Endpoint::kComments:
    case Endpoint::kApk: {
      const std::optional<std::uint32_t> id = app_of(match.rest);
      if (!id) return error_response(404, "not_found", "no such app");
      if (match.endpoint == Endpoint::kComments) {
        return handle_comments(*id, context.day, request);
      }
      if (match.endpoint == Endpoint::kApk) return handle_apk(*id, context.day);
      AppResponse answer = app_at(*id, context.day);
      if (answer.refused()) return std::move(answer.refusal);
      return net::HttpResponse::json(200, app_body(answer.value));
    }
    case Endpoint::kMetrics:
    case Endpoint::kOther:
      break;
  }
  return error_response(404, "not_found", "no such endpoint");
}

void AppstoreService::set_day(market::Day day) {
  // Day boundaries are the durability cadence: checkpoint the closing day
  // before the new one becomes visible, so a crash afterwards recovers at
  // least everything the previous day served. Serving threads are not
  // blocked — the checkpoint reads frontier snapshots.
  if (policy_.durable != nullptr && day > day_.load(std::memory_order_relaxed)) {
    (void)policy_.durable->checkpoint();
  }
  // Publish-only: entries stamped with the old day stop matching, and the
  // next insert for the same key replaces them. Readers are never blocked.
  day_.store(day, std::memory_order_relaxed);
}

std::optional<AppstoreService::CachedResponse> AppstoreService::cache_find(
    const std::string& key, market::Day day, std::uint64_t epoch) const {
  if (!policy_.cache_responses) return std::nullopt;
  const std::shared_lock lock(cache_mutex_);
  const auto it = response_cache_.find(key);
  if (it == response_cache_.end() || it->second.day != day || it->second.epoch != epoch) {
    return std::nullopt;
  }
  cache_hits_->inc();
  return it->second;
}

void AppstoreService::cache_store(std::string key, market::Day day, std::uint64_t epoch,
                                  const net::HttpResponse& response,
                                  std::shared_ptr<const query::PartialAggregate> partial) {
  if (!policy_.cache_responses) return;
  cache_misses_->inc();
  if (partial == nullptr && response.status != 200) return;
  const std::unique_lock lock(cache_mutex_);
  // Re-check both stamps under the writer lock: a set_day or a publish that
  // raced this computation must not get a stale entry cached over it. At
  // capacity every resident entry is from some older stamp or a pathological
  // key sweep — clear and start over (a fragment a caller still holds stays
  // alive through its shared_ptr).
  if (day_.load(std::memory_order_relaxed) != day || store_.ingest_epoch() != epoch) return;
  if (response_cache_.size() >= kMaxCachedResponses) response_cache_.clear();
  CachedResponse entry{day, epoch, {}, std::move(partial)};
  if (entry.partial == nullptr) entry.response = response;
  response_cache_.insert_or_assign(std::move(key), std::move(entry));
}

net::HttpResponse AppstoreService::handle_cacheable(const ServiceRequest& context,
                                                    std::string key) {
  // These endpoints are pure functions of (target, day, published events) —
  // so identical requests under one (day, ingest epoch) stamp can share one
  // computed response; any publish bumps the epoch and naturally invalidates.
  // The cache sits after the policy gates: rate limiting and region checks
  // are still charged per request.
  const market::Day day = day_.load(std::memory_order_relaxed);
  const std::uint64_t epoch = store_.ingest_epoch();
  if (auto hit = cache_find(key, day, epoch)) return std::move(hit->response);
  net::HttpResponse response;
  switch (context.endpoint) {
    case Endpoint::kMeta: response = handle_meta(day); break;
    case Endpoint::kApps: response = handle_apps(*context.http, day); break;
    case Endpoint::kQuery: response = handle_query(context); break;
    default: response = error_response(404, "not_found", "no such endpoint"); break;
  }
  cache_store(std::move(key), day, epoch, response);
  return response;
}

template <class Answer, class Compute>
Answer AppstoreService::serve_typed(const net::HttpRequest& request, Endpoint endpoint,
                                    Compute&& compute) {
  const std::string path = request.path();
  const RouteMatch match = route(path);
  const auto slot = static_cast<std::size_t>(match.endpoint);
  endpoint_requests_[slot]->inc();
  const obs::ScopedTimer timer(endpoint_latency_[slot]);
  Answer answer;
  if (match.endpoint != endpoint) {
    answer.refusal = error_response(404, "not_found", "no typed form for this endpoint");
    return answer;
  }
  const ServiceRequest context = context_for(request, match);
  if (auto refusal = check_gates(context)) {
    answer.refusal = std::move(*refusal);
    return answer;
  }
  return compute(context);
}

PartialResponse AppstoreService::respond_partial(const net::HttpRequest& request,
                                                 market::Day day) {
  return serve_typed<PartialResponse>(request, Endpoint::kQuery, [&](const ServiceRequest&) {
    // Typed fragments share the response cache under their own keys (HTTP
    // keys always start with '/'), stamped with the day the caller asked
    // for, so a caller that keeps asking for the published day keeps
    // hitting.
    std::string key = cache_key(request, kTypedPartialKey);
    const std::uint64_t epoch = store_.ingest_epoch();
    PartialResponse answer;
    if (auto hit = cache_find(key, day, epoch)) {
      answer.value = std::move(hit->partial);
      return answer;
    }
    try {
      answer.value = std::make_shared<const query::PartialAggregate>(
          query_engine_->run_partial(parse_query_request(request), day));
    } catch (const query::QueryError& error) {
      answer.refusal = error_response(400, error.code(), error.what());
    }
    cache_store(std::move(key), day, epoch, answer.refusal, answer.value);
    return answer;
  });
}

AppResponse AppstoreService::respond_app(const net::HttpRequest& request, market::Day day) {
  return serve_typed<AppResponse>(request, Endpoint::kApp, [&](const ServiceRequest& context) {
    const std::optional<std::uint32_t> id = app_of(context.rest);
    if (!id) return AppResponse{{}, error_response(404, "not_found", "no such app")};
    return app_at(*id, day);
  });
}

CommentsResponse AppstoreService::respond_comments(const net::HttpRequest& request,
                                                   market::Day day, std::size_t max_rows) {
  return serve_typed<CommentsResponse>(
      request, Endpoint::kComments, [&](const ServiceRequest& context) {
        CommentsResponse answer;
        if (const std::optional<std::uint32_t> id = app_of(context.rest)) {
          answer.value = comments_at(*id, day, 0, max_rows);
        } else {
          answer.refusal = error_response(404, "not_found", "no such app");
        }
        return answer;
      });
}

net::HttpResponse AppstoreService::handle_query(const ServiceRequest& context) const {
  try {
    const query::QuerySpec spec = parse_query_request(*context.http);
    // Partial mode (?partial=1 / "partial": true): the mergeable shard
    // fragment a federation gateway recombines (see query/federate.hpp).
    if (wants_partial(*context.http)) {
      const query::PartialAggregate partial = query_engine_->run_partial(spec, context.day);
      return net::HttpResponse::json(200, query_partial_json(partial).dump());
    }
    const query::QueryResult result = query_engine_->run(spec, context.day);
    return net::HttpResponse::json(200, query_result_json(result, context.day).dump());
  } catch (const query::QueryError& error) {
    return error_response(400, error.code(), error.what());
  }
}

net::HttpResponse AppstoreService::handle_metrics(const net::HttpRequest& request) const {
  const auto query = request.query();
  const auto it = query.find("fmt");
  if (it != query.end() && it->second == "text") {
    return net::HttpResponse::text(200, obs::to_text(registry_));
  }
  return net::HttpResponse::json(200, obs::to_json(registry_));
}

net::HttpResponse AppstoreService::handle_meta(market::Day day) const {
  std::uint64_t visible = 0;
  for (const auto& app : store_.apps()) {
    if (app.released <= day) ++visible;
  }
  return net::HttpResponse::json(
      200, json_object({{"store", store_.name()},
                        {"day", static_cast<std::int64_t>(day)},
                        {"total_apps", visible},
                        {"categories", static_cast<std::uint64_t>(store_.categories().size())}})
               .dump());
}

net::HttpResponse AppstoreService::handle_apps(const net::HttpRequest& request,
                                               market::Day day) const {
  const auto query = request.query();
  std::uint64_t page = 0;
  std::uint64_t per_page = 100;
  if (const auto it = query.find("page"); it != query.end()) {
    if (!util::parse_u64(it->second, page)) {
      return error_response(400, "bad_request", "bad page");
    }
  }
  if (const auto it = query.find("per_page"); it != query.end()) {
    if (!util::parse_u64(it->second, per_page) || per_page == 0 || per_page > kMaxPerPage) {
      return error_response(400, "bad_request", "bad per_page");
    }
  }

  // Visible app ids in id order (the directory lists everything released so
  // far; new releases append).
  JsonArray ids;
  std::uint64_t visible = 0;
  const std::uint64_t first = page_start(page, per_page);
  for (const auto& app : store_.apps()) {
    if (app.released > day) continue;
    if (visible >= first && visible - first < per_page) {
      ids.push_back(Json(static_cast<std::uint64_t>(app.id.value)));
    }
    ++visible;
  }
  return net::HttpResponse::json(200, json_object({{"page", page},
                                                   {"per_page", per_page},
                                                   {"total", visible},
                                                   {"ids", Json(std::move(ids))}})
                                          .dump());
}

std::optional<std::uint32_t> AppstoreService::app_of(std::string_view rest) const {
  // The per-app routes read the derived layout; catch it up to the
  // published frontiers first (fast no-op when nothing ingested).
  refresh_derived();
  std::uint64_t id = 0;
  if (!util::parse_u64(rest, id) || id >= store_.apps().size()) return std::nullopt;
  return static_cast<std::uint32_t>(id);
}

AppResponse AppstoreService::app_at(std::uint32_t id, market::Day day) const {
  const market::App& app = store_.apps()[id];
  AppResponse answer;
  if (app.released > day) {
    answer.refusal = error_response(404, "not_found", "not yet released");
    return answer;
  }
  answer.value = AppDetail{.id = id,
                           .name = app.name,
                           .category = store_.category(app.category).name,
                           .developer = store_.developer(app.developer).name,
                           .paid = app.pricing == market::Pricing::kPaid,
                           .price = market::cents_to_dollars(app.price),
                           .downloads = downloads_up_to(id, day),
                           .version = version_up_to(id, day),
                           .has_ads = app.has_ads,
                           .released = app.released,
                           .document = nullptr};
  return answer;
}

net::HttpResponse AppstoreService::handle_apk(std::uint32_t id, market::Day day) const {
  const market::App& app = store_.apps()[id];
  if (app.released > day) return error_response(404, "not_found", "not yet released");

  const std::uint32_t version = version_up_to(id, day);
  const auto ad_libraries = select_ad_libraries(id, app.has_ads);
  net::HttpResponse response;
  response.status = 200;
  response.reason = "OK";
  response.headers["Content-Type"] = "application/vnd.android.package-archive";
  response.headers["X-Apk-Version"] = std::to_string(version);
  response.body = build_apk(id, version, ad_libraries);
  return response;
}

CommentsPage AppstoreService::comments_at(std::uint32_t id, market::Day day,
                                          std::uint64_t first, std::uint64_t limit) const {
  CommentsPage page;
  page.app = id;
  const events::FrontierSnapshot log = store_.comment_log();
  const std::shared_lock lock(derived_mutex_);
  for (const auto index : derived_.comment_index[id]) {
    // A concurrent refresh may have absorbed rows past this handler's
    // snapshot; stay inside the prefix it pinned.
    if (index >= log.size()) break;
    const events::Event comment = log.row(index);
    if (comment.day > day) continue;
    if (page.total >= first && page.total - first < limit) page.rows.push_back(comment);
    ++page.total;
  }
  return page;
}

net::HttpResponse AppstoreService::handle_comments(std::uint32_t id, market::Day day,
                                                   const net::HttpRequest& request) const {
  const auto query = request.query();
  std::uint64_t page = 0;
  if (const auto it = query.find("page"); it != query.end()) {
    if (!util::parse_u64(it->second, page)) {
      return error_response(400, "bad_request", "bad page");
    }
  }
  const CommentsPage comments =
      comments_at(id, day, page_start(page, kCommentsPerPage), kCommentsPerPage);
  return net::HttpResponse::json(200,
                                 comments_body(id, comments.total, page, comments.rows));
}

}  // namespace appstore::crawlersim
