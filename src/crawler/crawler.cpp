#include "crawler/crawler.hpp"

#include <algorithm>
#include <stdexcept>

#include "crawler/apk.hpp"
#include "crawler/json.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "util/format.hpp"
#include "util/logging.hpp"

namespace appstore::crawlersim {

namespace {
constexpr std::string_view kComponent = "crawler";

/// `value` as a T; throws std::out_of_range, as a missing member does,
/// unless it is an integer inside T's range.
template <class T>
[[nodiscard]] T integer_of(const Json& value, std::string_view what) {
  const std::optional<T> number = value.as_integer<T>();
  if (!number.has_value()) {
    throw std::out_of_range(util::format("crawler: '{}' is not an in-range integer", what));
  }
  return *number;
}

template <class T>
[[nodiscard]] T integer_at(const Json& document, std::string_view key) {
  return integer_of<T>(document.at(key), key);
}
}  // namespace

std::chrono::milliseconds decorrelated_backoff(std::chrono::milliseconds base,
                                               std::chrono::milliseconds cap,
                                               std::chrono::milliseconds previous,
                                               util::Rng& rng) {
  const auto upper = std::min(cap, previous * 3);
  if (upper <= base) return base;
  const auto span = static_cast<std::uint64_t>((upper - base).count());
  return base + std::chrono::milliseconds(
                    static_cast<std::chrono::milliseconds::rep>(rng.below(span + 1)));
}

Crawler::Crawler(CrawlerOptions options, CrawlDatabase& database)
    : options_(std::move(options)),
      database_(database),
      proxies_(options_.proxy_count, options_.proxy_regions) {
  net::CircuitBreaker::Options breaker_options = options_.breaker;
  if (breaker_options.clock == nullptr) breaker_options.clock = options_.clock;
  breakers_.reserve(proxies_.size());
  for (std::size_t i = 0; i < proxies_.size(); ++i) {
    breakers_.push_back(std::make_unique<net::CircuitBreaker>(breaker_options));
  }
  const std::size_t workers = std::max<std::size_t>(1, options_.threads);
  clients_.resize(workers * proxies_.size());
  if (options_.metrics != nullptr) {
    obs::Registry& registry = *options_.metrics;
    registry.describe("crawler_requests_total", "HTTP exchanges completed (incl. retries)");
    registry.describe("crawler_retries_total", "Fetch attempts beyond the first");
    registry.describe("crawler_breaker_open_total",
                      "Per-proxy circuit breaker open transitions");
    registry.describe("crawler_pages_total", "Directory pages enumerated");
    registry.describe("crawler_apps_observed_total", "App statistics pages recorded");
    registry.describe("crawler_apk_bytes_total", "Bytes of APK payload downloaded");
    registry.describe("crawler_responses_total", "Non-200 responses by cause");
    registry.describe("crawler_fetch_seconds", "Wall time of one fetch (incl. retries)");
    metrics_.requests = &registry.counter("crawler_requests_total");
    metrics_.retries = &registry.counter("crawler_retries_total");
    metrics_.breaker_open = &registry.counter("crawler_breaker_open_total");
    metrics_.pages = &registry.counter("crawler_pages_total");
    metrics_.apps = &registry.counter("crawler_apps_observed_total");
    metrics_.apk_bytes = &registry.counter("crawler_apk_bytes_total");
    metrics_.by_status[0] = &registry.counter("crawler_responses_total", "429");
    metrics_.by_status[1] = &registry.counter("crawler_responses_total", "403");
    metrics_.by_status[2] = &registry.counter("crawler_responses_total", "5xx");
    metrics_.by_status[3] = &registry.counter("crawler_responses_total", "404");
    metrics_.fetch_seconds = &registry.histogram("crawler_fetch_seconds");
  }
}

net::PersistentHttpClient& Crawler::client_for(std::size_t worker, std::size_t proxy_index) {
  auto& client = clients_.at(worker * proxies_.size() + proxy_index);
  if (!client) {
    client = std::make_unique<net::PersistentHttpClient>(
        options_.host, options_.port,
        net::ClientOptions{.clock = options_.clock, .faults = options_.faults});
  }
  return *client;
}

std::optional<std::size_t> Crawler::pick_allowed(util::Rng& rng, bool& pool_empty) {
  pool_empty = false;
  for (std::size_t tries = 0; tries < proxies_.size(); ++tries) {
    const auto index = proxies_.pick(rng);
    if (!index.has_value()) {
      pool_empty = true;
      return std::nullopt;
    }
    if (breakers_[*index]->allow()) return index;
  }
  return std::nullopt;  // every pick landed on a cooling-off proxy
}

std::optional<std::string> Crawler::fetch(const std::string& target, CrawlStats& stats,
                                          std::size_t worker) {
  const obs::ScopedTimer timer(metrics_.fetch_seconds);
  // Deterministic per-target randomness: proxy picks and backoff draws come
  // from a generator derived from (crawl seed, target) — never from a
  // stream shared across targets — so a parallel crawl makes the same
  // decisions for this target under any thread schedule.
  util::Rng rng(util::rng::derive_seed(options_.seed, util::hash64(target)));
  const auto base = options_.rate_limit_backoff;
  const auto cap = base * options_.backoff_cap_multiplier;
  auto previous = base;
  std::chrono::milliseconds slept{0};

  const auto backoff = [&]() -> bool {
    const auto delay = decorrelated_backoff(base, cap, previous, rng);
    previous = delay;
    if (slept + delay > options_.retry_budget) {
      util::log_debug(kComponent, "retry budget exhausted for {}", target);
      return false;
    }
    slept += delay;
    chaos::sleep_or_real(options_.clock, delay);
    return true;
  };

  for (std::uint32_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0 && metrics_.retries != nullptr) metrics_.retries->inc();
    bool pool_empty = false;
    const auto proxy_index = pick_allowed(rng, pool_empty);
    if (!proxy_index.has_value()) {
      if (pool_empty) {
        util::log_warn(kComponent, "no healthy proxies left");
        return std::nullopt;
      }
      // Every healthy proxy is cooling off; wait out part of the breaker
      // timeout and try again (consumes an attempt).
      if (!backoff()) return std::nullopt;
      continue;
    }
    const net::Proxy& proxy = proxies_.proxy(*proxy_index);
    net::CircuitBreaker& breaker = *breakers_[*proxy_index];
    try {
      net::Headers headers;
      headers["X-Client-Id"] = proxy.id;
      const net::HttpResponse response =
          client_for(worker, *proxy_index).get(target, std::move(headers));
      ++stats.requests;
      if (metrics_.requests != nullptr) metrics_.requests->inc();

      if (response.status == 200) {
        breaker.record_success();
        proxies_.report_success(*proxy_index);
        return response.body;
      }
      if (response.status == 404) {
        if (metrics_.by_status[3] != nullptr) metrics_.by_status[3]->inc();
        breaker.record_success();
        proxies_.report_success(*proxy_index);
        return std::nullopt;  // not an infrastructure problem
      }
      if (response.status == 429) {
        ++stats.rate_limited;
        if (metrics_.by_status[0] != nullptr) metrics_.by_status[0]->inc();
        // The proxy identity is saturated: the service answered, so the
        // proxy is fine (no breaker/quarantine) — wait for its token
        // bucket to refill, then retry (usually through a different proxy).
        breaker.record_success();
        if (!backoff()) return std::nullopt;
        continue;
      }
      if (response.status == 403) {
        ++stats.region_blocked;
        if (metrics_.by_status[1] != nullptr) metrics_.by_status[1]->inc();
        // Wrong region for this store: a deterministic rejection that will
        // repeat forever — quarantine so the pool converges on usable
        // (e.g. Chinese) proxies, as the paper's setup did.
        breaker.record_success();
        proxies_.report_failure(*proxy_index, 1);
        continue;
      }
      // 5xx: transient infrastructure trouble — the breaker's domain.
      ++stats.transient_failures;
      if (metrics_.by_status[2] != nullptr) metrics_.by_status[2]->inc();
      if (breaker.record_failure()) {
        if (metrics_.breaker_open != nullptr) metrics_.breaker_open->inc();
        util::log_debug(kComponent, "breaker opened for {}", proxy.id);
      }
    } catch (const std::exception& error) {
      ++stats.requests;
      ++stats.transient_failures;
      if (metrics_.requests != nullptr) metrics_.requests->inc();
      if (metrics_.by_status[2] != nullptr) metrics_.by_status[2]->inc();
      if (breaker.record_failure()) {
        if (metrics_.breaker_open != nullptr) metrics_.breaker_open->inc();
        util::log_debug(kComponent, "breaker opened for {}", proxy.id);
      }
      util::log_debug(kComponent, "transport error via {}: {}", proxy.id, error.what());
    }
  }
  return std::nullopt;
}

void Crawler::crawl_app(std::uint32_t id, market::Day day, CrawlStats& stats,
                        std::size_t worker) {
  const auto body = fetch(util::format("/api/v1/app/{}", id), stats, worker);
  if (!body.has_value()) return;
  const auto parsed = parse_json(*body);
  if (!parsed.has_value()) return;

  AppRecord metadata;
  metadata.id = id;
  metadata.name = parsed->at("name").as_string();
  metadata.category = parsed->at("category").as_string();
  metadata.developer = parsed->at("developer").as_string();
  metadata.paid = parsed->at("paid").as_bool();
  metadata.has_ads = parsed->at("has_ads").as_bool();

  AppObservation observation;
  observation.downloads = integer_at<std::uint64_t>(*parsed, "downloads");
  observation.version = integer_at<std::uint32_t>(*parsed, "version");
  observation.price_dollars = parsed->at("price").as_number();

  {
    const std::lock_guard lock(database_mutex_);
    database_.record(metadata, day, observation);
  }
  ++stats.apps_observed;
  if (metrics_.apps != nullptr) metrics_.apps->inc();

  // APKs: fetched at most once per (app, version) across all crawl days —
  // the paper's "we download each app version only once". Each app id is
  // owned by exactly one shard, so check-then-record cannot race.
  if (options_.fetch_apks) {
    bool scanned = false;
    {
      const std::lock_guard lock(database_mutex_);
      scanned = database_.apk_scanned(id, observation.version);
    }
    if (!scanned) {
      const auto apk = fetch(util::format("/api/v1/app/{}/apk", id), stats, worker);
      if (apk.has_value()) {
        if (metrics_.apk_bytes != nullptr) metrics_.apk_bytes->inc(apk->size());
        const auto scan = scan_apk(*apk);
        if (scan.has_value()) {
          const std::lock_guard lock(database_mutex_);
          database_.record_apk_scan(id, scan->header.version, scan->has_ads());
          ++stats.apks_fetched;
        }
      }
    }
  }

  if (options_.fetch_comments) {
    std::uint64_t comment_page = 0;
    for (;;) {
      const auto comments_body = fetch(
          util::format("/api/v1/app/{}/comments?page={}", id, comment_page), stats, worker);
      if (!comments_body.has_value()) break;
      const auto comments = parse_json(*comments_body);
      if (!comments.has_value()) break;
      const auto& array = comments->at("comments").as_array();
      stats.comments_observed += array.size();
      const auto total = integer_at<std::uint64_t>(*comments, "total");
      ++comment_page;
      if (comment_page * 200 >= total || array.empty()) break;
    }
  }
}

CrawlStats Crawler::crawl_day(market::Day day) {
  const obs::TraceSpan day_span(options_.metrics, "crawl_day");
  CrawlStats stats;

  // 1. Enumerate the directory (serial; pages form one dependent chain).
  std::vector<std::uint32_t> ids;
  {
    const obs::TraceSpan directory_span(options_.metrics, "directory");
    std::uint64_t page = 0;
    for (;;) {
      const auto body = fetch(
          util::format("/api/v1/apps?page={}&per_page={}", page, options_.per_page), stats,
          /*worker=*/0);
      if (!body.has_value()) {
        if (page == 0) throw std::runtime_error("crawl_day: cannot enumerate directory");
        break;
      }
      if (metrics_.pages != nullptr) metrics_.pages->inc();
      const auto parsed = parse_json(*body);
      if (!parsed.has_value()) throw std::runtime_error("crawl_day: bad directory JSON");
      const auto& id_array = parsed->at("ids").as_array();
      for (const auto& id : id_array) {
        ids.push_back(integer_of<std::uint32_t>(id, "ids"));
      }
      const auto total = integer_at<std::uint64_t>(*parsed, "total");
      ++page;
      if (page * options_.per_page >= total || id_array.empty()) break;
    }
  }

  // 2. Fetch per-app statistics, sharded across workers. grain = ceil(n /
  // threads) yields at most `threads` shards, so the shard index doubles as
  // the worker index into the per-worker client sets. Stats are accumulated
  // per shard and summed in shard order — bit-identical for any thread
  // count (the shard boundaries depend only on ids.size() and threads).
  const obs::TraceSpan apps_span(options_.metrics, "apps");
  const std::size_t workers = std::max<std::size_t>(1, options_.threads);
  if (!ids.empty()) {
    std::vector<CrawlStats> shard_stats(workers);
    par::Options par_options;
    par_options.threads = workers;
    par_options.grain = (ids.size() + workers - 1) / workers;
    par::for_shards(ids.size(), par_options,
                    [&](std::size_t begin, std::size_t end, std::size_t shard) {
                      for (std::size_t i = begin; i < end; ++i) {
                        crawl_app(ids[i], day, shard_stats.at(shard), shard);
                      }
                    });
    for (const CrawlStats& shard : shard_stats) {
      stats.requests += shard.requests;
      stats.rate_limited += shard.rate_limited;
      stats.region_blocked += shard.region_blocked;
      stats.transient_failures += shard.transient_failures;
      stats.apps_observed += shard.apps_observed;
      stats.comments_observed += shard.comments_observed;
      stats.apks_fetched += shard.apks_fetched;
    }
  }

  totals_.requests += stats.requests;
  totals_.rate_limited += stats.rate_limited;
  totals_.region_blocked += stats.region_blocked;
  totals_.transient_failures += stats.transient_failures;
  totals_.apps_observed += stats.apps_observed;
  totals_.comments_observed += stats.comments_observed;
  totals_.apks_fetched += stats.apks_fetched;
  return stats;
}

}  // namespace appstore::crawlersim
