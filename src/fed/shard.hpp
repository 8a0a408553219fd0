// One federation member as the gateway sees it (docs/federation.md §3).
//
// The gateway talks to every shard through Shard: respond() for the routes
// it forwards whole, and three typed calls for the routes it merges. Each
// typed call takes the request, so the shard's policy gates and service_*
// metrics run exactly as for respond(), and the day the gateway read for
// this request, so every shard of one scatter answers at one day.
//
//   ServiceShard  an in-process AppstoreService (Federation::attach): the
//                 typed calls are the service's own, so no JSON is written
//                 or parsed between gateway and shard.
//   HttpShard     a shard behind an HTTP exchange (a socket client, a test
//                 lambda, a traced wrapper): the only gateway code that
//                 parses JSON. It answers at its upstream's own day, and is
//                 trusted to serve the same replicated entity state.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>

#include "crawler/service.hpp"
#include "market/types.hpp"
#include "net/http.hpp"

namespace appstore::fed {

/// A call that throws is a transport error; a refusal is an answer.
class Shard {
 public:
  Shard() = default;
  virtual ~Shard() = default;
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;
  Shard(Shard&&) = delete;
  Shard& operator=(Shard&&) = delete;

  /// The day this shard has published when its typed calls answer at the
  /// day they are passed; nullopt when they answer at the shard's own day.
  [[nodiscard]] virtual std::optional<market::Day> day() const = 0;

  /// A forwarded route (meta, apk, apps, a user-pinned query), answered
  /// whole.
  [[nodiscard]] virtual net::HttpResponse respond(const net::HttpRequest& request) = 0;

  /// The shard's mergeable fragment of a /api/v1/query request at `day`.
  [[nodiscard]] virtual crawlersim::PartialResponse partial(const net::HttpRequest& request,
                                                            market::Day day) = 0;

  /// /api/v1/app/<id> at `day`, with this shard's downloads.
  [[nodiscard]] virtual crawlersim::AppResponse app(const net::HttpRequest& request,
                                                    market::Day day) = 0;

  /// The comments of /api/v1/app/<id>/comments visible at `day`: the
  /// shard's total and at most its first `max_rows` rows, in append order.
  [[nodiscard]] virtual crawlersim::CommentsResponse comments(const net::HttpRequest& request,
                                                              market::Day day,
                                                              std::size_t max_rows) = 0;
};

/// An in-process shard. The service must outlive it.
class ServiceShard final : public Shard {
 public:
  explicit ServiceShard(crawlersim::AppstoreService& service) : service_(service) {}

  [[nodiscard]] std::optional<market::Day> day() const override { return service_.day(); }
  [[nodiscard]] net::HttpResponse respond(const net::HttpRequest& request) override {
    return service_.respond(request);
  }
  [[nodiscard]] crawlersim::PartialResponse partial(const net::HttpRequest& request,
                                                    market::Day day) override {
    return service_.respond_partial(request, day);
  }
  [[nodiscard]] crawlersim::AppResponse app(const net::HttpRequest& request,
                                            market::Day day) override {
    return service_.respond_app(request, day);
  }
  [[nodiscard]] crawlersim::CommentsResponse comments(const net::HttpRequest& request,
                                                      market::Day day,
                                                      std::size_t max_rows) override {
    return service_.respond_comments(request, day, max_rows);
  }

 private:
  crawlersim::AppstoreService& service_;
};

/// A shard behind an HTTP exchange. Typed calls ask the upstream for the
/// JSON form (the partial fragment via ?partial=1 or "partial": true,
/// comments page by page) and decode it; a body that does not decode is
/// refused 502 bad_upstream_body. The `day` arguments are ignored.
class HttpShard final : public Shard {
 public:
  /// One exchange with the upstream (typically AppstoreService::respond, or
  /// a socket client). Throwing means a transport error.
  using Call = std::function<net::HttpResponse(const net::HttpRequest&)>;

  explicit HttpShard(Call call) : call_(std::move(call)) {}

  [[nodiscard]] std::optional<market::Day> day() const override { return std::nullopt; }
  [[nodiscard]] net::HttpResponse respond(const net::HttpRequest& request) override {
    return call_(request);
  }
  [[nodiscard]] crawlersim::PartialResponse partial(const net::HttpRequest& request,
                                                    market::Day day) override;
  [[nodiscard]] crawlersim::AppResponse app(const net::HttpRequest& request,
                                            market::Day day) override;
  [[nodiscard]] crawlersim::CommentsResponse comments(const net::HttpRequest& request,
                                                      market::Day day,
                                                      std::size_t max_rows) override;

 private:
  Call call_;
};

}  // namespace appstore::fed
