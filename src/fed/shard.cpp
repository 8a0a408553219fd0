#include "fed/shard.hpp"

#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

#include "crawler/json.hpp"
#include "crawler/query_json.hpp"
#include "util/format.hpp"

namespace appstore::fed {

namespace {

using crawlersim::Json;
using crawlersim::JsonObject;

/// A typed answer refused with `refusal`.
template <class Answer>
[[nodiscard]] Answer refused(net::HttpResponse refusal) {
  Answer answer;
  answer.refusal = std::move(refusal);
  return answer;
}

template <class Answer>
[[nodiscard]] Answer bad_body(std::string_view message) {
  return refused<Answer>(crawlersim::error_response(502, "bad_upstream_body", message));
}

/// Reads member `key` of a decoded shard body into `out`: false when it is
/// absent or holds the wrong kind, or (integers) a fractional or
/// out-of-range number.
template <class T>
[[nodiscard]] bool read(const Json& document, std::string_view key, T& out) {
  const Json* value = document.find(key);
  if constexpr (std::is_same_v<T, std::string_view>) {
    if (value == nullptr || !value->is_string()) return false;
    out = value->as_string();
  } else if constexpr (std::is_same_v<T, bool>) {
    if (value == nullptr || !value->is_bool()) return false;
    out = value->as_bool();
  } else if constexpr (std::is_integral_v<T>) {
    const std::optional<T> number =
        value == nullptr ? std::nullopt : value->as_integer<T>();
    if (!number.has_value()) return false;
    out = *number;
  } else {
    if (value == nullptr || !value->is_number()) return false;
    out = value->as_number();
  }
  return true;
}

/// The query request plus the partial flag, so the shard answers the
/// mergeable fragment as JSON instead of a finalized result.
[[nodiscard]] net::HttpRequest with_partial_flag(const net::HttpRequest& request) {
  net::HttpRequest out = request;
  if (request.method == "POST") {
    const auto document = crawlersim::parse_json(request.body);
    if (document && document->is_object()) {
      JsonObject body = document->as_object();
      body.emplace_back("partial", Json(true));
      out.body = Json(std::move(body)).dump();
    }
    // Malformed bodies are forwarded untouched; the shard answers 400.
  } else {
    out.target += out.target.find('?') == std::string::npos ? "?partial=1" : "&partial=1";
  }
  return out;
}

}  // namespace

crawlersim::PartialResponse HttpShard::partial(const net::HttpRequest& request, market::Day) {
  using Answer = crawlersim::PartialResponse;
  net::HttpResponse response = call_(with_partial_flag(request));
  if (response.status != 200) return refused<Answer>(std::move(response));
  const auto document = crawlersim::parse_json(response.body);
  if (!document || !document->is_object()) return bad_body<Answer>("unparseable shard partial");
  try {
    return {std::make_shared<const query::PartialAggregate>(
                crawlersim::partial_from_json(*document)),
            {}};
  } catch (const query::QueryError& error) {
    return bad_body<Answer>(error.what());
  }
}

crawlersim::AppResponse HttpShard::app(const net::HttpRequest& request, market::Day) {
  using Answer = crawlersim::AppResponse;
  net::HttpResponse response = call_(request);
  if (response.status != 200) return refused<Answer>(std::move(response));
  auto parsed = crawlersim::parse_json(response.body);
  if (!parsed) return bad_body<Answer>("unparseable shard app");
  // The detail's strings view the decoded document, which it then owns.
  Answer answer;
  crawlersim::AppDetail& app = answer.value;
  app.document = std::make_shared<const Json>(std::move(*parsed));
  const Json& document = *app.document;
  if (!(read(document, "id", app.id) && read(document, "name", app.name) &&
        read(document, "category", app.category) && read(document, "developer", app.developer) &&
        read(document, "paid", app.paid) && read(document, "price", app.price) &&
        read(document, "downloads", app.downloads) && read(document, "version", app.version) &&
        read(document, "has_ads", app.has_ads) && read(document, "released", app.released))) {
    return bad_body<Answer>("shard app lacks a field");
  }
  return answer;
}

crawlersim::CommentsResponse HttpShard::comments(const net::HttpRequest& request, market::Day,
                                                 std::size_t max_rows) {
  using Answer = crawlersim::CommentsResponse;
  Answer answer;
  crawlersim::CommentsPage& page = answer.value;
  net::HttpRequest page_request = request;
  const std::string path = request.path();
  // The first page's total bounds the walk: past max_rows the caller
  // refuses the scan, so no further page is fetched.
  for (std::uint64_t number = 0;; ++number) {
    page_request.target = util::format("{}?page={}", path, number);
    net::HttpResponse response = call_(page_request);
    if (response.status != 200) return refused<Answer>(std::move(response));
    const auto document = crawlersim::parse_json(response.body);
    const Json* rows = document ? document->find("comments") : nullptr;
    std::uint64_t total = 0;
    if (rows == nullptr || !rows->is_array() || !read(*document, "app", page.app) ||
        !read(*document, "total", total)) {
      return bad_body<Answer>("unparseable shard comments");
    }
    if (number == 0) page.total = total;
    if (page.total > max_rows) return answer;
    for (const Json& row : rows->as_array()) {
      events::Event comment;
      comment.app = page.app;
      if (!(read(row, "user", comment.user) && read(row, "day", comment.day) &&
            read(row, "ordinal", comment.ordinal) && read(row, "rating", comment.rating))) {
        return bad_body<Answer>("unparseable shard comment");
      }
      page.rows.push_back(comment);
    }
    if ((number + 1) * crawlersim::kCommentsPerPage >= page.total) break;
  }
  return answer;
}

}  // namespace appstore::fed
