#include "crawler/query_json.hpp"

#include <limits>
#include <utility>

#include "util/format.hpp"
#include "util/strings.hpp"

namespace appstore::crawlersim {

namespace {

using query::QueryError;

constexpr std::size_t kMaxJsonFilterDepth = 32;
constexpr std::size_t kMaxListItems = 64;

[[nodiscard]] std::size_t parse_count(const std::string& text, std::string_view name) {
  std::uint64_t value = 0;
  if (!util::parse_u64(text, value)) {
    throw QueryError("bad_query", util::format("query: bad {} '{}'", name, text));
  }
  return static_cast<std::size_t>(value);
}

[[nodiscard]] std::vector<double> parse_fraction_list(const std::string& text) {
  std::vector<double> fractions;
  for (const auto piece : util::split(text, ',')) {
    double value = 0.0;
    if (!util::parse_double(util::trim(piece), value)) {
      throw QueryError("bad_query", util::format("query: bad fraction '{}'", piece));
    }
    fractions.push_back(value);
    if (fractions.size() > kMaxListItems) {
      throw QueryError("bad_query", "query: too many fractions");
    }
  }
  return fractions;
}

[[nodiscard]] std::vector<std::size_t> parse_depth_list(const std::string& text) {
  std::vector<std::size_t> depths;
  for (const auto piece : util::split(text, ',')) {
    depths.push_back(parse_count(std::string(util::trim(piece)), "depth"));
    if (depths.size() > kMaxListItems) {
      throw QueryError("bad_query", "query: too many depths");
    }
  }
  return depths;
}

[[nodiscard]] query::Expr expr_from_json_node(const Json& node, std::size_t depth) {
  if (depth >= kMaxJsonFilterDepth) {
    throw QueryError("bad_filter", "filter: expression too deeply nested");
  }
  if (!node.is_object()) {
    throw QueryError("bad_filter", "filter: expected an object node");
  }
  for (const auto connective : {std::string_view("and"), std::string_view("or")}) {
    const Json* children = node.find(connective);
    if (children == nullptr) continue;
    if (!children->is_array() || children->as_array().empty()) {
      throw QueryError("bad_filter", util::format("filter: '{}' needs a non-empty array",
                                                  connective));
    }
    query::Expr expr;
    expr.kind = connective == "and" ? query::Expr::Kind::kAnd : query::Expr::Kind::kOr;
    for (const Json& child : children->as_array()) {
      expr.children.push_back(expr_from_json_node(child, depth + 1));
    }
    if (expr.children.size() == 1) return std::move(expr.children.front());
    return expr;
  }

  const Json* field = node.find("field");
  const Json* op = node.find("op");
  const Json* value = node.find("value");
  if (field == nullptr || !field->is_string() || op == nullptr || !op->is_string() ||
      value == nullptr) {
    throw QueryError("bad_filter", "filter: leaf needs string 'field', 'op' and 'value'");
  }
  double number = 0.0;
  std::string text;
  bool is_text = false;
  if (value->is_number()) {
    number = value->as_number();
  } else if (value->is_string()) {
    text = value->as_string();
    is_text = true;
  } else {
    throw QueryError("bad_filter", "filter: 'value' must be a number or string");
  }
  return query::Expr::leaf(query::make_comparison(query::parse_field(field->as_string()),
                                                  query::parse_op(op->as_string()), number,
                                                  std::move(text), is_text));
}

[[nodiscard]] query::QuerySpec spec_from_params(
    const std::map<std::string, std::string>& params) {
  const auto kind = params.find("kind");
  if (kind == params.end()) {
    throw QueryError("bad_query", "query: 'kind' is required");
  }
  query::QuerySpec spec;
  spec.kind = query::parse_aggregate_kind(kind->second);
  if (const auto it = params.find("filter"); it != params.end()) {
    spec.filter = query::parse_filter(it->second);
  }
  if (const auto it = params.find("k"); it != params.end()) {
    spec.k = parse_count(it->second, "k");
  }
  if (const auto it = params.find("fractions"); it != params.end()) {
    spec.fractions = parse_fraction_list(it->second);
  }
  if (const auto it = params.find("depths"); it != params.end()) {
    spec.depths = parse_depth_list(it->second);
  }
  if (const auto it = params.find("min_samples"); it != params.end()) {
    spec.min_samples = parse_count(it->second, "min_samples");
  }
  if (const auto it = params.find("points"); it != params.end()) {
    spec.points = parse_count(it->second, "points");
  }
  return spec;
}

[[nodiscard]] std::size_t json_count(const Json& value, std::string_view name) {
  const std::optional<std::size_t> count = value.as_integer<std::size_t>();
  if (!count.has_value()) {
    throw QueryError("bad_query", util::format("query: '{}' must be a non-negative integer",
                                               name));
  }
  return *count;
}

/// Appends the plan statistics member of a result or partial document.
template <class Statistics>
void add_plan(JsonObject& document, const Statistics& plan) {
  document.emplace_back(
      "plan", json_object({{"index_scans", static_cast<std::uint64_t>(plan.index_scans)},
                           {"column_scans", static_cast<std::uint64_t>(plan.column_scans)},
                           {"residual_filters", static_cast<std::uint64_t>(plan.residual_filters)},
                           {"table_lookups", static_cast<std::uint64_t>(plan.table_lookups)}}));
}

[[nodiscard]] query::QuerySpec spec_from_body(const std::string& body) {
  const std::optional<Json> parsed = parse_json(body);
  if (!parsed.has_value() || !parsed->is_object()) {
    throw QueryError("bad_query", "query: body is not a JSON object");
  }
  const Json& root = *parsed;
  const Json* kind = root.find("kind");
  if (kind == nullptr || !kind->is_string()) {
    throw QueryError("bad_query", "query: 'kind' is required");
  }
  query::QuerySpec spec;
  spec.kind = query::parse_aggregate_kind(kind->as_string());
  if (const Json* filter = root.find("filter"); filter != nullptr && !filter->is_null()) {
    if (filter->is_string()) {
      spec.filter = query::parse_filter(filter->as_string());
    } else {
      spec.filter = expr_from_json_node(*filter, 0);
    }
  }
  if (const Json* k = root.find("k"); k != nullptr) spec.k = json_count(*k, "k");
  if (const Json* fractions = root.find("fractions"); fractions != nullptr) {
    if (!fractions->is_array() || fractions->as_array().size() > kMaxListItems) {
      throw QueryError("bad_query", "query: 'fractions' must be a short array");
    }
    spec.fractions.clear();
    for (const Json& value : fractions->as_array()) {
      if (!value.is_number()) {
        throw QueryError("bad_query", "query: fractions must be numbers");
      }
      spec.fractions.push_back(value.as_number());
    }
  }
  if (const Json* depths = root.find("depths"); depths != nullptr) {
    if (!depths->is_array() || depths->as_array().size() > kMaxListItems) {
      throw QueryError("bad_query", "query: 'depths' must be a short array");
    }
    spec.depths.clear();
    for (const Json& value : depths->as_array()) {
      spec.depths.push_back(json_count(value, "depths"));
    }
  }
  if (const Json* min_samples = root.find("min_samples"); min_samples != nullptr) {
    spec.min_samples = json_count(*min_samples, "min_samples");
  }
  if (const Json* points = root.find("points"); points != nullptr) {
    spec.points = json_count(*points, "points");
  }
  return spec;
}

}  // namespace

query::Expr expr_from_json(const Json& node) { return expr_from_json_node(node, 0); }

bool wants_partial(const net::HttpRequest& request) {
  if (request.method == "POST") {
    const std::optional<Json> parsed = parse_json(request.body);
    if (!parsed.has_value() || !parsed->is_object()) return false;
    const Json* flag = parsed->find("partial");
    return flag != nullptr && flag->is_bool() && flag->as_bool();
  }
  const auto params = request.query();
  const auto it = params.find("partial");
  return it != params.end() && (it->second == "1" || it->second == "true");
}

query::QuerySpec parse_query_request(const net::HttpRequest& request) {
  if (request.method == "POST") return spec_from_body(request.body);
  return spec_from_params(request.query());
}

Json query_partial_json(const query::PartialAggregate& partial) {
  JsonObject document;
  document.emplace_back("kind", Json(query::to_string(partial.kind)));
  document.emplace_back("day", Json(static_cast<std::int64_t>(partial.day)));
  document.emplace_back("partial", Json(true));
  add_plan(document, partial);
  document.emplace_back("rows_total", Json(partial.rows_total));
  document.emplace_back("rows_selected", Json(partial.rows_selected));

  if (partial.kind == query::AggregateKind::kCategoryAffinity) {
    JsonArray random_walk(partial.random_walk.size());
    for (std::size_t i = 0; i < partial.random_walk.size(); ++i) {
      random_walk[i] = Json(partial.random_walk[i]);
    }
    document.emplace_back("random_walk", Json(std::move(random_walk)));
    JsonArray samples(partial.samples.size());
    for (std::size_t s = 0; s < partial.samples.size(); ++s) {
      const query::AffinityUserSample& sample = partial.samples[s];
      JsonArray row(2 + sample.values.size());
      row[0] = Json(static_cast<std::uint64_t>(sample.user));
      row[1] = Json(sample.comments);
      for (std::size_t i = 0; i < sample.values.size(); ++i) row[2 + i] = Json(sample.values[i]);
      samples[s] = Json(std::move(row));
    }
    document.emplace_back("samples", Json(std::move(samples)));
  } else {
    document.emplace_back("app_count", Json(partial.app_count));
    JsonArray counts(partial.counts.size());
    for (std::size_t i = 0; i < partial.counts.size(); ++i) {
      JsonArray pair(2);
      pair[0] = Json(static_cast<std::uint64_t>(partial.counts[i].first));
      pair[1] = Json(static_cast<std::uint64_t>(partial.counts[i].second));
      counts[i] = Json(std::move(pair));
    }
    document.emplace_back("counts", Json(std::move(counts)));
  }
  return Json(std::move(document));
}

query::PartialAggregate partial_from_json(const Json& document) {
  const auto fail = [](std::string_view what) -> query::PartialAggregate {
    throw QueryError("bad_partial", util::format("partial: {}", what));
  };
  if (!document.is_object()) return fail("not a JSON object");
  const Json* kind = document.find("kind");
  const Json* flag = document.find("partial");
  if (kind == nullptr || !kind->is_string()) return fail("missing 'kind'");
  if (flag == nullptr || !flag->is_bool() || !flag->as_bool()) {
    return fail("missing 'partial: true' marker");
  }
  // An integer member reads 0 when absent; anything but an integer in the
  // member's range fails the partial.
  const auto integer = [&]<class T>(const Json& object, std::string_view name, T& out) {
    const Json* value = object.find(name);
    if (value == nullptr) return;
    const std::optional<T> number = value->as_integer<T>();
    if (!number.has_value()) {
      fail(util::format("'{}' must be an in-range integer", name));
    }
    out = *number;
  };
  query::PartialAggregate partial;
  partial.kind = query::parse_aggregate_kind(kind->as_string());
  integer(document, "day", partial.day);
  if (const Json* plan = document.find("plan"); plan != nullptr && plan->is_object()) {
    integer(*plan, "index_scans", partial.index_scans);
    integer(*plan, "column_scans", partial.column_scans);
    integer(*plan, "residual_filters", partial.residual_filters);
    integer(*plan, "table_lookups", partial.table_lookups);
  }
  integer(document, "rows_total", partial.rows_total);
  integer(document, "rows_selected", partial.rows_selected);

  if (partial.kind == query::AggregateKind::kCategoryAffinity) {
    if (const Json* walk = document.find("random_walk"); walk != nullptr) {
      if (!walk->is_array()) return fail("'random_walk' must be an array");
      for (const Json& value : walk->as_array()) {
        if (!value.is_number()) return fail("random_walk entries must be numbers");
        partial.random_walk.push_back(value.as_number());
      }
    }
    const Json* samples = document.find("samples");
    if (samples == nullptr || !samples->is_array()) return fail("missing 'samples' array");
    for (const Json& row : samples->as_array()) {
      if (!row.is_array() || row.as_array().size() < 2) {
        return fail("sample rows need [user, comments, values...]");
      }
      const JsonArray& fields = row.as_array();
      const std::optional<std::uint32_t> user = fields[0].as_integer<std::uint32_t>();
      const std::optional<std::uint64_t> comments = fields[1].as_integer<std::uint64_t>();
      if (!user.has_value() || !comments.has_value()) {
        return fail("sample user/comments must be 32- and 64-bit integers");
      }
      query::AffinityUserSample sample;
      sample.user = *user;
      sample.comments = *comments;
      for (std::size_t i = 2; i < fields.size(); ++i) {
        if (fields[i].is_null()) {
          sample.values.push_back(std::numeric_limits<double>::quiet_NaN());
        } else if (fields[i].is_number()) {
          sample.values.push_back(fields[i].as_number());
        } else {
          return fail("sample values must be numbers or null");
        }
      }
      partial.samples.push_back(std::move(sample));
    }
  } else {
    integer(document, "app_count", partial.app_count);
    const Json* counts = document.find("counts");
    if (counts == nullptr || !counts->is_array()) return fail("missing 'counts' array");
    // Both members of a pair are 32-bit: app ids, and per-app counts bounded
    // by a shard's 32-bit row ids.
    partial.counts.reserve(counts->as_array().size());
    for (const Json& pair : counts->as_array()) {
      const bool is_pair = pair.is_array() && pair.as_array().size() == 2;
      const std::optional<std::uint32_t> app =
          is_pair ? pair.as_array()[0].as_integer<std::uint32_t>() : std::nullopt;
      const std::optional<std::uint32_t> count =
          is_pair ? pair.as_array()[1].as_integer<std::uint32_t>() : std::nullopt;
      if (!app.has_value() || !count.has_value()) {
        return fail("count entries must be [app, count] pairs of 32-bit integers");
      }
      partial.counts.emplace_back(*app, *count);
    }
  }
  return partial;
}

Json query_result_json(const query::QueryResult& result, market::Day day) {
  JsonObject document;
  document.emplace_back("kind", Json(query::to_string(result.kind)));
  document.emplace_back("day", Json(static_cast<std::int64_t>(day)));
  add_plan(document, result);
  document.emplace_back("rows_total", Json(result.rows_total));
  document.emplace_back("rows_selected", Json(result.rows_selected));

  switch (result.kind) {
    case query::AggregateKind::kTopKDownloads: {
      document.emplace_back("total_downloads", Json(result.total_downloads));
      JsonArray top;
      for (const query::TopKEntry& entry : result.top) {
        top.push_back(json_object({{"app", static_cast<std::uint64_t>(entry.app)},
                                   {"downloads", entry.downloads}}));
      }
      document.emplace_back("top", Json(std::move(top)));
      break;
    }
    case query::AggregateKind::kParetoShare: {
      document.emplace_back("total_downloads", Json(result.total_downloads));
      JsonArray pareto;
      for (const query::ParetoPoint& point : result.pareto) {
        pareto.push_back(json_object({{"fraction", point.fraction}, {"share", point.share}}));
      }
      document.emplace_back("pareto", Json(std::move(pareto)));
      break;
    }
    case query::AggregateKind::kCategoryAffinity: {
      JsonArray affinity;
      for (const query::AffinityDepthPoint& point : result.affinity) {
        affinity.push_back(
            json_object({{"depth", static_cast<std::uint64_t>(point.depth)},
                         {"mean", point.mean},
                         {"random_walk", point.random_walk},
                         {"groups", static_cast<std::uint64_t>(point.groups)},
                         {"samples", static_cast<std::uint64_t>(point.samples)}}));
      }
      document.emplace_back("affinity", Json(std::move(affinity)));
      break;
    }
    case query::AggregateKind::kRankDownloadCurve: {
      document.emplace_back("total_downloads", Json(result.total_downloads));
      JsonArray curve;
      for (const query::CurvePoint& point : result.curve) {
        curve.push_back(json_object({{"rank", point.rank}, {"downloads", point.downloads}}));
      }
      document.emplace_back("curve", Json(std::move(curve)));
      break;
    }
  }
  return Json(std::move(document));
}

}  // namespace appstore::crawlersim
