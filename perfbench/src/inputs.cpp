#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::string_view kKindNames[] = {"top_k_downloads", "pareto_share",
                                           "category_affinity", "rank_download_curve"};
constexpr std::uint32_t kPerPage = 100;

[[nodiscard]] std::string price_text(std::uint16_t cents) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%u.%02u", cents / 100u, cents % 100u);
  return buffer;
}

/// The filter in the GET grammar ('+' reads as whitespace).
[[nodiscard]] std::string filter_text(const Op& op) {
  const std::string user = "user==" + std::to_string(op.id);
  const std::string day = "day<=" + std::to_string(op.day);
  const std::string category = "category==" + std::to_string(op.category);
  const std::string price = "price>" + price_text(op.price);
  switch (op.shape) {
    case Shape::kNone: return {};
    case Shape::kUser: return user;
    case Shape::kUserDay: return user + "+and+" + day;
    case Shape::kDay: return day;
    case Shape::kCategory: return category;
    case Shape::kPrice: return price;
    case Shape::kDayCategory: return day + "+and+" + category;
    case Shape::kCategoryPrice: return category + "+and+" + price;
  }
  return {};
}

[[nodiscard]] std::string leaf(std::string_view field, std::string_view op,
                               const std::string& value) {
  return "{\"field\":\"" + std::string(field) + "\",\"op\":\"" + std::string(op) +
         "\",\"value\":" + value + "}";
}

/// The filter as the structured JSON tree of the POST form.
[[nodiscard]] std::string filter_json(const Op& op) {
  const std::string user = leaf("user", "==", std::to_string(op.id));
  const std::string day = leaf("day", "<=", std::to_string(op.day));
  const std::string category = leaf("category", "==", std::to_string(op.category));
  const std::string price = leaf("price", ">", price_text(op.price));
  const auto both = [](const std::string& a, const std::string& b) {
    return "{\"and\":[" + a + "," + b + "]}";
  };
  switch (op.shape) {
    case Shape::kNone: return {};
    case Shape::kUser: return user;
    case Shape::kUserDay: return both(user, day);
    case Shape::kDay: return day;
    case Shape::kCategory: return category;
    case Shape::kPrice: return price;
    case Shape::kDayCategory: return both(day, category);
    case Shape::kCategoryPrice: return both(category, price);
  }
  return {};
}

[[nodiscard]] std::string depth_list(std::uint16_t count, char separator) {
  std::string out;
  for (std::uint16_t d = 1; d <= count; ++d) {
    if (d > 1) out += separator;
    out += std::to_string(d);
  }
  return out;
}

[[nodiscard]] std::string query_target(const Op& op) {
  std::string target = "/api/v1/query?kind=" + std::string(kKindNames[op.kind]);
  switch (op.kind) {
    case 0: target += "&k=" + std::to_string(op.param); break;
    case 2: target += "&depths=" + depth_list(op.param, ','); break;
    case 3: target += "&points=" + std::to_string(op.param); break;
    default: break;
  }
  const std::string filter = filter_text(op);
  if (!filter.empty()) target += "&filter=" + filter;
  return target;
}

[[nodiscard]] std::string query_body(const Op& op) {
  std::string body = "{\"kind\":\"" + std::string(kKindNames[op.kind]) + "\"";
  switch (op.kind) {
    case 0: body += ",\"k\":" + std::to_string(op.param); break;
    case 2: body += ",\"depths\":[" + depth_list(op.param, ',') + "]"; break;
    case 3: body += ",\"points\":" + std::to_string(op.param); break;
    default: break;
  }
  const std::string filter = filter_json(op);
  if (!filter.empty()) body += ",\"filter\":" + filter;
  return body + "}";
}

[[nodiscard]] std::string target_of(const Op& op) {
  switch (op.cls) {
    case OpClass::kMeta: return "/api/v1/meta";
    case OpClass::kApps:
      return "/api/v1/apps?page=" + std::to_string(op.id) +
             "&per_page=" + std::to_string(kPerPage);
    case OpClass::kApp: return "/api/v1/app/" + std::to_string(op.id);
    case OpClass::kComments: return "/api/v1/app/" + std::to_string(op.id) + "/comments?page=0";
    case OpClass::kQuery: return op.post ? std::string("/api/v1/query") : query_target(op);
  }
  return "/";
}

/// Per-kind parameter of a query: k, depth count or points.
[[nodiscard]] std::uint16_t kind_param(Rng& rng, std::uint8_t kind) {
  static constexpr std::uint16_t kTopK[] = {5, 10, 20, 50};
  static constexpr std::uint16_t kPoints[] = {20, 50, 100};
  switch (kind) {
    case 0: return kTopK[rng.below(4)];
    case 2: return static_cast<std::uint16_t>(1 + rng.below(3));
    case 3: return kPoints[rng.below(3)];
    default: return 0;
  }
}

}  // namespace

std::uint64_t Rng::next() noexcept {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Rng derive(std::uint64_t seed, std::uint64_t stream) noexcept {
  Rng mixer(seed ^ (stream * 0xd1b54a32d192ed03ull));
  return Rng(mixer.next());
}

ZipfTable::ZipfTable(std::size_t n, double exponent) : cdf_(std::max<std::size_t>(n, 1)) {
  double total = 0.0;
  for (std::size_t i = 0; i < cdf_.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (double& value : cdf_) value /= total;
}

std::size_t ZipfTable::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

ClusteredZipf::ClusteredZipf(std::uint32_t items, double zr, double p, double zc,
                             std::uint32_t clusters)
    : items_(items), clusters_(std::max<std::uint32_t>(1, clusters)), p_(p),
      global_(items, zr) {
  if (items == 0) throw std::invalid_argument("ClusteredZipf: no items");
  for (std::uint32_t c = 0; c < clusters_; ++c) {
    const std::uint32_t members = c < items ? (items - c + clusters_ - 1) / clusters_ : 0;
    within_.emplace_back(std::max<std::uint32_t>(members, 1), zc);
  }
}

std::uint32_t ClusteredZipf::pick(Rng& rng, std::uint32_t& previous) const {
  std::uint32_t item = 0;
  if (previous < items_ && rng.chance(p_)) {
    const std::uint32_t cluster = previous % clusters_;
    const auto rank = static_cast<std::uint32_t>(within_[cluster].sample(rng));
    item = std::min(cluster + rank * clusters_, items_ - 1);
  } else {
    item = static_cast<std::uint32_t>(global_.sample(rng));
  }
  previous = item;
  return item;
}

std::string_view class_name(OpClass cls) noexcept {
  switch (cls) {
    case OpClass::kMeta: return "meta";
    case OpClass::kApps: return "apps";
    case OpClass::kApp: return "app";
    case OpClass::kComments: return "comments";
    case OpClass::kQuery: return "query";
  }
  return "?";
}

net::HttpRequest render(const Op& op, const std::string& client) {
  net::HttpRequest request;
  request.target = target_of(op);
  if (op.cls == OpClass::kQuery && op.post) {
    request.method = "POST";
    request.body = query_body(op);
    request.headers["Content-Type"] = "application/json";
  }
  request.headers["X-Client-Id"] = client;
  return request;
}

std::string describe(const Op& op) {
  std::string text = target_of(op);
  if (op.cls == OpClass::kQuery && op.post) text += "\n" + query_body(op);
  return text;
}

Op adhoc_query(Rng& rng, const Universe& universe, bool allow_post) {
  Op op;
  op.cls = OpClass::kQuery;
  op.kind = static_cast<std::uint8_t>(rng.below(4));
  op.param = kind_param(rng, op.kind);
  // Mostly cheap user-pinned index scans, so the ad-hoc set outgrows the
  // service's response cache; the rest are column scans and residuals.
  const double roll = rng.uniform();
  if (roll < 0.70) {
    op.shape = Shape::kUser;
  } else if (roll < 0.80) {
    op.shape = Shape::kUserDay;
  } else if (roll < 0.86) {
    op.shape = Shape::kDay;
  } else if (roll < 0.92) {
    op.shape = Shape::kCategory;
  } else if (roll < 0.95) {
    op.shape = Shape::kPrice;
  } else if (roll < 0.98) {
    op.shape = Shape::kDayCategory;
  } else {
    op.shape = Shape::kCategoryPrice;
  }
  op.id = static_cast<std::uint32_t>(rng.below(universe.users));
  op.day = static_cast<std::int16_t>(rng.below(static_cast<std::uint64_t>(universe.last_day) + 1));
  op.category = static_cast<std::uint16_t>(rng.below(universe.categories));
  op.price = static_cast<std::uint16_t>(rng.below(300));
  op.post = allow_post && rng.chance(0.10);
  return op;
}

std::vector<Op> dashboard_queries(const Universe& universe) {
  const auto half = static_cast<std::int16_t>(universe.last_day / 2);
  const auto make = [](std::uint8_t kind, std::uint16_t param, Shape shape,
                       std::int16_t day = 0, std::uint16_t category = 0) {
    Op op;
    op.cls = OpClass::kQuery;
    op.kind = kind;
    op.param = param;
    op.shape = shape;
    op.day = day;
    op.category = category;
    return op;
  };
  return {
      make(0, 10, Shape::kNone),
      make(0, 50, Shape::kNone),
      make(1, 0, Shape::kNone),
      make(2, 3, Shape::kNone),
      make(3, 100, Shape::kNone),
      make(3, 20, Shape::kNone),
      make(0, 10, Shape::kDay, half),
      make(1, 0, Shape::kDay, half),
      make(3, 50, Shape::kDay, universe.last_day),
      make(2, 1, Shape::kDay, half),
      make(0, 10, Shape::kCategory, 0, 0),
      make(0, 10, Shape::kCategory, 0, 1),
      make(1, 0, Shape::kCategory, 0, 2),
      make(0, 20, Shape::kDayCategory, half, 0),
      make(1, 0, Shape::kDayCategory, universe.last_day, 1),
      make(2, 2, Shape::kCategory, 0, 3),
  };
}

std::vector<Op> storefront_ops(std::uint64_t seed, std::size_t count, const Universe& universe,
                               const StorefrontMix& mix) {
  // The paper's clustered-Zipf parameters (§5, Table 2 notation).
  const ClusteredZipf picker(universe.apps, /*zr=*/0.6, /*p=*/0.8, /*zc=*/1.0,
                             /*clusters=*/25);
  const std::vector<Op> dashboards = dashboard_queries(universe);
  Rng rng = derive(seed, 1);
  std::uint32_t previous = universe.apps;
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Op op;
    if (mix.query_share > 0.0 && rng.chance(mix.query_share)) {
      if (mix.pinned_queries) {
        op.cls = OpClass::kQuery;
        op.kind = 0;
        op.param = 10;
        op.shape = Shape::kUser;
        op.id = static_cast<std::uint32_t>(rng.below(universe.users));
      } else if (rng.chance(mix.dashboard_share)) {
        op = dashboards[rng.below(dashboards.size())];
      } else {
        op = adhoc_query(rng, universe, false);
      }
      ops.push_back(op);
      continue;
    }
    const double roll = rng.uniform();
    if (roll < 0.05) {
      op.cls = OpClass::kMeta;
    } else if (roll < 0.40) {
      op.cls = OpClass::kApps;
      op.id = static_cast<std::uint32_t>(rng.below(universe.pages));
    } else if (roll < 0.85) {
      op.cls = OpClass::kApp;
      op.id = picker.pick(rng, previous);
    } else {
      op.cls = OpClass::kComments;
      op.id = picker.pick(rng, previous);
    }
    ops.push_back(op);
  }
  return ops;
}

std::vector<Op> analytics_ops(std::uint64_t seed, std::size_t count, const Universe& universe) {
  const std::vector<Op> dashboards = dashboard_queries(universe);
  Rng rng = derive(seed, 2);
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.chance(0.30)) {
      ops.push_back(dashboards[rng.below(dashboards.size())]);
    } else {
      ops.push_back(adhoc_query(rng, universe, true));
    }
  }
  return ops;
}

std::vector<std::uint32_t> app_targets(const std::vector<Op>& ops) {
  std::vector<std::uint32_t> apps;
  for (const Op& op : ops) {
    if (op.cls == OpClass::kApp || op.cls == OpClass::kComments) apps.push_back(op.id);
  }
  return apps;
}

void digest_ops(const std::vector<Op>& ops, Digest& digest) {
  digest.u64(ops.size());
  for (const Op& op : ops) digest.text(describe(op));
}

}  // namespace perfbench
