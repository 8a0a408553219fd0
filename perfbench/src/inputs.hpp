// Seeded input generation. Everything a workload sends is a pure
// function of (workload, --seed, --seconds) and is drawn here, by the
// benchmark's own generators, so an edit to the program's synth or load
// code cannot change a workload without its input digest changing too.
//
// App targets follow the paper's clustered-Zipf popularity model (§5): with
// probability p a draw stays in the previous app's cluster (within-cluster
// Zipf zc over the members in popularity order), otherwise the global Zipf
// zr picks by rank. Clusters are round-robin over app ids.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "events/event_log.hpp"
#include "net/http.hpp"
#include "stats.hpp"

namespace perfbench {

namespace events = appstore::events;
namespace net = appstore::net;

/// splitmix64 stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}
  [[nodiscard]] std::uint64_t next() noexcept;
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept { return n == 0 ? 0 : next() % n; }
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

 private:
  std::uint64_t state_;
};

/// Independent stream `stream` of `seed`.
[[nodiscard]] Rng derive(std::uint64_t seed, std::uint64_t stream) noexcept;

/// Zipf(exponent) over ranks 0..n-1 by inverse CDF.
class ZipfTable {
 public:
  ZipfTable(std::size_t n, double exponent);
  [[nodiscard]] std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

class ClusteredZipf {
 public:
  ClusteredZipf(std::uint32_t items, double zr, double p, double zc, std::uint32_t clusters);
  /// `previous` carries the last pick between calls; start it at `items`.
  [[nodiscard]] std::uint32_t pick(Rng& rng, std::uint32_t& previous) const;

 private:
  std::uint32_t items_;
  std::uint32_t clusters_;
  double p_;
  ZipfTable global_;
  std::vector<ZipfTable> within_;  ///< per cluster
};


enum class OpClass : std::uint8_t { kMeta = 0, kApps, kApp, kComments, kQuery };
constexpr std::size_t kOpClassCount = 5;
[[nodiscard]] std::string_view class_name(OpClass cls) noexcept;

/// Filter shapes of the analytics mix.
enum class Shape : std::uint8_t {
  kNone = 0,       ///< store-wide
  kUser,           ///< user == K (index scan)
  kUserDay,        ///< user == K and day <= D (index scan + residual)
  kDay,            ///< day <= D (column scan)
  kCategory,       ///< category == C (column scan)
  kPrice,          ///< price > P (column scan)
  kDayCategory,    ///< day <= D and category == C (column scan + residual)
  kCategoryPrice,  ///< category == C and price > P (column scan + residual)
};

/// One request in compact form; render() builds the HTTP request.
struct Op {
  OpClass cls = OpClass::kMeta;
  std::uint8_t kind = 0;  ///< query: aggregate kind (query::AggregateKind order)
  Shape shape = Shape::kNone;
  bool post = false;      ///< query: POST with the structured JSON filter
  std::uint32_t id = 0;   ///< apps: page; app/comments: app id; query: user
  std::int16_t day = 0;   ///< query: day bound
  std::uint16_t category = 0;
  std::uint16_t param = 0;  ///< query: k, points or depth count
  std::uint16_t price = 0;  ///< query: price filter bound, cents
};

[[nodiscard]] net::HttpRequest render(const Op& op, const std::string& client);
/// The request target (plus "\n" + body for POST): what the digest covers.
[[nodiscard]] std::string describe(const Op& op);

/// What the ops address.
struct Universe {
  std::uint32_t apps = 0;
  std::uint32_t pages = 0;  ///< directory pages of 100
  std::uint32_t users = 0;
  std::uint32_t categories = 0;
  std::int16_t last_day = 0;
};

/// Storefront mix on /api/v1: 5% meta, 35% directory pages (uniform), 45%
/// app detail, 15% comments; `query_share` of all ops are queries instead:
/// top-10 for one user when `pinned_queries`, else a dashboard query with
/// probability `dashboard_share` and an ad-hoc GET query otherwise.
struct StorefrontMix {
  double query_share = 0.0;
  bool pinned_queries = false;
  double dashboard_share = 0.0;
};
[[nodiscard]] std::vector<Op> storefront_ops(std::uint64_t seed, std::size_t count,
                                             const Universe& universe,
                                             const StorefrontMix& mix);

/// Analytics mix: about 70% ad-hoc queries drawn per request (a tenth of
/// them POST with the structured filter), about 30% from 16 dashboards.
[[nodiscard]] std::vector<Op> analytics_ops(std::uint64_t seed, std::size_t count,
                                            const Universe& universe);
/// One ad-hoc query (GET unless `allow_post`).
[[nodiscard]] Op adhoc_query(Rng& rng, const Universe& universe, bool allow_post);
/// The 16 fixed dashboard queries.
[[nodiscard]] std::vector<Op> dashboard_queries(const Universe& universe);

/// App ids of every app/comments op (the Zipf gate's input).
[[nodiscard]] std::vector<std::uint32_t> app_targets(const std::vector<Op>& ops);
/// Folds every op's described request into `digest`.
void digest_ops(const std::vector<Op>& ops, Digest& digest);

}  // namespace perfbench
