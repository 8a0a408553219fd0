// The run record: metrics, notes, correctness, and the helpers every
// workload shares (store shape, registry deltas, peak RSS).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "crawler/service.hpp"
#include "loop.hpp"
#include "market/store.hpp"
#include "obs/registry.hpp"
#include "stats.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace.hpp"

namespace perfbench {

namespace crawlersim = appstore::crawlersim;
namespace market = appstore::market;
namespace obs = appstore::obs;
namespace query = appstore::query;
namespace synth = appstore::synth;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";  ///< digest of the sources built
  std::string git_sha = "none";
  std::string work_dir = ".bench_build/perfbench-work";  ///< durable stores, traces
};

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};
/// The metrics an untraced run prints (BENCHMARK.json "end_to_end").
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// The metrics a traced run prints (BENCHMARK.json "per_layer").
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

class Report {
 public:
  void set(std::string_view name, double value);
  [[nodiscard]] double get(std::string_view name) const;
  void note(std::string line) { notes_.push_back(std::move(line)); }
  /// Marks the run incorrect; the result then reports no metrics.
  void fail(std::string why);
  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints the notes ("# " lines) and, last, the one-line JSON result with
  /// every metric of `specs` (a layer the workload does not reach reads 0).
  void print(const std::vector<MetricSpec>& specs) const;

 private:
  std::map<std::string, double, std::less<>> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

/// The store every read workload serves: synth::anzhi() at app-scale 0.1,
/// dl-scale 5e-4, comments on, seeded by the run seed.
[[nodiscard]] synth::GeneratorConfig store_config(std::uint64_t seed);
/// Production serving defaults with the rate limit set unlimited (the
/// limiter still runs on every request).
[[nodiscard]] crawlersim::ServicePolicy serving_policy();
/// The virtual day the read workloads serve: the end of the crawl window,
/// when every app is released (release days fall in [1, crawl_days]).
[[nodiscard]] market::Day serving_day(const synth::StoreProfile& profile);

/// Folds the store's entities and event columns into `digest`.
void digest_store(const market::AppStore& store, Digest& digest);

/// What the request generators address in `store`, served at `day`.
[[nodiscard]] Universe universe_of(const market::AppStore& store, market::Day day);

/// X-Client-Id of each closed-loop caller.
[[nodiscard]] std::vector<std::string> caller_ids(std::size_t callers);

/// The generated store and the service in front of it (storefront,
/// analytics). The service is declared last, so it stops first.
struct ServedStore {
  synth::GeneratedStore generated;
  std::unique_ptr<crawlersim::AppstoreService> service;

  [[nodiscard]] const market::AppStore& store() const { return *generated.store; }
};

/// Sets the served store up setup_repeats() times, keeping the last: store
/// generation, service start, and a first answered /api/v1/meta (over a
/// socket when `over_socket`). Records setup_s and notes the store digest.
[[nodiscard]] ServedStore set_up_served_store(const RunOptions& options,
                                              const crawlersim::ServicePolicy& policy,
                                              bool over_socket, Tracer& tracer, Report& report);

/// Count and sum of a histogram over a window (0/0 when absent).
struct HistogramDelta {
  std::uint64_t count = 0;
  double sum = 0.0;
  [[nodiscard]] double mean_us() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count) * 1e6;
  }
};
[[nodiscard]] HistogramDelta histogram_delta(const obs::Snapshot& before,
                                             const obs::Snapshot& after,
                                             std::string_view name, std::string_view label);
/// Counter delta; an empty label sums every label of the family.
[[nodiscard]] std::uint64_t counter_delta(const obs::Snapshot& before,
                                          const obs::Snapshot& after, std::string_view name,
                                          std::string_view label = {});

[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double seconds_between(std::int64_t start_ns, std::int64_t end_ns);

/// Records the window's throughput, p50 and p99 (nearest rank over every
/// request of the window), notes its latency and per-class accounting, and
/// adds its attempted/failed counts to the report. Fails the run when the
/// window has fewer than 1,000 latency samples.
void report_window(Report& report, const WindowResult& window, std::size_t callers,
                   bool with_breaker);

/// Host, build and input facts every run prints.
void note_host(Report& report, const RunOptions& options);

/// Fails the run when the app targets are not Zipf-shaped.
void zipf_gate(Report& report, const std::vector<std::uint32_t>& apps);

/// Set-ups per run: setup_s is their median. A traced pass sets up once.
[[nodiscard]] inline std::size_t setup_repeats(bool traced) { return traced ? 1 : 3; }

/// Records setup_s, the median over the set-ups, and notes each.
void report_setup(Report& report, const std::vector<double>& setup_seconds);

/// List length for a window of `seconds`: the warm-up plus `cap_rps` per
/// second, a rate the workload does not reach, so the list is sent once.
[[nodiscard]] std::size_t list_length(double seconds, double cap_rps, std::size_t warmup);

/// `count` seeded indices drawn from [begin, end) (all of them when fewer).
[[nodiscard]] std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t begin,
                                                      std::size_t end, std::size_t count);

/// crawler.* and query plan per-layer metrics over a window, summed over
/// the registries of every service (one per shard on `federated`).
void report_service_layer(Report& report, const std::vector<obs::Snapshot>& before,
                          const std::vector<obs::Snapshot>& after);

/// Fails the run unless `response` is a 200.
void expect_ok(Report& report, const net::HttpResponse& response, std::string_view what);

}  // namespace perfbench
