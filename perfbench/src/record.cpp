#include "record.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <thread>

#include "net/server.hpp"
#include "util/format.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"throughput_rps", "1/s"},   {"latency_p50_us", "us"},       {"latency_p99_us", "us"},
      {"setup_s", "s"},            {"peak_rss_mb", "MB"},          {"ingest_rows_per_s", "rows/s"},
      {"recovery_s", "s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"net.queue_wait_us", "us"},
      {"net.server_us", "us"},
      {"net.transit_us", "us"},
      {"net.requests_per_connection", "count"},
      {"net.connections", "count"},
      {"net.shed", "count"},
      {"crawler.respond_us", "us"},
      {"crawler.service_self_us", "us"},
      {"crawler.cache_hit_ratio", "ratio"},
      {"crawler.cache_lookups", "count"},
      {"crawler.app_us", "us"},
      {"crawler.comments_us", "us"},
      {"crawler.query_parse_us", "us"},
      {"crawler.query_json_us", "us"},
      {"query.plan_us", "us"},
      {"query.scan_us", "us"},
      {"query.aggregate_us", "us"},
      {"query.run_us", "us"},
      {"query.replayed", "count"},
      {"query.index_scans", "count"},
      {"query.column_scans", "count"},
      {"query.residual_filters", "count"},
      {"query.rows_selected", "count"},
      {"events.wal_commits", "count"},
      {"events.rows_logged", "count"},
      {"events.wal_bytes_per_row", "B/row"},
      {"events.encode_us", "us"},
      {"events.replay_read_s", "s"},
      {"market.ingest_batch_us", "us"},
      {"market.checkpoints", "count"},
      {"market.checkpoint_ms", "ms"},
      {"market.checkpoint_max_ms", "ms"},
      {"market.checkpoint_new_rows", "count"},
      {"market.checkpoint_bytes_per_new_row", "B/row"},
      {"market.replayed_records", "count"},
      {"fed.requests", "count"},
      {"fed.upstream_calls_per_request", "count"},
      {"fed.upstream_us", "us"},
      {"fed.gateway_self_us", "us"},
      {"fed.hedges", "count"},
      {"fed.hedges_per_request", "count"},
      {"fed.hedge_win_ratio", "ratio"},
      {"fed.failed", "count"},
      {"synth.generate_s", "s"},
      {"fed.build_s", "s"},
      {"market.populate_s", "s"},
      {"trace.spans", "count"},
      {"trace.untraced_p50_us", "us"},
      {"trace.p50_overhead_us", "us"},
      {"trace.untraced_rps", "1/s"},
      {"trace.rps_overhead_ratio", "ratio"},
  };
  return specs;
}

void Report::set(std::string_view name, double value) {
  values_.insert_or_assign(std::string(name), value);
}

double Report::get(std::string_view name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::fail(std::string why) {
  notes_.push_back("CHECK FAILED: " + why);
  failures_.push_back(std::move(why));
}

void Report::print(const std::vector<MetricSpec>& specs) const {
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    if (!correct()) break;
    double value = get(spec.name);
    if (!std::isfinite(value)) value = 0.0;
    char digits[64];
    const auto [end, error] = std::to_chars(digits, digits + sizeof digits, value);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + std::string(spec.name) + "\": {\"value\": " +
            std::string(digits, error == std::errc() ? end : digits) + ", \"unit\": \"" +
            std::string(spec.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

synth::GeneratorConfig store_config(std::uint64_t seed) {
  synth::GeneratorConfig config;
  config.app_scale = 0.1;
  config.download_scale = 5e-4;
  config.comments = true;
  config.seed = seed;
  return config;
}

crawlersim::ServicePolicy serving_policy() {
  crawlersim::ServicePolicy policy;
  policy.rate_per_second = 1e12;
  policy.burst = 1e12;
  return policy;
}

market::Day serving_day(const synth::StoreProfile& profile) { return profile.crawl_days; }

void digest_store(const market::AppStore& store, Digest& digest) {
  digest.text(store.name());
  digest.u64(store.user_count());
  digest.u64(store.apps().size());
  for (const market::App& app : store.apps()) {
    digest.u64(app.category.index());
    digest.u64(static_cast<std::uint64_t>(app.price));
    digest.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(app.released)));
    digest.u64(app.pricing == market::Pricing::kPaid ? 1 : 0);
    digest.u64(app.update_days.size());
  }
  for (const events::FrontierSnapshot& log : {store.download_log(), store.comment_log()}) {
    digest.column(log.user());
    digest.column(log.app());
    digest.column(log.day());
    digest.column(log.rating());
  }
}

Universe universe_of(const market::AppStore& store, market::Day day) {
  const auto apps = static_cast<std::uint32_t>(store.apps().size());
  return {apps, (apps + 99) / 100, store.user_count(),
          static_cast<std::uint32_t>(store.categories().size()), static_cast<std::int16_t>(day)};
}

std::vector<std::string> caller_ids(std::size_t callers) {
  std::vector<std::string> ids;
  for (std::size_t caller = 0; caller < callers; ++caller) {
    ids.push_back(util::format("perfbench-{}", caller));
  }
  return ids;
}

ServedStore set_up_served_store(const RunOptions& options,
                                const crawlersim::ServicePolicy& policy, bool over_socket,
                                Tracer& tracer, Report& report) {
  const synth::StoreProfile profile = synth::anzhi();
  Op meta;
  const net::HttpRequest probe = render(meta, "perfbench-probe");
  ServedStore served;
  std::vector<double> setup_seconds;
  for (std::size_t r = 0; r < setup_repeats(tracer.enabled()); ++r) {
    served.service.reset();  // stop serving before the store goes
    served.generated = {};
    const Span span(tracer, "setup", 0);
    const std::int64_t start = now_ns();
    {
      const Span generate(tracer, "synth.generate", 0);
      served.generated = synth::generate(profile, store_config(options.seed));
    }
    const Span service_start(tracer, "service.start", 0);
    served.service = std::make_unique<crawlersim::AppstoreService>(served.store(), policy);
    served.service->set_day(serving_day(profile));
    if (over_socket) {
      net::PersistentHttpClient client("127.0.0.1", served.service->port());
      expect_ok(report, client.send(probe), "set-up probe");
    } else {
      expect_ok(report, served.service->respond(probe), "set-up probe");
    }
    setup_seconds.push_back(seconds_between(start, now_ns()));
  }
  report_setup(report, setup_seconds);
  Digest digest;
  digest_store(served.store(), digest);
  report.note(util::format("store digest={} ({} apps, {} users, {} downloads, {} comments)",
                           digest.hex(), served.store().apps().size(), served.store().user_count(),
                           served.store().download_log().size(),
                           served.store().comment_log().size()));
  return served;
}

HistogramDelta histogram_delta(const obs::Snapshot& before, const obs::Snapshot& after,
                               std::string_view name, std::string_view label) {
  HistogramDelta delta;
  const obs::HistogramSample* end = after.find_histogram(name, label);
  if (end == nullptr) return delta;
  const obs::HistogramSample* start = before.find_histogram(name, label);
  delta.count = end->count - (start == nullptr ? 0 : start->count);
  delta.sum = end->sum - (start == nullptr ? 0.0 : start->sum);
  return delta;
}

std::uint64_t counter_delta(const obs::Snapshot& before, const obs::Snapshot& after,
                            std::string_view name, std::string_view label) {
  const auto total = [&](const obs::Snapshot& snapshot) {
    std::uint64_t sum = 0;
    for (const obs::CounterSample& sample : snapshot.counters) {
      if (sample.name == name && (label.empty() || sample.label == label)) sum += sample.value;
    }
    return sum;
  };
  return total(after) - total(before);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

void report_window(Report& report, const WindowResult& window, std::size_t callers,
                   bool with_breaker) {
  const LatencySummary latency = summarize_latency(window.samples, window.seconds);
  report.set("throughput_rps", static_cast<double>(window.samples.size()) / window.seconds);
  report.set("latency_p50_us", latency.p50_us);
  report.set("latency_p99_us", latency.p99_us);
  Accounting accounting;
  accounting.add(window.samples);
  report.attempted += accounting.attempted();
  report.failed += accounting.failed();
  report.note(util::format("closed loop: {} callers, window {:.3f} s in {} parts, list {}",
                           callers, window.seconds, window.parts,
                           window.exhausted ? "exhausted before the deadline" : "not exhausted"));
  report.note(util::format(
      "latency samples={} misses={} p50_us={:.3f} p99_us={:.3f} mean_us={:.3f} "
      "highest supported percentile=p{:g} ({:.3f} us)",
      latency.samples, latency.misses, latency.p50_us, latency.p99_us, latency.mean_us,
      latency.highest_quantile * 100.0, latency.highest_us));
  if (latency.samples < 1000) {
    report.fail(util::format("p99 needs >= 1000 samples, window had {}", latency.samples));
  }
  for (std::string& line : accounting.lines(with_breaker)) report.note(std::move(line));
  report.note(util::format("failed share: {} of {} attempted", accounting.failed(),
                           accounting.attempted()));
}

void note_host(Report& report, const RunOptions& options) {
  report.note(util::format("workload={} seed={} seconds={:g} trace={}", options.workload,
                           options.seed, options.seconds, options.trace ? 1 : 0));
  report.note(util::format("host: nproc={} compiler=\"{}\" build_type={} source={} git_sha={}",
                           std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                           PERFBENCH_BUILD_TYPE, options.source_id, options.git_sha));
}

void report_setup(Report& report, const std::vector<double>& setup_seconds) {
  report.set("setup_s", median(setup_seconds));
  std::string line = "set-up seconds:";
  for (const double seconds : setup_seconds) line += util::format(" {:.4f}", seconds);
  report.note(line);
}

std::size_t list_length(double seconds, double cap_rps, std::size_t warmup) {
  return warmup + static_cast<std::size_t>(std::ceil(seconds * cap_rps));
}


std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t begin, std::size_t end,
                                        std::size_t count) {
  std::vector<std::size_t> out;
  if (end <= begin) return out;
  const std::size_t span = end - begin;
  if (span <= count) {
    for (std::size_t i = begin; i < end; ++i) out.push_back(i);
    return out;
  }
  Rng rng = derive(seed, 77);
  for (std::size_t i = 0; i < count; ++i) out.push_back(begin + rng.below(span));
  return out;
}

void report_service_layer(Report& report, const std::vector<obs::Snapshot>& before,
                          const std::vector<obs::Snapshot>& after) {
  const auto histogram = [&](std::string_view label) {
    HistogramDelta total;
    for (std::size_t i = 0; i < before.size(); ++i) {
      const HistogramDelta delta =
          histogram_delta(before[i], after[i], "service_request_seconds", label);
      total.count += delta.count;
      total.sum += delta.sum;
    }
    return total;
  };
  const auto counter = [&](std::string_view name, std::string_view label) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
      total += counter_delta(before[i], after[i], name, label);
    }
    return static_cast<double>(total);
  };
  HistogramDelta all;
  for (const std::string_view label : {"meta", "apps", "app", "comments", "apk", "query",
                                       "metrics", "other"}) {
    const HistogramDelta delta = histogram(label);
    all.count += delta.count;
    all.sum += delta.sum;
  }
  report.set("crawler.respond_us", all.mean_us());
  const double hits = counter("service_response_cache_total", "hit");
  const double lookups = hits + counter("service_response_cache_total", "miss");
  report.set("crawler.cache_lookups", lookups);
  report.set("crawler.cache_hit_ratio", lookups == 0.0 ? 0.0 : hits / lookups);
  report.set("crawler.app_us", histogram("app").mean_us());
  report.set("crawler.comments_us", histogram("comments").mean_us());
  report.set("query.index_scans", counter("query_plan_total", "index_scan"));
  report.set("query.column_scans", counter("query_plan_total", "column_scan"));
  report.set("query.residual_filters", counter("query_plan_total", "residual"));
}

void expect_ok(Report& report, const net::HttpResponse& response, std::string_view what) {
  if (response.status != 200) {
    report.fail(util::format("{} answered {}: {}", what, response.status, response.body));
  }
}

void zipf_gate(Report& report, const std::vector<std::uint32_t>& apps) {
  const double r = rank_frequency_pearson(apps);
  report.note(util::format("zipf gate: {} app targets, rank/frequency log-log pearson {:.4f} "
                           "(must be < {:g})",
                           apps.size(), r, kZipfGate));
  if (!(r < kZipfGate)) report.fail("app targets are not Zipf-shaped");
}

}  // namespace perfbench
