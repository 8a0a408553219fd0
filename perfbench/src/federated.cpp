// federated: the multi-market view. Two in-process callers of
// FederationGateway::respond (default GatewayOptions) over four
// user-sliced shards send the storefront mix plus 10% queries; user-pinned
// queries go to one shard, store-wide and column-scan queries scatter
// partials and merge them. Shard work is cheap, so gateway overhead
// dominates, except on the scatter queries that set the p99. After the
// timed window a traced run replays the window's queries through the query
// layer's public stages one by one.
#include <memory>

#include "crawler/json.hpp"
#include "crawler/query_json.hpp"
#include "crawler/service.hpp"
#include "fed/federation.hpp"
#include "fed/gateway.hpp"
#include "synth/generator.hpp"
#include "util/format.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fed = appstore::fed;

namespace {

constexpr std::size_t kCallers = 2;
constexpr std::size_t kShards = 4;
constexpr std::size_t kWarmup = 2000;
constexpr double kCapRps = 40000.0;
constexpr std::size_t kChecked = 64;

struct Instance {
  fed::Federation federation;
  std::unique_ptr<fed::FederationGateway> gateway;

  void reset() {
    gateway.reset();  // drop the shard calls before the shards go
    federation = fed::Federation();
  }
};

/// A query document without plan statistics, which are summed across
/// shards and legitimately differ from a single store (docs/federation.md).
[[nodiscard]] std::string payload_of(const std::string& body) {
  const std::optional<crawlersim::Json> document = crawlersim::parse_json(body);
  if (!document || !document->is_object()) return "unparseable: " + body;
  crawlersim::JsonObject kept;
  for (const auto& [key, value] : document->as_object()) {
    if (key != "plan" && key != "rows_total") kept.emplace_back(key, value);
  }
  return crawlersim::Json(std::move(kept)).dump();
}

}  // namespace

void run_federated(const RunOptions& options, Tracer& tracer, Report& report) {
  const synth::StoreProfile profile = synth::anzhi();
  const market::Day day = serving_day(profile);
  fed::FederationOptions federation_options;
  federation_options.profile = profile;
  federation_options.config = store_config(options.seed);
  federation_options.shards = kShards;
  federation_options.policy = serving_policy();
  federation_options.day = day;

  Op meta;
  const net::HttpRequest probe = render(meta, "perfbench-probe");
  Instance instance;
  std::vector<double> setup_seconds;
  for (std::size_t r = 0; r < setup_repeats(tracer.enabled()); ++r) {
    instance.reset();
    const Span span(tracer, "setup", 0);
    const std::int64_t start = now_ns();
    {
      const Span build(tracer, "fed.build", 0);
      instance.federation = fed::build_federation(federation_options);
    }
    // Shard calls: Federation::attach's service->respond, plus a span when
    // traced (registered through the same add_upstream).
    const Span gateway_start(tracer, "gateway.start", 0);
    instance.gateway = std::make_unique<fed::FederationGateway>(fed::GatewayOptions{});
    if (!tracer.enabled()) {
      instance.federation.attach(*instance.gateway);
    } else {
      for (std::size_t i = 0; i < instance.federation.services.size(); ++i) {
        crawlersim::AppstoreService* service = instance.federation.services[i].get();
        instance.gateway->add_upstream(instance.federation.shard_ids[i],
                                       [service, &tracer](const net::HttpRequest& request) {
                                         const Span shard(tracer, "fed.upstream", 0);
                                         return service->respond(request);
                                       });
      }
    }
    expect_ok(report, instance.gateway->respond(probe), "set-up probe");
    setup_seconds.push_back(seconds_between(start, now_ns()));
  }
  report_setup(report, setup_seconds);
  fed::FederationGateway& gateway = *instance.gateway;

  const std::vector<Op> ops =
      storefront_ops(options.seed, list_length(options.seconds, kCapRps, kWarmup),
                     universe_of(*instance.federation.stores.front().store, day),
                     {.query_share = 0.10, .pinned_queries = false, .dashboard_share = 0.5});
  Digest inputs;
  digest_ops(ops, inputs);
  Digest store_digest;
  for (const synth::GeneratedStore& shard : instance.federation.stores) {
    digest_store(*shard.store, store_digest);
  }
  report.note(util::format("inputs: {} ops digest={} shard stores digest={} ({} shards)",
                           ops.size(), inputs.hex(), store_digest.hex(), kShards));
  zipf_gate(report, app_targets(ops));
  if (!report.correct()) return;

  const std::vector<std::string> ids = caller_ids(kCallers);
  const CallFn call = [&](std::size_t caller, std::size_t index, Timing& timing) {
    const net::HttpRequest request = render(ops[index], ids[caller]);
    const Span span(tracer, "fed.respond", index);
    timing.sent_ns = now_ns();
    const net::HttpResponse response = gateway.respond(request);
    timing.done_ns = now_ns();
    return classify(response);
  };
  const auto shard_snapshots = [&] {
    std::vector<obs::Snapshot> snapshots;
    for (const auto& service : instance.federation.services) {
      snapshots.push_back(service->metrics().snapshot());
    }
    return snapshots;
  };
  // The union of the shards as one store: the correctness reference, and
  // the store the durable copies log.
  const synth::GeneratedStore single = synth::generate(profile, federation_options.config);
  DurableCopies durable(*single.store, options, tracer);
  fed::GatewayStats before;
  std::vector<obs::Snapshot> shards_before;
  const WindowResult window = run_window(
      kCallers, ops, 0, kWarmup, options.seconds, call,
      [&] {
        before = gateway.stats();
        shards_before = shard_snapshots();
      },
      kDurableCopies, [&](std::size_t) { durable.make_copy(report); });
  const fed::GatewayStats after = gateway.stats();
  const std::vector<obs::Snapshot> shards_after = shard_snapshots();
  report_window(report, window, kCallers, true);
  const std::uint64_t requests = after.requests - before.requests;
  const std::uint64_t gateway_failed =
      (after.http_4xx - before.http_4xx) + (after.http_5xx - before.http_5xx) +
      (after.transport - before.transport) + (after.breaker_open - before.breaker_open) +
      (after.shed - before.shed);
  report.note(util::format("gateway: requests={} ok={} 4xx={} 5xx={} transport={} "
                           "breaker_open={} shed={} upstream_calls={} hedges={} hedge_wins={}",
                           requests, after.ok - before.ok, after.http_4xx - before.http_4xx,
                           after.http_5xx - before.http_5xx, after.transport - before.transport,
                           after.breaker_open - before.breaker_open, after.shed - before.shed,
                           after.upstream_calls - before.upstream_calls,
                           after.hedges - before.hedges, after.hedge_wins - before.hedge_wins));

  // Correctness: the gateway's query payloads must equal a single store
  // generated from the same profile, config and seed.
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  {
    const query::QueryEngine engine(*single.store, federation_options.policy.query);
    std::vector<std::size_t> queries;
    for (std::size_t index = kWarmup; index < window.next; ++index) {
      if (ops[index].cls == OpClass::kQuery) queries.push_back(index);
    }
    for (const std::size_t pick : sample_indices(options.seed, 0, queries.size(), kChecked)) {
      const net::HttpRequest request = render(ops[queries[pick]], "perfbench-check");
      const net::HttpResponse response = gateway.respond(request);
      const std::string expected = crawlersim::query_result_json(
          engine.run(crawlersim::parse_query_request(request), day), day).dump();
      ++checked;
      if (response.status != 200 || payload_of(response.body) != payload_of(expected)) {
        ++mismatches;
      }
    }
  }
  report.note(util::format("check: {} sampled gateway query payloads vs a single store, {} differ",
                           checked, mismatches));
  if (mismatches != 0) report.fail("federated query payloads differ from the single store");
  durable.finish(report);

  if (tracer.enabled()) {
    std::map<std::string, SpanSummary> spans = tracer.summarize();
    const double per_request = requests == 0 ? 0.0 : 1.0 / static_cast<double>(requests);
    const std::uint64_t hedges = after.hedges - before.hedges;
    report.set("fed.requests", static_cast<double>(requests));
    report.set("fed.upstream_calls_per_request",
               static_cast<double>(after.upstream_calls - before.upstream_calls) * per_request);
    report.set("fed.upstream_us", spans["fed.upstream"].mean_us());
    report.set("fed.gateway_self_us", spans["fed.respond"].mean_self_us());
    report.set("fed.hedges", static_cast<double>(hedges));
    report.set("fed.hedges_per_request", static_cast<double>(hedges) * per_request);
    report.set("fed.hedge_win_ratio",
               hedges == 0 ? 0.0
                           : static_cast<double>(after.hedge_wins - before.hedge_wins) /
                                 static_cast<double>(hedges));
    report.set("fed.failed", static_cast<double>(gateway_failed));
    report.set("fed.build_s", spans["fed.build"].total_us / 1e6);
    report_service_layer(report, shards_before, shards_after);
    report.set("crawler.respond_us", spans["fed.upstream"].mean_self_us());
    // The gateway reaches the query layer only through shard services, so
    // the replay runs on a service of its own over the union store.
    crawlersim::AppstoreService service(*single.store, federation_options.policy);
    service.set_day(day);
    expect_ok(report, service.respond(probe), "replay probe");
    replay_queries(ops, kWarmup, window.next, *single.store, service,
                   federation_options.policy.query, tracer, report);
  }
}

}  // namespace perfbench
