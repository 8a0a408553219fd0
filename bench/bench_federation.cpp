// Federation fan-out bench.
//
// The same offered load is driven through two in-process gateways over the
// same anzhi config: one fronting a single shard (the no-fan-out baseline)
// and one fronting N user-sharded stores, where cross-shard routes scatter
// to every shard and merge. Each gateway is built once; the schedule is then
// replayed --repeats times through both, alternating which goes first, and
// every figure below is a median over the repeats.
//
// The floor (exit code 1 on violation): for every endpoint class, the
// median over repeats of federated p99 / max(single p99, 200 us) must stay
// within --gate-ratio (default 3x). The 200 us epsilon keeps
// microsecond-scale in-process baselines from failing the gate on scheduler
// noise alone. A p99 is gated only when at least ten samples lie beyond it,
// i.e. 1,000 samples per endpoint in every repeat; an endpoint with fewer
// fails the gate, because its p99 is one of a handful of requests. The
// defaults (4 clients x 6,000 requests) give meta, 4.5% of the mix, about
// 1,190 with the default seed. Results, with the median throughput ratio
// and the per-endpoint p50 ratios, land in results/BENCH_federation.json
// (docs/federation.md).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "crawler/service.hpp"
#include "fed/federation.hpp"
#include "fed/gateway.hpp"
#include "load/harness.hpp"
#include "load/report.hpp"
#include "load/workload.hpp"
#include "market/types.hpp"
#include "report/table.hpp"

namespace {

using namespace appstore;
using crawlersim::Json;
using crawlersim::JsonArray;
using crawlersim::json_object;

constexpr double kUnlimited = 1e12;  // the bench measures the gateway, not
                                     // the shard token buckets
constexpr market::Day kEndOfHistory = 1 << 20;
/// Epsilon under the ratio gate: 3x of a noise-floor baseline p99 is not a
/// meaningful budget, so the allowed p99 never drops below ratio * 200 us.
constexpr double kEpsilonP99 = 200e-6;
/// Samples per endpoint for ten of them to lie beyond the p99.
constexpr std::uint64_t kMinSamples = 1000;

/// One gateway over its own federation, built once and driven repeatedly.
struct GatewayRig {
  fed::Federation federation;
  std::unique_ptr<fed::FederationGateway> gateway;
  std::vector<load::RunReport> reports;  ///< one per repeat

  GatewayRig(const synth::StoreProfile& profile, const synth::GeneratorConfig& config,
             std::size_t shards) {
    crawlersim::ServicePolicy policy;
    policy.rate_per_second = kUnlimited;
    policy.burst = kUnlimited;
    fed::FederationOptions options;
    options.profile = profile;
    options.config = config;
    options.shards = shards;
    options.policy = policy;
    options.day = kEndOfHistory;
    federation = fed::build_federation(options);
    gateway = std::make_unique<fed::FederationGateway>();
    federation.attach(*gateway);
  }

  void run(const load::Schedule& schedule) {
    load::RunOptions run_options;
    run_options.respond = [this](const net::HttpRequest& request) {
      return gateway->respond(request);
    };
    reports.push_back(load::run(schedule, run_options));
  }
};

[[nodiscard]] double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

[[nodiscard]] Json stats_json(const fed::GatewayStats& stats) {
  return json_object({{"requests", stats.requests},
                      {"ok", stats.ok},
                      {"http_4xx", stats.http_4xx},
                      {"http_5xx", stats.http_5xx},
                      {"transport", stats.transport},
                      {"breaker_open", stats.breaker_open},
                      {"shed", stats.shed},
                      {"upstream_calls", stats.upstream_calls}});
}

[[nodiscard]] Json rig_json(const GatewayRig& rig) {
  JsonArray throughput;
  for (const load::RunReport& report : rig.reports) {
    throughput.emplace_back(report.throughput_rps);
  }
  return json_object({{"throughput_rps", Json(std::move(throughput))},
                      {"last_report", load::to_json(rig.reports.back())},
                      {"gateway", stats_json(rig.gateway->stats())}});
}

}  // namespace

int main(int argc, char** argv) {
  benchx::BenchCli cli("bench_federation",
                       "scatter-gather gateway fan-out cost vs a single-shard "
                       "gateway at the same offered load",
                       0.01, 5e-5);
  auto shards = cli.raw().u64("shards", 4, "federated shard count");
  auto clients = cli.raw().u64("clients", 4, "closed-loop client threads");
  auto requests = cli.raw().u64("requests", 6000, "requests per client per repeat");
  auto repeats = cli.raw().u64("repeats", 5, "schedule replays per gateway");
  auto gate_ratio = cli.raw().f64(
      "gate-ratio", 3.0, "maximum median federated/single p99 ratio per endpoint");
  auto out_path =
      cli.raw().str("out", "results/BENCH_federation.json", "report destination");
  cli.parse(argc, argv);

  benchx::print_heading(
      "federation: fan-out serving cost",
      "one store's union log split across user-sharded stores must answer the "
      "paper's aggregates through scatter-gather without giving up tail latency");

  const synth::GeneratorConfig config = cli.config();
  GatewayRig single(synth::anzhi(), config, 1);
  GatewayRig federated(synth::anzhi(), config, static_cast<std::size_t>(*shards));

  load::ScheduleOptions schedule_options;
  schedule_options.seed = cli.seed();
  schedule_options.clients = static_cast<std::uint32_t>(*clients);
  schedule_options.requests_per_client = static_cast<std::uint32_t>(*requests);
  schedule_options.mix.query_weight = 0.10;
  schedule_options.mix.app_count = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(single.federation.stores.front().store->apps().size()));
  const load::Schedule schedule = load::build_schedule(schedule_options);

  const std::size_t runs = std::max<std::uint64_t>(1, *repeats);
  for (std::size_t r = 0; r < runs; ++r) {
    GatewayRig& first = r % 2 == 0 ? single : federated;
    GatewayRig& second = r % 2 == 0 ? federated : single;
    first.run(schedule);
    second.run(schedule);
  }

  std::vector<double> single_rps, federated_rps, throughput_ratios;
  for (std::size_t r = 0; r < runs; ++r) {
    single_rps.push_back(single.reports[r].throughput_rps);
    federated_rps.push_back(federated.reports[r].throughput_rps);
    throughput_ratios.push_back(federated_rps.back() / single_rps.back());
  }
  const double throughput_ratio = median(throughput_ratios);

  bool gate_pass = true;
  JsonArray endpoints;
  report::Table table({"endpoint", "min n", "single p50 us", "fed p50 us", "p50 ratio",
                       "single p99 us", "fed p99 us", "p99 ratio", "gate"});
  const std::size_t classes = single.reports.front().latency.size();
  for (std::size_t op = 0; op < classes; ++op) {
    std::uint64_t samples = ~std::uint64_t{0};
    std::vector<double> single_p50, fed_p50, single_p99, fed_p99, p50_ratios, p99_ratios;
    for (std::size_t r = 0; r < runs; ++r) {
      const load::EndpointLatency& base = single.reports[r].latency[op];
      const load::EndpointLatency& fan = federated.reports[r].latency[op];
      samples = std::min({samples, base.count, fan.count});
      single_p50.push_back(base.p50);
      fed_p50.push_back(fan.p50);
      single_p99.push_back(base.p99);
      fed_p99.push_back(fan.p99);
      p50_ratios.push_back(base.p50 > 0.0 ? fan.p50 / base.p50 : 0.0);
      p99_ratios.push_back(fan.p99 / std::max(base.p99, kEpsilonP99));
    }
    if (samples == 0) continue;  // the mix never sends this class
    const double p99_ratio = median(p99_ratios);
    const bool gated = samples >= kMinSamples;
    const bool ok = gated && p99_ratio <= *gate_ratio;
    gate_pass = gate_pass && ok;
    const std::string& name = single.reports.front().latency[op].endpoint;
    endpoints.push_back(json_object({{"endpoint", name},
                                     {"min_samples", samples},
                                     {"single_p50_seconds", median(single_p50)},
                                     {"federated_p50_seconds", median(fed_p50)},
                                     {"p50_ratio", median(p50_ratios)},
                                     {"single_p99_seconds", median(single_p99)},
                                     {"federated_p99_seconds", median(fed_p99)},
                                     {"p99_budget_ratio", p99_ratio},
                                     {"gated", gated},
                                     {"ok", ok}}));
    table.row({name, std::to_string(samples),
               util::format("{:.1f}", median(single_p50) * 1e6),
               util::format("{:.1f}", median(fed_p50) * 1e6),
               util::format("{:.2f}", median(p50_ratios)),
               util::format("{:.0f}", median(single_p99) * 1e6),
               util::format("{:.0f}", median(fed_p99) * 1e6), util::format("{:.2f}", p99_ratio),
               !gated ? "TOO FEW" : ok ? "ok" : "FAIL"});
  }
  benchx::print_table(table);
  std::printf("median over %zu repeats: single-shard %.0f rps, federated (%llu shards) %.0f rps, "
              "throughput ratio %.2f; p99 ratio = fed / max(single, 200 us)\n",
              runs, median(single_rps), static_cast<unsigned long long>(*shards),
              median(federated_rps), throughput_ratio);

  const Json document = json_object(
      {{"profile", std::string("anzhi")},
       {"shards", static_cast<std::uint64_t>(*shards)},
       {"repeats", static_cast<std::uint64_t>(runs)},
       {"requests_per_repeat", static_cast<std::uint64_t>(schedule.total_requests())},
       {"gate_ratio", *gate_ratio},
       {"epsilon_p99_seconds", kEpsilonP99},
       {"min_samples", kMinSamples},
       {"throughput_ratio", throughput_ratio},
       {"endpoints", Json(std::move(endpoints))},
       {"single", rig_json(single)},
       {"federated", rig_json(federated)},
       {"gate", json_object({{"pass", gate_pass}})}});
  load::write_json_file(document, *out_path);
  cli.metrics().gauge("federation_gate_pass").set(gate_pass ? 1.0 : 0.0);
  cli.dump_metrics();
  if (!gate_pass) {
    std::fprintf(stderr, "bench_federation: fan-out p99 floor FAILED (see %s)\n",
                 out_path->c_str());
    return 1;
  }
  return 0;
}
