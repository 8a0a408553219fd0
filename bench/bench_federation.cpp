// Federation fan-out bench (ISSUE 10 acceptance bench).
//
// The same offered load is driven through two in-process gateways over the
// same anzhi config: one fronting a single shard (the no-fan-out baseline)
// and one fronting N user-sharded stores, where cross-shard routes scatter
// to every shard and merge. Per-endpoint client-observed p99s are compared.
//
// The floor (exit code 1 on violation): for every endpoint class the
// federated gateway's p99 must stay within --gate-ratio (default 3x) of the
// single-shard p99 at the same offered load, with a 200 us epsilon so
// microsecond-scale in-process baselines cannot fail the gate on scheduler
// noise alone. Results land in results/BENCH_federation.json
// (docs/federation.md documents the shape).
#include <algorithm>
#include <cstdint>
#include <cstdio>
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

struct GatewayRun {
  std::size_t shards = 0;
  load::RunReport report;
  fed::GatewayStats stats;
};

[[nodiscard]] GatewayRun run_gateway(const synth::StoreProfile& profile,
                                     const synth::GeneratorConfig& config,
                                     std::size_t shards, std::uint64_t seed,
                                     std::uint32_t clients, std::uint32_t requests,
                                     std::size_t apps) {
  crawlersim::ServicePolicy policy;
  policy.rate_per_second = kUnlimited;
  policy.burst = kUnlimited;

  fed::FederationOptions federation_options;
  federation_options.profile = profile;
  federation_options.config = config;
  federation_options.shards = shards;
  federation_options.policy = policy;
  federation_options.day = kEndOfHistory;
  const fed::Federation federation = fed::build_federation(federation_options);

  fed::FederationGateway gateway;
  federation.attach(gateway);

  load::ScheduleOptions schedule_options;
  schedule_options.seed = seed;
  schedule_options.clients = clients;
  schedule_options.requests_per_client = requests;
  schedule_options.mix.query_weight = 0.10;
  schedule_options.mix.app_count =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(apps));
  const load::Schedule schedule = load::build_schedule(schedule_options);

  load::RunOptions run_options;
  run_options.respond = [&gateway](const net::HttpRequest& request) {
    return gateway.respond(request);
  };

  GatewayRun run;
  run.shards = shards;
  run.report = load::run(schedule, run_options);
  run.stats = gateway.stats();
  return run;
}

[[nodiscard]] Json stats_json(const fed::GatewayStats& stats) {
  return json_object({{"requests", stats.requests},
                      {"ok", stats.ok},
                      {"http_4xx", stats.http_4xx},
                      {"http_5xx", stats.http_5xx},
                      {"transport", stats.transport},
                      {"breaker_open", stats.breaker_open},
                      {"shed", stats.shed},
                      {"upstream_calls", stats.upstream_calls},
                      {"hedges", stats.hedges},
                      {"hedge_wins", stats.hedge_wins},
                      {"hedges_cancelled", stats.hedges_cancelled}});
}

}  // namespace

int main(int argc, char** argv) {
  benchx::BenchCli cli("bench_federation",
                       "scatter-gather gateway fan-out cost vs a single-shard "
                       "gateway at the same offered load",
                       0.01, 5e-5);
  auto shards = cli.raw().u64("shards", 4, "federated shard count");
  auto clients = cli.raw().u64("clients", 4, "closed-loop client threads");
  auto requests = cli.raw().u64("requests", 400, "requests per client");
  auto gate_ratio = cli.raw().f64(
      "gate-ratio", 3.0, "maximum federated/single p99 ratio per endpoint");
  auto out_path =
      cli.raw().str("out", "results/BENCH_federation.json", "report destination");
  cli.parse(argc, argv);

  benchx::print_heading(
      "federation: fan-out serving cost",
      "one store's union log split across user-sharded stores must answer the "
      "paper's aggregates through scatter-gather without giving up tail latency");

  const synth::GeneratorConfig config = cli.config();
  // One throwaway generation to size the schedule's app-id universe; the
  // per-shard stores regenerate the identical replicated entity state.
  const std::size_t apps = synth::generate(synth::anzhi(), config).store->apps().size();

  const GatewayRun single =
      run_gateway(synth::anzhi(), config, 1, cli.seed(),
                  static_cast<std::uint32_t>(*clients),
                  static_cast<std::uint32_t>(*requests), apps);
  const GatewayRun federated =
      run_gateway(synth::anzhi(), config, static_cast<std::size_t>(*shards),
                  cli.seed(), static_cast<std::uint32_t>(*clients),
                  static_cast<std::uint32_t>(*requests), apps);

  bool gate_pass = true;
  JsonArray gate_checks;
  report::Table table({"endpoint", "count", "single p99 us", "fed p99 us", "ratio",
                       "budget us", "gate"});
  for (std::size_t op = 0; op < single.report.latency.size() &&
                           op < federated.report.latency.size();
       ++op) {
    const load::EndpointLatency& base = single.report.latency[op];
    const load::EndpointLatency& fed = federated.report.latency[op];
    if (base.count == 0 || fed.count == 0) continue;
    const double budget = *gate_ratio * std::max(base.p99, kEpsilonP99);
    const bool ok = fed.p99 <= budget;
    gate_pass = gate_pass && ok;
    const double ratio = base.p99 > 0.0 ? fed.p99 / base.p99 : 0.0;
    gate_checks.push_back(json_object({{"endpoint", base.endpoint},
                                       {"single_p99_seconds", base.p99},
                                       {"federated_p99_seconds", fed.p99},
                                       {"budget_seconds", budget},
                                       {"ok", ok}}));
    table.row({base.endpoint, std::to_string(fed.count),
               util::format("{:.0f}", base.p99 * 1e6),
               util::format("{:.0f}", fed.p99 * 1e6),
               util::format("{:.2f}", ratio), util::format("{:.0f}", budget * 1e6),
               ok ? "ok" : "FAIL"});
  }
  benchx::print_table(table);
  std::printf("single-shard: %.0f rps, federated (%llu shards): %.0f rps, "
              "upstream calls %llu, hedges %llu\n",
              single.report.throughput_rps,
              static_cast<unsigned long long>(*shards),
              federated.report.throughput_rps,
              static_cast<unsigned long long>(federated.stats.upstream_calls),
              static_cast<unsigned long long>(federated.stats.hedges));

  const Json document = json_object(
      {{"profile", std::string("anzhi")},
       {"shards", static_cast<std::uint64_t>(*shards)},
       {"gate_ratio", *gate_ratio},
       {"epsilon_p99_seconds", kEpsilonP99},
       {"single",
        json_object({{"report", load::to_json(single.report)},
                     {"gateway", stats_json(single.stats)}})},
       {"federated",
        json_object({{"report", load::to_json(federated.report)},
                     {"gateway", stats_json(federated.stats)}})},
       {"gate", json_object({{"pass", gate_pass},
                             {"checks", Json(std::move(gate_checks))}})}});
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
