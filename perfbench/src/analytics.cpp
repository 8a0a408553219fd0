// analytics: an analyst's dashboard and ad-hoc queries. One in-process
// caller of AppstoreService::respond sends /api/v1/query only,
// so plan, scan and aggregate dominate. After the timed window a replay
// splits the query layer, which is reachable only through the service, by
// calling its public stages one by one.
#include <memory>
#include <set>

#include "crawler/query_json.hpp"
#include "crawler/service.hpp"
#include "synth/generator.hpp"
#include "util/format.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kCallers = 1;
constexpr std::size_t kWarmup = 200;
constexpr double kCapRps = 12000.0;
constexpr std::size_t kChecked = 64;

/// Serving defaults with one column-scan worker per query: with a worker
/// per core on top of the callers, cheap queries queued behind scan
/// workers, and on a 4-core host p50 spread 20% from run to run on the
/// same seed (8% with one worker and three callers).
[[nodiscard]] crawlersim::ServicePolicy analytics_policy() {
  crawlersim::ServicePolicy policy = serving_policy();
  policy.query.threads = 1;
  return policy;
}

}  // namespace

void run_analytics(const RunOptions& options, Tracer& tracer, Report& report) {
  const ServedStore served =
      set_up_served_store(options, analytics_policy(), false, tracer, report);
  const market::AppStore& store = served.store();
  crawlersim::AppstoreService& service = *served.service;
  const market::Day day = service.day();

  const std::vector<Op> ops = analytics_ops(
      options.seed, list_length(options.seconds, kCapRps, kWarmup), universe_of(store, day));
  Digest inputs;
  digest_ops(ops, inputs);
  std::set<std::string> distinct;
  for (const Op& op : ops) distinct.insert(describe(op));
  report.note(util::format("inputs: {} ops ({} distinct targets) digest={}", ops.size(),
                           distinct.size(), inputs.hex()));
  report.note("zipf gate: not applicable (queries address users, days, categories and "
              "prices, not apps)");

  const std::vector<std::string> ids = caller_ids(kCallers);
  const CallFn call = [&](std::size_t caller, std::size_t index, Timing& timing) {
    const net::HttpRequest request = render(ops[index], ids[caller]);
    const Span span(tracer, "crawler.respond", index);
    timing.sent_ns = now_ns();
    const net::HttpResponse response = service.respond(request);
    timing.done_ns = now_ns();
    return classify(response);
  };
  DurableCopies durable(store, options, tracer);
  obs::Snapshot before;
  const WindowResult window = run_window(
      kCallers, ops, 0, kWarmup, options.seconds, call,
      [&] { before = service.metrics().snapshot(); }, kDurableCopies,
      [&](std::size_t) { durable.make_copy(report); });
  const obs::Snapshot after = service.metrics().snapshot();
  report_window(report, window, kCallers, false);

  // Correctness: a seeded sample must equal a direct engine run rendered the
  // same way, byte for byte.
  const query::QueryEngine engine(store, analytics_policy().query);
  std::size_t mismatches = 0;
  const std::vector<std::size_t> checked =
      sample_indices(options.seed, kWarmup, window.next, kChecked);
  for (const std::size_t index : checked) {
    const net::HttpRequest request = render(ops[index], "perfbench-check");
    const net::HttpResponse response = service.respond(request);
    const std::string expected =
        crawlersim::query_result_json(engine.run(crawlersim::parse_query_request(request), day),
                                      day)
            .dump();
    if (response.status != 200 || response.body != expected) ++mismatches;
  }
  report.note(util::format("check: {} sampled responses vs direct engine runs, {} differ",
                           checked.size(), mismatches));
  if (mismatches != 0) report.fail("service query answers differ from the engine's");

  if (tracer.enabled()) {
    report_service_layer(report, {before}, {after});
    std::map<std::string, SpanSummary> spans = tracer.summarize();
    report.set("crawler.respond_us", spans["crawler.respond"].mean_self_us());
    report.set("synth.generate_s", spans["synth.generate"].total_us / 1e6);
    replay_queries(ops, kWarmup, window.next, store, service, analytics_policy().query, tracer,
                   report);
  }

  durable.finish(report);
}

}  // namespace perfbench
