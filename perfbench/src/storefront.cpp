// storefront: the crawler's view of the store. Two keep-alive socket
// connections to AppstoreService's own server send the /api/v1 storefront
// mix; the handler's work is small against a loopback round trip, so net
// and the crawler service path dominate.
#include <memory>

#include "net/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kCallers = 2;
constexpr std::size_t kWarmup = 2000;
constexpr double kCapRps = 100000.0;
constexpr std::size_t kChecked = 256;

}  // namespace

void run_storefront(const RunOptions& options, Tracer& tracer, Report& report) {
  const ServedStore served = set_up_served_store(options, serving_policy(), true, tracer, report);
  const market::AppStore& store = served.store();
  crawlersim::AppstoreService& service = *served.service;

  const std::vector<Op> ops =
      storefront_ops(options.seed, list_length(options.seconds, kCapRps, kWarmup),
                     universe_of(store, service.day()), {});
  Digest inputs;
  digest_ops(ops, inputs);
  report.note(util::format("inputs: {} ops digest={}", ops.size(), inputs.hex()));
  zipf_gate(report, app_targets(ops));
  if (!report.correct()) return;

  std::vector<std::unique_ptr<net::PersistentHttpClient>> clients;
  for (std::size_t caller = 0; caller < kCallers; ++caller) {
    clients.push_back(std::make_unique<net::PersistentHttpClient>("127.0.0.1", service.port()));
  }
  const std::vector<std::string> ids = caller_ids(kCallers);
  const CallFn call = [&](std::size_t caller, std::size_t index, Timing& timing) {
    net::HttpRequest request = render(ops[index], ids[caller]);
    const Span span(tracer, "client.round_trip", index);
    timing.sent_ns = now_ns();
    const net::HttpResponse response = clients[caller]->send(std::move(request));
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

  // Correctness: a seeded sample of the window's socket bodies must equal
  // the in-process answers to the same requests.
  std::size_t mismatches = 0;
  const std::vector<std::size_t> checked =
      sample_indices(options.seed, kWarmup, window.next, kChecked);
  net::PersistentHttpClient checker("127.0.0.1", service.port());
  for (const std::size_t index : checked) {
    const net::HttpRequest request = render(ops[index], "perfbench-check");
    const net::HttpResponse remote = checker.send(request);
    const net::HttpResponse local = service.respond(request);
    if (remote.status != local.status || remote.body != local.body) ++mismatches;
  }
  report.note(util::format("check: {} sampled socket bodies vs in-process respond, {} differ",
                           checked.size(), mismatches));
  if (mismatches != 0) report.fail("socket bodies differ from in-process bodies");

  if (tracer.enabled()) {
    const HistogramDelta queue = histogram_delta(before, after, "server_queue_wait_seconds", "");
    const HistogramDelta server = histogram_delta(before, after, "http_request_seconds", "2xx");
    std::map<std::string, SpanSummary> spans = tracer.summarize();
    std::uint64_t connections = 0;
    for (const auto& client : clients) connections += client->connections_opened();
    report.set("net.queue_wait_us", queue.mean_us());
    report.set("net.server_us", server.mean_us());
    report.set("net.transit_us",
               spans["client.round_trip"].mean_us() - server.mean_us() - queue.mean_us());
    report.set("net.connections", static_cast<double>(connections));
    report.set("net.requests_per_connection",
               static_cast<double>(window.next) / static_cast<double>(connections));
    report.set("net.shed", static_cast<double>(counter_delta(before, after, "server_shed_total")));
    report_service_layer(report, {before}, {after});
    report.set("synth.generate_s", spans["synth.generate"].total_us / 1e6);
  }

  durable.finish(report);
}

}  // namespace perfbench
