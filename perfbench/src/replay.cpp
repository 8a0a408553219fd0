// The query layer's stage-by-stage replay (see workloads.hpp).
#include <set>

#include "crawler/query_json.hpp"
#include "crawler/service.hpp"
#include "query/plan.hpp"
#include "util/format.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kReplayed = 1000;

/// The engine's app-joined columns, built the way QueryEngine builds them.
struct BoundColumns {
  std::vector<std::uint32_t> category;
  std::vector<double> price;

  explicit BoundColumns(const market::AppStore& store) {
    for (const market::App& app : store.apps()) {
      category.push_back(static_cast<std::uint32_t>(app.category.index()));
      price.push_back(store.average_price_dollars(app.id));
    }
  }

  [[nodiscard]] query::BoundLog bind(const market::AppStore& store,
                                     events::FrontierSnapshot log) const {
    query::BoundLog bound;
    bound.log = std::move(log);
    bound.app_category = category;
    bound.app_price = price;
    bound.store_name = store.name();
    bound.user_count = store.user_count();
    bound.category_count = static_cast<std::uint32_t>(store.categories().size());
    return bound;
  }
};

}  // namespace

void replay_queries(const std::vector<Op>& ops, std::size_t begin, std::size_t end,
                    const market::AppStore& store, crawlersim::AppstoreService& service,
                    const query::QueryOptions& options, Tracer& tracer, Report& report) {
  const query::QueryEngine engine(store, options);
  const BoundColumns columns(store);
  query::PlanOptions plan_options;
  plan_options.allow_index_scan = options.allow_index_scan;
  plan_options.index_user_fraction = options.index_user_fraction;
  plan_options.scan_block = options.scan_block;
  plan_options.threads = options.threads;

  const market::Day day = service.day();
  const market::Day replay_day = day + 1;  // every cached entry is stale now
  service.set_day(replay_day);
  std::set<std::string> seen;
  double rows_selected = 0.0;
  std::size_t replayed = 0;
  for (std::size_t index = begin; index < end && replayed < kReplayed; ++index) {
    if (ops[index].cls != OpClass::kQuery || !seen.insert(describe(ops[index])).second) continue;
    const net::HttpRequest request = render(ops[index], "perfbench-replay");
    {
      const Span span(tracer, "replay.respond", index);
      (void)service.respond(request);
    }
    {
      const Span span(tracer, "replay.route", index);
      (void)crawlersim::AppstoreService::route(request.path());
    }
    query::QuerySpec spec;
    {
      const Span span(tracer, "crawler.query_parse", index);
      spec = crawlersim::parse_query_request(request);
    }
    const bool comments = spec.kind == query::AggregateKind::kCategoryAffinity;
    const query::BoundLog bound =
        columns.bind(store, comments ? store.comment_log() : store.download_log());
    query::Plan plan;
    {
      const Span span(tracer, "query.plan", index);
      plan = spec.filter ? query::plan_filter(*spec.filter, bound, plan_options)
                         : query::plan_all();
    }
    {
      const Span span(tracer, "query.scan", index);
      (void)query::execute(plan, bound, plan_options);
    }
    query::QueryResult result;
    {
      const Span span(tracer, "query.run", index);
      result = engine.run(spec, replay_day);
    }
    {
      const Span span(tracer, "crawler.query_json", index);
      (void)crawlersim::query_result_json(result, replay_day).dump();
    }
    rows_selected += static_cast<double>(result.rows_selected);
    ++replayed;
  }
  service.set_day(day);

  std::map<std::string, SpanSummary> spans = tracer.summarize();
  const double parse = spans["crawler.query_parse"].mean_us();
  const double plan = spans["query.plan"].mean_us();
  const double scan = spans["query.scan"].mean_us();
  const double run = spans["query.run"].mean_us();
  const double json = spans["crawler.query_json"].mean_us();
  report.set("query.replayed", static_cast<double>(replayed));
  report.set("crawler.query_parse_us", parse);
  report.set("crawler.query_json_us", json);
  report.set("query.plan_us", plan);
  report.set("query.scan_us", scan);
  report.set("query.run_us", run);
  report.set("query.aggregate_us", run - plan - scan);
  report.set("query.rows_selected",
             replayed == 0 ? 0.0 : rows_selected / static_cast<double>(replayed));
  report.set("crawler.service_self_us",
             spans["replay.respond"].mean_us() - parse - run - json);
  report.note(util::format("replay: {} distinct window queries split into route {:.2f} us, "
                           "parse {:.2f}, plan {:.2f}, scan {:.2f}, run {:.2f}, json {:.2f}, "
                           "respond {:.2f}",
                           replayed, spans["replay.route"].mean_us(), parse, plan, scan, run,
                           json, spans["replay.respond"].mean_us()));
}

}  // namespace perfbench
