// perfbench: the repo benchmark's entry point. One process runs one workload:
//
//   perfbench --workload <storefront|analytics|federated> --seed <n>
//             --seconds <s> --trace <0|1> [--source-id <hex>] [--git-sha <sha>]
//             [--work-dir <dir>]
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the workload
// twice, untraced then traced, and prints every per-layer metric plus the
// tracing overhead (traced minus untraced medians). The last line of
// standard output is the JSON result; the lines before it ("# ...") are the
// run record. A failed correctness check reports no metrics and exits 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "util/format.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <storefront|analytics|federated> "
               "--seed <n> --seconds <s> --trace <0|1> [--source-id <hex>] "
               "[--git-sha <sha>] [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

[[nodiscard]] RunOptions parse(int argc, char** argv) {
  RunOptions options;
  bool has_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing flag value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        has_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--source-id") {
        options.source_id = value;
      } else if (flag == "--git-sha") {
        options.git_sha = value;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        usage("unknown flag");
      }
    } catch (const std::exception&) {
      usage("bad flag value");
    }
  }
  if (!has_workload) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

using Workload = void (*)(const RunOptions&, Tracer&, Report&);

[[nodiscard]] Workload find_workload(const std::string& name) {
  if (name == "storefront") return run_storefront;
  if (name == "analytics") return run_analytics;
  if (name == "federated") return run_federated;
  usage("unknown workload");
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = parse(argc, argv);
  const Workload workload = find_workload(options.workload);
  try {
    Report report;
    note_host(report, options);
    if (!options.trace) {
      Tracer off(false);
      workload(options, off, report);
      report.set("peak_rss_mb", peak_rss_mb());
      report.print(end_to_end_metrics());
      return report.correct() ? 0 : 1;
    }

    // Traced mode: an untraced pass for the overhead baseline, then the
    // traced pass every per-layer metric comes from.
    Report untraced;
    {
      Tracer off(false);
      workload(options, off, untraced);
    }
    if (!untraced.correct()) report.fail("untraced pass failed its checks");
    Tracer tracer(true);
    workload(options, tracer, report);
    const double base_p50 = untraced.get("latency_p50_us");
    const double base_rps = untraced.get("throughput_rps");
    report.set("trace.spans", static_cast<double>(tracer.span_count()));
    report.set("trace.untraced_p50_us", base_p50);
    report.set("trace.p50_overhead_us", report.get("latency_p50_us") - base_p50);
    report.set("trace.untraced_rps", base_rps);
    report.set("trace.rps_overhead_ratio",
               base_rps > 0.0 ? 1.0 - report.get("throughput_rps") / base_rps : 0.0);
    report.note(appstore::util::format(
        "tracing overhead: p50 {:.3f} us traced vs {:.3f} us untraced; {:.1f} rps traced vs "
        "{:.1f} rps untraced",
        report.get("latency_p50_us"), base_p50, report.get("throughput_rps"), base_rps));
    const std::string trace_file = appstore::util::format(
        "{}/traces/{}-seed{}.csv", options.work_dir, options.workload, options.seed);
    tracer.write_csv(trace_file);
    report.note("spans written to " + trace_file);
    report.print(per_layer_metrics());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
