// Self-tests of the benchmark's own arithmetic: the nearest-rank
// percentile, span self-time subtraction, and the Zipf (Pearson) gate.
// Exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void nearest_rank_percentile() {
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  expect(perfbench::nearest_rank(ten, 0.5) == 5, "p50 of 1..10 is 5 (rank ceil(5))");
  expect(perfbench::nearest_rank(ten, 0.9) == 9, "p90 of 1..10 is 9");
  expect(perfbench::nearest_rank(ten, 0.99) == 10, "p99 of 1..10 is 10 (rank ceil(9.9))");
  expect(perfbench::nearest_rank(ten, 0.0) == 1, "p0 clamps to the first rank");
  expect(perfbench::nearest_rank(ten, 1.0) == 10, "p100 is the maximum");
  expect(perfbench::nearest_rank(std::vector<double>{}, 0.5) == 0, "empty sample reads 0");
  std::vector<double> thousand(1000);
  for (std::size_t i = 0; i < thousand.size(); ++i) thousand[i] = static_cast<double>(i + 1);
  expect(perfbench::nearest_rank(thousand, 0.99) == 990, "p99 of 1..1000 is 990");
  expect(perfbench::nearest_rank(std::vector<double>{1, 2, INFINITY}, 0.99) == INFINITY,
         "a miss sorts above every completed request");
  expect(perfbench::highest_supported_quantile(1000) == 0.99, "1000 samples support p99");
  expect(perfbench::highest_supported_quantile(100000) == 0.9999, "1e5 samples support p99.99");
  expect(perfbench::highest_supported_quantile(5) == 0.0, "5 samples support nothing");
  expect(perfbench::median({3, 1, 2}) == 2, "median of 3 values");
}

void self_time_subtraction() {
  using perfbench::self_time;
  expect(self_time(0, 100, {}) == 100, "a leaf span is all self time");
  expect(self_time(0, 100, {{10, 30}, {50, 60}}) == 70, "disjoint children subtract");
  expect(self_time(0, 100, {{10, 40}, {30, 60}}) == 50, "overlapping children count once");
  expect(self_time(0, 100, {{-20, 10}, {90, 150}}) == 80, "children clip to the parent");
  expect(self_time(0, 100, {{0, 100}}) == 0, "a fully covered span has no self time");
  expect(self_time(0, 100, {{20, 30}, {10, 40}}) == 70, "nested children count once");

  perfbench::Tracer tracer(true);
  {
    const perfbench::Span outer(tracer, "outer", 1);
    const perfbench::Span inner(tracer, "inner", 1);
  }
  const auto summary = tracer.summarize();
  const perfbench::SpanSummary& outer = summary.at("outer");
  const perfbench::SpanSummary& inner = summary.at("inner");
  expect(outer.count == 1 && inner.count == 1, "one span each");
  expect(std::abs(outer.self_us - (outer.total_us - inner.total_us)) < 1e-9,
         "recorded parent self time = duration - child duration");

  perfbench::Tracer off(false);
  { const perfbench::Span ignored(off, "ignored", 0); }
  expect(off.span_count() == 0, "a disabled tracer records nothing");
}

void pearson_gate() {
  // Exact Zipf frequencies: key k drawn 1000/k times.
  std::vector<std::uint32_t> zipf;
  for (std::uint32_t k = 1; k <= 200; ++k) {
    for (std::uint32_t n = 0; n < 1000 / k; ++n) zipf.push_back(k);
  }
  const double r = perfbench::rank_frequency_pearson(zipf);
  expect(r < -0.95, "exact Zipf frequencies read close to -1");
  expect(r < perfbench::kZipfGate, "Zipf keys pass the gate");

  // Uniform keys: every frequency equal, no rank relationship.
  std::vector<std::uint32_t> uniform;
  for (std::uint32_t k = 0; k < 200; ++k) {
    for (int n = 0; n < 50; ++n) uniform.push_back(k);
  }
  expect(!(perfbench::rank_frequency_pearson(uniform) < perfbench::kZipfGate),
         "uniform keys fail the gate");
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {8, 6, 4, 2};
  expect(std::abs(perfbench::pearson(x, y) + 1.0) < 1e-12, "a falling line correlates -1");
}

}  // namespace

int main() {
  nearest_rank_percentile();
  self_time_subtraction();
  pearson_gate();
  if (failures != 0) return 1;
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
