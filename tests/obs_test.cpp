// Tests for the observability layer: atomic counters/gauges/histograms under
// concurrent hammering, log-spaced bucket quantiles, the registry's family
// semantics, RAII timers/spans, and the text/JSON exporters (JSON validated
// by round-tripping through crawlersim::parse_json).
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "crawler/json.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace appstore::obs {
namespace {

// ---- counters / gauges ---------------------------------------------------------

TEST(Counter, ConcurrentIncrementsAllLand) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Counter, IncByAmount) {
  Counter counter;
  counter.inc(3);
  counter.inc(0);
  counter.inc(39);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Gauge, SetAddSub) {
  Gauge gauge;
  gauge.set(10.0);
  gauge.add(2.5);
  gauge.sub(0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 12.0);
}

// ---- histogram -----------------------------------------------------------------

TEST(Histogram, CountSumMinMax) {
  Histogram histogram;
  histogram.observe(0.5);
  histogram.observe(2.0);
  histogram.observe(0.125);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 2.625);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.125);
  EXPECT_DOUBLE_EQ(histogram.max(), 2.0);
  EXPECT_NEAR(histogram.mean(), 0.875, 1e-12);
}

TEST(Histogram, QuantilesWithinBucketTolerance) {
  Histogram histogram;
  // Uniform 1..1000 ms: p50 ~ 0.5 s, p99 ~ 0.99 s. Log-2 buckets give at
  // most a 2x over-estimate before interpolation; interpolation plus the
  // observed-min/max clip keeps the estimate inside the true value's bucket.
  for (int ms = 1; ms <= 1000; ++ms) histogram.observe(ms * 1e-3);
  const double p50 = histogram.quantile(0.5);
  const double p99 = histogram.quantile(0.99);
  EXPECT_GE(p50, 0.25);
  EXPECT_LE(p50, 1.0);
  EXPECT_GE(p99, 0.5);
  EXPECT_LE(p99, 1.0);
  EXPECT_LE(histogram.quantile(1.0), histogram.max() + 1e-12);
  EXPECT_GE(histogram.quantile(0.0), 0.0);
}

TEST(Histogram, SingleObservationQuantileIsExact) {
  Histogram histogram;
  histogram.observe(0.125);
  // With one sample, min == max == the sample; clipping makes every
  // quantile exact.
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.125);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.99), 0.125);
}

TEST(Histogram, ConcurrentObservationsAllLand) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.observe(1e-3 * static_cast<double>(1 + ((t + i) % 100)));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(histogram.min(), 1e-3);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.1);
}

TEST(Histogram, IgnoresNaN) {
  Histogram histogram;
  histogram.observe(std::nan(""));
  EXPECT_EQ(histogram.count(), 0u);
}

TEST(Histogram, OverflowBucketCatchesHugeValues) {
  Histogram histogram(HistogramOptions{.least_bound = 1e-6, .growth = 2.0, .bucket_count = 4});
  histogram.observe(1e9);
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_DOUBLE_EQ(histogram.max(), 1e9);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 1e9);  // clipped to observed max
}

// ---- registry ------------------------------------------------------------------

TEST(Registry, SameNameLabelReturnsSameMetric) {
  Registry registry;
  Counter& a = registry.counter("requests_total", "GET");
  Counter& b = registry.counter("requests_total", "GET");
  EXPECT_EQ(&a, &b);
  Counter& c = registry.counter("requests_total", "POST");
  EXPECT_NE(&a, &c);
}

TEST(Registry, SnapshotIsDeterministicallyOrdered) {
  Registry registry;
  registry.counter("zeta").inc();
  registry.counter("alpha", "b").inc();
  registry.counter("alpha", "a").inc();
  const Snapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].name, "alpha");
  EXPECT_EQ(snapshot.counters[0].label, "a");
  EXPECT_EQ(snapshot.counters[1].label, "b");
  EXPECT_EQ(snapshot.counters[2].name, "zeta");
}

TEST(Registry, ConcurrentRegistrationAndUse) {
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Half the threads share a family; half create their own label.
      Counter& shared = registry.counter("shared_total");
      Counter& own = registry.counter("per_thread_total", std::to_string(t % 2));
      for (int i = 0; i < 10'000; ++i) {
        shared.inc();
        own.inc();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const Snapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.find_counter("shared_total")->value, 80'000u);
  EXPECT_EQ(snapshot.find_counter("per_thread_total", "0")->value +
                snapshot.find_counter("per_thread_total", "1")->value,
            80'000u);
}

TEST(Registry, HistogramSampleCarriesQuantiles) {
  Registry registry;
  Histogram& latency = registry.histogram("latency_seconds", "api");
  for (int i = 1; i <= 100; ++i) latency.observe(i * 1e-3);
  const auto snapshot = registry.snapshot();  // keep alive: find_histogram aims into it
  const auto* sample = snapshot.find_histogram("latency_seconds", "api");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, 100u);
  EXPECT_GT(sample->p50, 0.0);
  EXPECT_LE(sample->p50, sample->p90);
  EXPECT_LE(sample->p90, sample->p99);
  EXPECT_LE(sample->p99, sample->max);
}

// ---- RAII timers / spans -------------------------------------------------------

TEST(ScopedTimer, ObservesOnDestruction) {
  Histogram histogram;
  { ScopedTimer timer(histogram); }
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_GT(histogram.sum(), 0.0);
}

TEST(ScopedTimer, CancelDropsObservation) {
  Histogram histogram;
  {
    ScopedTimer timer(histogram);
    timer.cancel();
  }
  EXPECT_EQ(histogram.count(), 0u);
}

TEST(ScopedTimer, NullHistogramIsNoOp) {
  ScopedTimer timer(static_cast<Histogram*>(nullptr));
  EXPECT_GE(timer.elapsed_seconds(), 0.0);
}

TEST(TraceSpan, NestedPathsJoinWithSlash) {
  Registry registry;
  {
    TraceSpan outer(registry, "crawl_day");
    EXPECT_EQ(outer.path(), "crawl_day");
    EXPECT_EQ(TraceSpan::current_path(), "crawl_day");
    {
      TraceSpan inner(registry, "directory");
      EXPECT_EQ(inner.path(), "crawl_day/directory");
    }
    EXPECT_EQ(TraceSpan::current_path(), "crawl_day");
  }
  EXPECT_EQ(TraceSpan::current_path(), "");
  const Snapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.find_histogram(TraceSpan::kFamily, "crawl_day")->count, 1u);
  EXPECT_EQ(snapshot.find_histogram(TraceSpan::kFamily, "crawl_day/directory")->count, 1u);
}

TEST(TraceSpan, NullRegistryIsNoOp) {
  TraceSpan span(nullptr, "nothing");
  EXPECT_EQ(span.path(), "nothing");
}

// ---- exporters -----------------------------------------------------------------

TEST(Export, TextFormatContainsFamiliesAndHelp) {
  Registry registry;
  registry.describe("requests_total", "Total requests");
  registry.counter("requests_total", "2xx").inc(5);
  registry.gauge("active").set(2.0);
  registry.histogram("latency_seconds").observe(0.25);
  const std::string text = to_text(registry);
  EXPECT_NE(text.find("# HELP requests_total Total requests"), std::string::npos);
  EXPECT_NE(text.find("requests_total{label=\"2xx\"} 5"), std::string::npos);
  EXPECT_NE(text.find("active 2"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds_p50"), std::string::npos);
}

TEST(Export, JsonRoundTripsThroughParser) {
  Registry registry;
  registry.counter("requests_total", "2xx").inc(7);
  registry.counter("requests_total", "5xx").inc(1);
  registry.gauge("hit_ratio", "LRU").set(0.75);
  Histogram& latency = registry.histogram("latency_seconds", "api");
  for (int i = 1; i <= 10; ++i) latency.observe(i * 1e-3);

  const std::string json = to_json(registry);
  const auto parsed = crawlersim::parse_json(json);
  ASSERT_TRUE(parsed.has_value());

  const auto& counters = parsed->at("counters").as_array();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].at("name").as_string(), "requests_total");
  EXPECT_EQ(counters[0].at("label").as_string(), "2xx");
  EXPECT_EQ(counters[0].at("value").as_integer<std::uint64_t>().value(), 7u);

  const auto& gauges = parsed->at("gauges").as_array();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].at("label").as_string(), "LRU");
  EXPECT_DOUBLE_EQ(gauges[0].at("value").as_number(), 0.75);

  const auto& histograms = parsed->at("histograms").as_array();
  ASSERT_EQ(histograms.size(), 1u);
  EXPECT_EQ(histograms[0].at("count").as_integer<std::uint64_t>().value(), 10u);
  EXPECT_DOUBLE_EQ(histograms[0].at("min").as_number(), 1e-3);
  EXPECT_DOUBLE_EQ(histograms[0].at("max").as_number(), 1e-2);
  EXPECT_GT(histograms[0].at("p99").as_number(), 0.0);
}

TEST(Export, JsonEscapesLabelStrings) {
  Registry registry;
  registry.counter("weird_total", "with \"quotes\" and \\slashes\\").inc();
  const auto parsed = crawlersim::parse_json(to_json(registry));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("counters").as_array()[0].at("label").as_string(),
            "with \"quotes\" and \\slashes\\");
}

TEST(Export, EmptyRegistryIsValidJson) {
  Registry registry;
  const auto parsed = crawlersim::parse_json(to_json(registry));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->at("counters").as_array().empty());
}

}  // namespace
}  // namespace appstore::obs
