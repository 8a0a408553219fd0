#include "loop.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "trace.hpp"
#include "util/format.hpp"

namespace perfbench {

Outcome classify(const net::HttpResponse& response) {
  if (response.status < 400) return Outcome::kOk;
  const std::string_view body = response.body;
  if (response.status == 503) {
    if (body.find("breaker_open") != std::string_view::npos) return Outcome::kBreakerOpen;
    return Outcome::kShed;  // server "overloaded", gateway "admission_shed"
  }
  if (response.status == 502 && body.find("upstream_transport") != std::string_view::npos) {
    return Outcome::kTransport;
  }
  return response.status < 500 ? Outcome::kHttp4xx : Outcome::kHttp5xx;
}

namespace {

/// Each caller claims indices from `next` until `end` or the deadline;
/// samples land in the caller's own vector.
void drive(std::size_t callers, const std::vector<Op>& ops, std::atomic<std::size_t>& next,
           std::size_t end, std::int64_t deadline_ns, const CallFn& call,
           std::vector<std::vector<Sample>>* samples, std::vector<std::int64_t>* last_done) {
  std::vector<std::thread> threads;
  threads.reserve(callers);
  for (std::size_t caller = 0; caller < callers; ++caller) {
    threads.emplace_back([&, caller] {
      while (true) {
        if (deadline_ns > 0 && now_ns() >= deadline_ns) break;
        const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
        if (index >= end) break;
        Timing timing;
        Outcome outcome = Outcome::kTransport;
        try {
          outcome = call(caller, index, timing);
        } catch (...) {
          if (timing.done_ns == 0) timing.done_ns = now_ns();
          if (timing.sent_ns == 0) timing.sent_ns = timing.done_ns;
        }
        if (samples == nullptr) continue;
        (*samples)[caller].push_back({timing.done_ns - timing.sent_ns, ops[index].cls, outcome});
        (*last_done)[caller] = timing.done_ns;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace

WindowResult run_window(std::size_t callers, const std::vector<Op>& ops, std::size_t begin,
                        std::size_t warmup, double seconds, const CallFn& call,
                        const std::function<void()>& at_start, std::size_t parts,
                        const std::function<void(std::size_t)>& between) {
  const std::size_t end = ops.size();
  std::atomic<std::size_t> next{begin};
  drive(callers, ops, next, std::min(end, begin + warmup), 0, call, nullptr, nullptr);
  next.store(std::min(end, begin + warmup));
  if (at_start) at_start();

  // Room for the whole list up front: a vector that grows by doubling would
  // make the peak resident set depend on where the sample count falls.
  // Reserved pages stay untouched, so they cost no resident memory.
  WindowResult result;
  result.samples.reserve(end - next.load());
  std::int64_t timed_ns = 0;
  for (std::size_t part = 0; part < parts; ++part) {
    std::vector<std::vector<Sample>> samples(callers);
    for (auto& per_caller : samples) per_caller.reserve(end - std::min(end, next.load()));
    std::vector<std::int64_t> last_done(callers, 0);
    const std::int64_t start = now_ns();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds / static_cast<double>(parts) * 1e9);
    drive(callers, ops, next, end, deadline, call, &samples, &last_done);
    timed_ns += std::max(*std::max_element(last_done.begin(), last_done.end()), start + 1) - start;
    for (auto& per_caller : samples) {
      result.samples.insert(result.samples.end(), per_caller.begin(), per_caller.end());
    }
    if (between) between(part);
  }
  result.seconds = static_cast<double>(timed_ns) / 1e9;
  result.parts = parts;
  // Callers test the deadline before they claim, so every claimed index
  // below `end` was sent.
  result.next = std::min(end, begin + warmup) + result.samples.size();
  result.exhausted = result.next >= end;
  return result;
}

LatencySummary summarize_latency(const std::vector<Sample>& samples, double window_seconds) {
  LatencySummary summary;
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  double sum = 0.0;
  std::size_t completed = 0;
  for (const Sample& sample : samples) {
    if (sample.outcome == Outcome::kOk) {
      const double latency_us = static_cast<double>(sample.latency_ns) / 1e3;
      latencies.push_back(latency_us);
      sum += latency_us;
      ++completed;
    } else {
      latencies.push_back(INFINITY);
      ++summary.misses;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  // A percentile that lands on a miss reads as the whole window: no reply
  // came inside it.
  const auto read = [&](double q) {
    const double value = nearest_rank(latencies, q);
    return std::isfinite(value) ? value : window_seconds * 1e6;
  };
  summary.samples = samples.size();
  summary.p50_us = read(0.5);
  summary.p99_us = read(0.99);
  summary.highest_quantile = highest_supported_quantile(samples.size());
  summary.highest_us = summary.highest_quantile > 0.0 ? read(summary.highest_quantile) : 0.0;
  summary.mean_us = completed == 0 ? 0.0 : sum / static_cast<double>(completed);
  return summary;
}

void Accounting::add(const std::vector<Sample>& samples) {
  for (const Sample& sample : samples) {
    ++counts[static_cast<std::size_t>(sample.cls)][static_cast<std::size_t>(sample.outcome)];
  }
}

std::uint64_t Accounting::attempted() const {
  std::uint64_t total = 0;
  for (const auto& row : counts) {
    for (const std::uint64_t value : row) total += value;
  }
  return total;
}

std::uint64_t Accounting::failed() const {
  std::uint64_t total = 0;
  for (const auto& row : counts) {
    for (std::size_t o = 1; o < kOutcomeCount; ++o) total += row[o];
  }
  return total;
}

std::vector<std::string> Accounting::lines(bool with_breaker) const {
  std::vector<std::string> out;
  for (std::size_t c = 0; c < kOpClassCount; ++c) {
    const auto& row = counts[c];
    std::uint64_t attempted = 0;
    for (const std::uint64_t value : row) attempted += value;
    if (attempted == 0) continue;
    const std::uint64_t failed = attempted - row[0];
    std::string line = util::format(
        "class {}: attempted={} ok={} 4xx={} 5xx={} shed={} transport={}",
        class_name(static_cast<OpClass>(c)), attempted, row[0], row[1], row[2], row[3], row[4]);
    if (with_breaker) line += util::format(" breaker_open={}", row[5]);
    line += util::format(" failed_share={:.6f}",
                         static_cast<double>(failed) / static_cast<double>(attempted));
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace perfbench
