// The closed-loop client loop and outcome accounting.
//
// Every caller of this service waits for its reply, so each workload is a
// closed loop: `callers` threads each claim the next index of a fixed-count
// request list, send it, and claim another only after the reply. The list is
// sent once, never wrapped: the timed window ends at the deadline or when
// the list runs out, whichever is first. An untimed warm-up prefix of the
// same list runs before the clock starts.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "inputs.hpp"
#include "net/http.hpp"
#include "util/format.hpp"

namespace perfbench {

namespace util = appstore::util;

enum class Outcome : std::uint8_t {
  kOk = 0,
  kHttp4xx,
  kHttp5xx,
  kShed,
  kTransport,
  kBreakerOpen,
};
constexpr std::size_t kOutcomeCount = 6;

/// Outcome of one response by status and error-envelope code.
[[nodiscard]] Outcome classify(const net::HttpResponse& response);

/// When the program was entered and left for one request.
struct Timing {
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
};

/// Sends list entry `index` from caller thread `caller`, filling `timing`
/// around the call into the program only.
using CallFn = std::function<Outcome(std::size_t caller, std::size_t index, Timing& timing)>;

struct Sample {
  std::int64_t latency_ns = 0;
  OpClass cls = OpClass::kMeta;
  Outcome outcome = Outcome::kOk;
};

struct WindowResult {
  double seconds = 0.0;        ///< first send to last reply, summed over the parts
  std::size_t parts = 1;
  std::vector<Sample> samples; ///< every request of the timed window, by caller
  std::size_t next = 0;        ///< first list index not sent
  bool exhausted = false;      ///< the list ran out before the deadline
};

/// Runs [begin, begin + warmup) untimed, calls `at_start` (counter
/// snapshots), then runs [begin + warmup, end) timed for `seconds`, in
/// `parts` consecutive parts of equal length, calling `between(i)` untimed
/// after part i. The parts' samples join as one window; the time spent in
/// `between` is left out of it.
[[nodiscard]] WindowResult run_window(std::size_t callers, const std::vector<Op>& ops,
                                      std::size_t begin, std::size_t warmup, double seconds,
                                      const CallFn& call,
                                      const std::function<void()>& at_start = {},
                                      std::size_t parts = 1,
                                      const std::function<void(std::size_t)>& between = {});

/// Latency percentiles with failed or refused requests counted as misses
/// (they sort above every completed request).
struct LatencySummary {
  std::size_t samples = 0;
  std::size_t misses = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double highest_quantile = 0.0;  ///< highest percentile with >= 10 samples beyond
  double highest_us = 0.0;
  double mean_us = 0.0;           ///< over completed requests
};
[[nodiscard]] LatencySummary summarize_latency(const std::vector<Sample>& samples,
                                               double window_seconds);

/// Per op class: attempted = ok + 4xx + 5xx + shed + transport + breaker_open.
struct Accounting {
  std::array<std::array<std::uint64_t, kOutcomeCount>, kOpClassCount> counts{};

  void add(const std::vector<Sample>& samples);
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
  /// One line per op class that saw traffic.
  [[nodiscard]] std::vector<std::string> lines(bool with_breaker) const;
};

}  // namespace perfbench
