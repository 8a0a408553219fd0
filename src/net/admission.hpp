// Adaptive admission control for the worker-pool server's ready queue.
//
// The fixed `queue_capacity` cliff sheds only once the backlog is already
// `capacity` deep — by then every queued request has eaten the full queue
// delay, so p99 latency collapses long before the 503s start. The
// AdmissionController replaces that cliff with a latency-target policy:
//
//   * kQueueDelay (CoDel-style, the adaptive mode): the controller tracks the
//     *minimum* queue wait observed over each control interval. A minimum
//     above the target delay means even the luckiest request waited too long
//     — the queue is standing, not bursting — so the admissible depth is cut
//     multiplicatively. Intervals whose minimum is back under the target
//     (or that saw no traffic) grow the limit additively back toward the
//     configured ceiling: classic AIMD around the latency target.
//   * kFixed reproduces the legacy behaviour bit-for-bit: admit everything
//     below the ceiling, shed at the ceiling, never adapt. It is the default
//     so existing servers are unchanged.
//
// The controller also maintains an EWMA of observed queue waits and converts
// it to the Retry-After estimate the shed paths advertise (floor 1 s): a
// client told to come back after roughly one smoothed queue drain will find
// the backlog gone, instead of the hardcoded "1" the server used to send
// regardless of how deep the overload ran.
//
// Thread-safety: admit()/observe() are called concurrently from the
// dispatcher and every worker. The hot path is lock-free (atomic limit +
// deadline check); interval statistics take a small mutex only to fold a
// sample in, and interval rolls happen under that same mutex at most once
// per interval. kFixed keeps only the Retry-After EWMA: it reads no clock
// and takes no lock.
//
// Determinism: all time flows through an optional chaos::Clock, so the
// property suite (gameday_test) replays thousands of seeded load shapes on a
// VirtualClock and asserts the two invariants the serving layer relies on:
// the controller never sheds while measured queue delay stays under target,
// and the limit always returns to the ceiling after load drops.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string_view>

#include "chaos/clock.hpp"
#include "obs/registry.hpp"

namespace appstore::net {

enum class AdmissionMode : std::uint8_t {
  kFixed,       ///< legacy queue-capacity cliff (default; no adaptation)
  kQueueDelay,  ///< CoDel-style AIMD on interval-min queue wait
};

/// Metric/report label for a mode ("fixed", "queue_delay").
[[nodiscard]] std::string_view to_string(AdmissionMode mode) noexcept;

enum class AdmissionDecision : std::uint8_t {
  kAdmit,      ///< enqueue the connection
  kQueueFull,  ///< depth hit the hard ceiling (the legacy cliff)
  kOverload,   ///< depth hit the adaptive limit (kQueueDelay only)
};

struct AdmissionOptions {
  AdmissionMode mode = AdmissionMode::kFixed;
  /// Queue-delay SLO kQueueDelay steers toward.
  std::chrono::nanoseconds target_delay = std::chrono::milliseconds(5);
  /// Control interval: how often the limit is re-evaluated.
  std::chrono::nanoseconds interval = std::chrono::milliseconds(100);
  /// The adaptive limit never drops below this (so the server always makes
  /// forward progress and can observe recovery).
  std::size_t min_limit = 2;
  /// Hard cap on queue depth; also the limit's resting value when the queue
  /// delay is healthy. The server sets this to its queue_capacity.
  std::size_t limit_ceiling = 256;
  /// Multiplicative decrease applied when an interval's queue delay exceeds
  /// the target (kQueueDelay), in (0, 1).
  double decrease = 0.7;
  /// Additive increase per healthy interval; 0 = max(1, limit_ceiling / 16),
  /// i.e. full recovery within ~16 quiet intervals.
  std::size_t increase = 0;
  /// Time source (nullptr = real time). The property suite substitutes a
  /// VirtualClock. Must outlive the controller.
  chaos::Clock* clock = nullptr;
  /// Optional sink for admission_limit (gauge) and admission_sheds_total.
  /// Must outlive the controller.
  obs::Registry* metrics = nullptr;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Admission decision for a connection about to enter a queue currently
  /// `queue_depth` deep. kQueueFull at the hard ceiling in every mode;
  /// kOverload at the adaptive limit in kQueueDelay (counted in
  /// sheds()/admission_sheds_total). Also advances the control interval.
  [[nodiscard]] AdmissionDecision admit(std::size_t queue_depth);

  /// Feeds one measured queue wait (enqueue -> dequeue) into the current
  /// control interval and the Retry-After EWMA.
  void observe(std::chrono::nanoseconds queue_wait);

  /// Current admissible queue depth (== limit_ceiling in kFixed).
  [[nodiscard]] std::size_t limit() const noexcept {
    return limit_.load(std::memory_order_relaxed);
  }

  /// Estimated seconds until a shed client should retry: the smoothed queue
  /// wait (EWMA, alpha 1/8) rounded up, floored at 1 s and capped at 60 s.
  [[nodiscard]] int retry_after_seconds() const noexcept;

  /// Connections refused with kOverload so far.
  [[nodiscard]] std::uint64_t sheds() const noexcept {
    return sheds_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const AdmissionOptions& options() const noexcept { return options_; }

 private:
  /// Closes the current control interval and applies the mode's limit update
  /// if `now` passed the interval deadline.
  void maybe_roll(std::chrono::steady_clock::time_point now);
  void apply_update(std::int64_t min_wait_ns, std::uint64_t samples);
  void publish_limit(std::size_t next) noexcept;

  AdmissionOptions options_;
  std::size_t increase_step_;
  std::atomic<std::size_t> limit_;
  std::atomic<std::uint64_t> sheds_{0};
  std::atomic<std::int64_t> ewma_wait_ns_{0};
  /// Interval deadline as ns-since-epoch of the (possibly virtual) steady
  /// clock; checked lock-free on every admit/observe.
  std::atomic<std::int64_t> deadline_ns_;

  std::mutex mutex_;  ///< guards the interval accumulators below
  std::int64_t interval_min_ns_ = -1;  ///< -1 = no samples this interval
  std::uint64_t interval_samples_ = 0;

  obs::Gauge* limit_gauge_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
};

}  // namespace appstore::net
