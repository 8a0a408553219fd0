#include "net/admission.hpp"

#include <algorithm>
#include <cmath>

namespace appstore::net {

namespace {

[[nodiscard]] std::int64_t to_ns(std::chrono::steady_clock::time_point tp) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch())
      .count();
}

}  // namespace

std::string_view to_string(AdmissionMode mode) noexcept {
  switch (mode) {
    case AdmissionMode::kFixed: return "fixed";
    case AdmissionMode::kQueueDelay: return "queue_delay";
  }
  return "?";
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options),
      increase_step_(options.increase > 0
                         ? options.increase
                         : std::max<std::size_t>(1, options.limit_ceiling / 16)),
      limit_(options.limit_ceiling),
      deadline_ns_(to_ns(chaos::now_or_real(options.clock)) + options.interval.count()) {
  options_.min_limit = std::min(std::max<std::size_t>(1, options_.min_limit),
                                std::max<std::size_t>(1, options_.limit_ceiling));
  if (options_.metrics != nullptr) {
    obs::Registry& registry = *options_.metrics;
    registry.describe("admission_limit", "Current admissible queue depth");
    registry.describe("admission_sheds_total",
                      "Connections refused by the adaptive admission limit");
    limit_gauge_ = &registry.gauge("admission_limit");
    shed_counter_ = &registry.counter("admission_sheds_total");
    limit_gauge_->set(static_cast<double>(options_.limit_ceiling));
  }
}

void AdmissionController::publish_limit(std::size_t next) noexcept {
  limit_.store(next, std::memory_order_relaxed);
  if (limit_gauge_ != nullptr) limit_gauge_->set(static_cast<double>(next));
}

AdmissionDecision AdmissionController::admit(std::size_t queue_depth) {
  // kFixed never adapts: no clock read, no interval to roll.
  const bool adaptive = options_.mode != AdmissionMode::kFixed;
  if (adaptive) maybe_roll(chaos::now_or_real(options_.clock));
  if (queue_depth >= options_.limit_ceiling) return AdmissionDecision::kQueueFull;
  if (adaptive && queue_depth >= limit_.load(std::memory_order_relaxed)) {
    sheds_.fetch_add(1, std::memory_order_relaxed);
    if (shed_counter_ != nullptr) shed_counter_->inc();
    return AdmissionDecision::kOverload;
  }
  return AdmissionDecision::kAdmit;
}

void AdmissionController::observe(std::chrono::nanoseconds queue_wait) {
  const std::int64_t wait_ns = std::max<std::int64_t>(0, queue_wait.count());
  // EWMA with alpha 1/8 in integer nanoseconds; a racy lost update only
  // delays smoothing by one sample.
  const std::int64_t ewma = ewma_wait_ns_.load(std::memory_order_relaxed);
  ewma_wait_ns_.store(ewma + (wait_ns - ewma) / 8, std::memory_order_relaxed);
  // Only kQueueDelay's interval roll reads the accumulators.
  if (options_.mode == AdmissionMode::kFixed) return;
  {
    const std::lock_guard lock(mutex_);
    if (interval_min_ns_ < 0 || wait_ns < interval_min_ns_) interval_min_ns_ = wait_ns;
    ++interval_samples_;
  }
  maybe_roll(chaos::now_or_real(options_.clock));
}

void AdmissionController::maybe_roll(std::chrono::steady_clock::time_point now) {
  const std::int64_t now_ns = to_ns(now);
  std::int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (now_ns < deadline) return;
  // One thread wins the roll; late losers see the bumped deadline and leave.
  if (!deadline_ns_.compare_exchange_strong(deadline, now_ns + options_.interval.count(),
                                            std::memory_order_acq_rel)) {
    return;
  }
  std::int64_t min_ns = -1;
  std::uint64_t samples = 0;
  {
    const std::lock_guard lock(mutex_);
    min_ns = interval_min_ns_;
    samples = interval_samples_;
    interval_min_ns_ = -1;
    interval_samples_ = 0;
  }
  apply_update(min_ns, samples);
}

void AdmissionController::apply_update(std::int64_t min_wait_ns, std::uint64_t samples) {
  const std::size_t current = limit_.load(std::memory_order_relaxed);
  const auto grown = [&]() noexcept {
    return std::min(options_.limit_ceiling, current + increase_step_);
  };
  const std::int64_t target_ns = options_.target_delay.count();
  if (samples == 0) {
    // An idle interval carries no congestion signal: recover additively so
    // the limit always returns to the ceiling after load drops.
    publish_limit(grown());
    return;
  }
  // kQueueDelay (kFixed never rolls an interval). CoDel reading: the
  // interval *minimum* above target means a standing queue (every request
  // waited too long, not just an unlucky burst).
  if (min_wait_ns > target_ns) {
    const auto cut = static_cast<std::size_t>(
        std::floor(static_cast<double>(current) * options_.decrease));
    publish_limit(std::max(options_.min_limit, cut));
  } else {
    publish_limit(grown());
  }
}

int AdmissionController::retry_after_seconds() const noexcept {
  const std::int64_t ewma = ewma_wait_ns_.load(std::memory_order_relaxed);
  constexpr std::int64_t kNsPerSecond = 1'000'000'000;
  const std::int64_t whole = (ewma + kNsPerSecond - 1) / kNsPerSecond;  // ceil
  return static_cast<int>(std::clamp<std::int64_t>(whole, 1, 60));
}

}  // namespace appstore::net
