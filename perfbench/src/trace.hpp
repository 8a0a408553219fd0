// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, request id). The benchmark opens one
// around every call it makes into a layer; spans nest per thread, so a
// span's parent is whatever span the same thread had open when it started.
// Recording appends to a per-thread vector (no lock after a thread's first
// span) and a disabled tracer costs one branch per span. Spans are written
// once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Duration of [start, end) not covered by any of `children` (intervals are
/// clipped to the parent; overlapping children count once).
[[nodiscard]] std::int64_t self_time(std::int64_t start, std::int64_t end,
                                     std::vector<std::pair<std::int64_t, std::int64_t>> children);

struct SpanSummary {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;

  [[nodiscard]] double mean_us() const noexcept {
    return count == 0 ? 0.0 : total_us / static_cast<double>(count);
  }
  [[nodiscard]] double mean_self_us() const noexcept {
    return count == 0 ? 0.0 : self_us / static_cast<double>(count);
  }
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Per-name totals (count, total duration, self time) over every span.
  [[nodiscard]] std::map<std::string, SpanSummary> summarize() const;
  [[nodiscard]] std::uint64_t span_count() const;

  /// Writes every span as CSV (name,request,thread,parent,start_ns,end_ns).
  void write_csv(const std::filesystem::path& path) const;

 private:
  friend class Span;
  struct Record {
    const char* name;
    std::uint64_t request;
    std::uint32_t parent;  ///< index into the same thread's records
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct ThreadSpans {
    std::vector<Record> records;
    std::vector<std::uint32_t> open;  ///< stack of open span indices
  };
  [[nodiscard]] ThreadSpans& local();

  bool enabled_;
  std::uint64_t id_;  ///< process-unique, so a thread's cached buffer never outlives its tracer
  mutable std::mutex mutex_;
  std::deque<ThreadSpans> threads_;  ///< stable addresses; guarded at registration
};

/// RAII span: records [construction, destruction) on the calling thread.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t request);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadSpans* spans_ = nullptr;
  std::uint32_t index_ = 0;
};

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
