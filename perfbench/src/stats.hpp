// Small, dependency-free statistics the benchmark reports with: the
// nearest-rank percentile, the rank/frequency Zipf gate, and an input digest.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank ceil(q * n), clamped to [1, n]. Returns 0 for an empty sample.
[[nodiscard]] double nearest_rank(std::span<const double> sorted, double q);

/// Median of an unsorted sample (nearest-rank q = 0.5 on a sorted copy).
[[nodiscard]] double median(std::vector<double> values);

/// The highest of 0.5, 0.9, 0.99, 0.999, 0.9999 that still has at least ten
/// samples beyond its rank in a sample of size n; 0 when none has.
[[nodiscard]] double highest_supported_quantile(std::size_t n);

/// Pearson correlation of x and y (0 when either has no variance).
[[nodiscard]] double pearson(std::span<const double> x, std::span<const double> y);

/// Pearson correlation of log(rank) against log(frequency) over the distinct
/// keys of `keys`, ranked by descending frequency. A Zipf-shaped key stream
/// reads close to -1.
[[nodiscard]] double rank_frequency_pearson(std::span<const std::uint32_t> keys);

/// The gate every workload with app targets applies before timing.
constexpr double kZipfGate = -0.8;

/// Incremental FNV-1a (64-bit) over everything a workload generates.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) noexcept;
  void text(std::string_view value) noexcept {
    u64(value.size());
    bytes(value.data(), value.size());
  }
  void u64(std::uint64_t value) noexcept { bytes(&value, sizeof value); }
  template <typename T>
  void column(std::span<const T> values) noexcept {
    u64(values.size());
    bytes(values.data(), values.size_bytes());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
