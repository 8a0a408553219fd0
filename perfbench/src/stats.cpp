#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

double nearest_rank(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return nearest_rank(values, 0.5);
}

double highest_supported_quantile(std::size_t n) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (n >= rank + 10) best = q;
  }
  return best;
}

double pearson(std::span<const double> x, std::span<const double> y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n == 0) return 0.0;
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_x += x[i];
    mean_y += y[i];
  }
  mean_x /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);
  double cov = 0.0;
  double var_x = 0.0;
  double var_y = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cov += (x[i] - mean_x) * (y[i] - mean_y);
    var_x += (x[i] - mean_x) * (x[i] - mean_x);
    var_y += (y[i] - mean_y) * (y[i] - mean_y);
  }
  const double denominator = std::sqrt(var_x * var_y);
  return denominator > 0.0 ? cov / denominator : 0.0;
}

double rank_frequency_pearson(std::span<const std::uint32_t> keys) {
  std::unordered_map<std::uint32_t, std::uint64_t> counts;
  for (const std::uint32_t key : keys) ++counts[key];
  std::vector<std::uint64_t> frequencies;
  frequencies.reserve(counts.size());
  for (const auto& [key, count] : counts) frequencies.push_back(count);
  std::sort(frequencies.begin(), frequencies.end(), std::greater<>());
  std::vector<double> log_rank(frequencies.size());
  std::vector<double> log_frequency(frequencies.size());
  for (std::size_t i = 0; i < frequencies.size(); ++i) {
    log_rank[i] = std::log(static_cast<double>(i + 1));
    log_frequency[i] = std::log(static_cast<double>(frequencies[i]));
  }
  return pearson(log_rank, log_frequency);
}

void Digest::bytes(const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= p[i];
    state_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(state_));
  return buffer;
}

}  // namespace perfbench
