#include "query/download_table.hpp"

#include <algorithm>

namespace appstore::query {

std::shared_ptr<const DownloadTable> DownloadTable::build(const events::FrontierSnapshot& log,
                                                          std::size_t app_count) {
  auto table = std::make_shared<DownloadTable>();
  table->log_ = log.log();
  table->rows_ = log.size();
  table->apps_ = app_count;
  const std::span<const std::uint32_t> apps = log.app();
  // A disabled day column reads 0 on every row, as it does for a scan.
  const std::span<const std::int32_t> days = log.day();
  std::int64_t last_day = 0;
  if (!days.empty() && !log.empty()) {
    const auto [low, high] = std::minmax_element(days.begin(), days.end());
    table->first_day_ = *low;
    last_day = *high;
  }
  table->days_ = log.empty() ? 0 : last_day - table->first_day_ + 1;
  const auto cells = static_cast<std::uint64_t>(table->days_) * app_count;
  table->fits_ = cells <= 4 * static_cast<std::uint64_t>(log.size());
  if (!table->fits_) return table;

  table->cells_.assign(cells, 0);
  std::uint32_t* const base = table->cells_.data();
  for (std::size_t row = 0; row < log.size(); ++row) {
    const std::int64_t day = days.empty() ? 0 : days[row];
    ++base[static_cast<std::size_t>(day - table->first_day_) * app_count + apps[row]];
  }
  for (std::int64_t day = 1; day < table->days_; ++day) {
    const std::uint32_t* previous = base + static_cast<std::size_t>(day - 1) * app_count;
    std::uint32_t* current = base + static_cast<std::size_t>(day) * app_count;
    for (std::size_t app = 0; app < app_count; ++app) current[app] += previous[app];
  }
  return table;
}

void DownloadTable::count(std::int64_t lo, std::int64_t hi, std::span<const std::uint32_t> apps,
                          std::span<std::uint64_t> counts) const {
  lo = std::max(lo, first_day_);
  hi = std::min(hi, first_day_ + days_ - 1);
  if (lo > hi) {
    for (const std::uint32_t app : apps) counts[app] = 0;
    return;
  }
  const std::uint32_t* upper = cells_.data() + static_cast<std::size_t>(hi - first_day_) * apps_;
  if (lo == first_day_) {
    for (const std::uint32_t app : apps) counts[app] = upper[app];
    return;
  }
  const std::uint32_t* lower =
      cells_.data() + static_cast<std::size_t>(lo - 1 - first_day_) * apps_;
  for (const std::uint32_t app : apps) counts[app] = upper[app] - lower[app];
}

}  // namespace appstore::query
