// The per-app daily download table store-wide download queries read.
//
// A DownloadTable counts one frontier of a download log into day-major
// 32-bit cells C[d][a]: the downloads of app a on days up to and including
// d, over the days that frontier's rows span. Once built, the downloads of
// every app on any day interval [lo, hi] are two cell reads per app,
// C[hi][a] - C[lo - 1][a], instead of a pass over the rows — the counts a
// scan would produce, exactly, since both are integer counts of the same
// rows. A cell fits 32 bits because row ids do.
//
// A table answers only for the frontier it counted: it remembers the log
// it was built from and that log's row count at the time.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "events/live_log.hpp"

namespace appstore::query {

class DownloadTable {
 public:
  /// Counts every row of `log` (apps below `app_count`) in one pass, then
  /// prefix-sums over days. Returns a table that fits() only when days
  /// spanned x app_count <= 4 x rows, so the cells never outgrow the log's
  /// four 32-bit download columns; a table that does not fit holds no cells
  /// and records only the frontier it was refused at.
  [[nodiscard]] static std::shared_ptr<const DownloadTable> build(
      const events::FrontierSnapshot& log, std::size_t app_count);

  /// True when this table counted exactly the rows of `log`.
  [[nodiscard]] bool counted(const events::FrontierSnapshot& log) const noexcept {
    return log.log() == log_ && log.size() == rows_;
  }
  /// True when `log` is an older frontier of the log this table counted.
  [[nodiscard]] bool newer_than(const events::FrontierSnapshot& log) const noexcept {
    return log.log() == log_ && log.size() < rows_;
  }
  [[nodiscard]] bool fits() const noexcept { return fits_; }

  /// Writes the downloads of each app in `apps` on days [lo, hi] to
  /// counts[app] (sized at least app_count); other entries are untouched.
  void count(std::int64_t lo, std::int64_t hi, std::span<const std::uint32_t> apps,
             std::span<std::uint64_t> counts) const;

 private:
  const events::LiveEventLog* log_ = nullptr;
  std::uint64_t rows_ = 0;
  bool fits_ = false;
  std::int64_t first_day_ = 0;
  std::int64_t days_ = 0;  ///< day rows in cells_
  std::size_t apps_ = 0;
  std::vector<std::uint32_t> cells_;  ///< days_ x apps_, day-major, cumulative
};

}  // namespace appstore::query
