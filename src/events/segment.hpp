// Segmented column arena: the storage layer under LiveEventLog.
//
// Each enabled column lives in ONE contiguous virtual reservation sized for
// the store's whole capacity (`max_rows`), created with mmap(MAP_NORESERVE)
// — anonymous by default, or backed by a sparse file so a 10M-user store
// streams from the page cache instead of living in RAM. Physical memory is
// committed lazily, a fixed-size segment (`segment_rows` rows) at a time:
// writers that cross into a new segment race a CAS on the committed-segment
// counter, and the winner accounts the commit (the kernel faults the pages
// in on first touch — commit here means accounting + metrics, the address
// range itself never moves).
//
// Keeping every segment inside one reservation is the trick that lets the
// live store keep EventLog's zero-copy read surface: a std::span over
// [0, frontier) stays valid forever, across every future segment commit,
// because column bases are immutable for the arena's lifetime. Readers
// never look past the frontier (live_log.hpp), so the uncommitted tail is
// never touched.
//
// The arena knows nothing about synchronization beyond the segment counter;
// the happens-before edge that makes plain column writes visible to readers
// is the LiveEventLog frontier (see live_log.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>

#include "events/event_log.hpp"
#include "obs/registry.hpp"

namespace appstore::events {

class ColumnArena {
 public:
  /// Reserves virtual space for `max_rows` rows of the enabled columns.
  /// `segment_rows` must be a nonzero power of two and divide `max_rows`.
  /// A non-empty `backing_file` maps the columns MAP_SHARED over a sparse
  /// file of the full capacity (created/truncated here) instead of
  /// anonymous memory. Throws std::system_error on mmap/open failure,
  /// std::invalid_argument on a bad shape.
  ColumnArena(Columns columns, std::uint64_t max_rows, std::uint64_t segment_rows,
              const std::filesystem::path& backing_file, obs::Registry* metrics);
  ~ColumnArena();

  ColumnArena(const ColumnArena&) = delete;
  ColumnArena& operator=(const ColumnArena&) = delete;

  [[nodiscard]] Columns columns() const noexcept { return columns_; }
  [[nodiscard]] std::uint64_t max_rows() const noexcept { return max_rows_; }
  [[nodiscard]] std::uint64_t segment_rows() const noexcept { return segment_rows_; }
  [[nodiscard]] bool file_backed() const noexcept { return fd_ >= 0; }

  // --- column bases (immutable; nullptr when the column is disabled) -------

  [[nodiscard]] std::uint32_t* user() const noexcept { return user_; }
  [[nodiscard]] std::uint32_t* app() const noexcept { return app_; }
  [[nodiscard]] std::int32_t* day() const noexcept { return day_; }
  [[nodiscard]] std::uint32_t* ordinal() const noexcept { return ordinal_; }
  [[nodiscard]] std::uint8_t* rating() const noexcept { return rating_; }

  // --- segment accounting ---------------------------------------------------

  /// Ensures every segment covering rows [0, row_end) is committed. Lock-free
  /// CAS-max on the committed-segment counter; safe from any writer thread.
  void commit_rows(std::uint64_t row_end);

  [[nodiscard]] std::uint64_t segments_committed() const noexcept {
    return segments_committed_.load(std::memory_order_acquire);
  }

  /// Bytes per row across the enabled columns.
  [[nodiscard]] std::uint64_t bytes_per_row() const noexcept { return bytes_per_row_; }
  /// Virtual bytes reserved for the whole capacity.
  [[nodiscard]] std::uint64_t bytes_reserved() const noexcept { return total_bytes_; }
  /// Bytes covered by committed segments (the RAM/disk the store can touch).
  [[nodiscard]] std::uint64_t bytes_committed() const noexcept {
    return segments_committed() * segment_rows_ * bytes_per_row_;
  }

 private:
  Columns columns_;
  std::uint64_t max_rows_;
  std::uint64_t segment_rows_;
  std::uint64_t bytes_per_row_ = 0;
  std::uint64_t total_bytes_ = 0;
  void* base_ = nullptr;
  int fd_ = -1;

  std::uint32_t* user_ = nullptr;
  std::uint32_t* app_ = nullptr;
  std::int32_t* day_ = nullptr;
  std::uint32_t* ordinal_ = nullptr;
  std::uint8_t* rating_ = nullptr;

  std::atomic<std::uint64_t> segments_committed_{0};
  obs::Counter* committed_ = nullptr;  ///< live_segments_committed_total
};

}  // namespace appstore::events
