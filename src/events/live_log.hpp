// LiveEventLog: the ingest-while-serving event store.
//
// The batch EventLog (event_log.hpp) rebuilds its CSR per-user index after
// every ingest, so analytics stall while the crawler appends. LiveEventLog
// removes the stall with three netplay-logstore ideas:
//
//   1. Append-only segmented columns (segment.hpp). Rows are claimed by a
//      CAS bump pointer (`reserved_`); the columns live in one contiguous
//      virtual reservation committed a fixed-size segment at a time, so
//      column spans never move and reads stay zero-copy.
//   2. A tiered per-user index (tiered_index.hpp) that writers extend
//      lock-free as they append — no rebuild, ever.
//   3. An atomic read frontier. A writer that claimed rows [r, r+n) writes
//      its columns and postings, then waits until frontier == r and
//      release-stores r+n. Readers acquire-load the frontier once
//      (snapshot()) and touch only rows below it. The release/acquire chain
//      through the frontier is the ONLY synchronization readers need: it
//      makes every plain column write and every relaxed posting store for
//      rows < frontier visible. Rows publish strictly in claim order, so a
//      snapshot is always a dense prefix — byte-identical to a serial
//      replay of the same rows, at any writer/reader thread count.
//
// FrontierSnapshot mirrors EventLog's read surface (size/columns/spans/
// row/stream), so the query planner, serialization, and the service consume
// either store through the same idioms. stream(u) materializes the user's
// row list from the tiered index, sorted by (day, ordinal, row) — exactly
// the batch CSR order.
//
// Ordinals are assigned by the store: row index == ordinal (the claim order
// IS the record order). This is what the batch path produced for every
// market log, and it is what makes concurrent ingest deterministic — a
// batch's rows get the same ordinals no matter how many threads wrote them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "events/event_log.hpp"
#include "events/segment.hpp"
#include "events/tiered_index.hpp"
#include "obs/registry.hpp"

namespace appstore::events {

/// Shape of a LiveEventLog. All values are capacities, not costs: the column
/// reservation is virtual (MAP_NORESERVE) and the index tiers are allocated
/// on first touch, so a default-shaped store holding ten events is tiny.
struct LiveOptions {
  /// Row capacity of the virtual reservation (columns never move, so this
  /// is fixed at construction). Appends past it throw std::length_error.
  std::uint64_t max_rows = 1ull << 26;
  /// Rows per segment — the lazy-commit granularity. Power of two dividing
  /// max_rows.
  std::uint64_t segment_rows = 1ull << 16;
  /// User-id key space of the tiered index (also what FrontierSnapshot
  /// reports as user_count()). Appends for users >= this throw.
  std::uint32_t max_users = 1u << 22;
  /// Non-empty: back the columns with this sparse file (mmap MAP_SHARED) so
  /// the store streams from the page cache instead of anonymous RAM.
  std::filesystem::path backing_file{};
  /// Optional metrics: live_events_appended_total, live_segments_committed_total.
  obs::Registry* metrics = nullptr;
};

/// Knobs for bulk ingest.
struct IngestOptions {
  /// Writer threads for one batch; 0 = hardware concurrency. The resulting
  /// store state is bit-identical at every value.
  std::size_t threads = 1;
};

class LiveEventLog;

/// One user's chronological stream out of a frontier snapshot. Unlike the
/// 16-byte CSR UserStreamView this owns its row list (the tiered index has
/// no contiguous per-user array to point into), but the interface matches.
class LiveStreamView {
 public:
  LiveStreamView() = default;

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }

  /// i-th event in chronological (day, ordinal) order.
  [[nodiscard]] Event operator[](std::size_t i) const;

  /// Row index into the underlying log of the i-th chronological event.
  [[nodiscard]] std::uint32_t event_index(std::size_t i) const { return rows_[i]; }

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Event;
    using difference_type = std::ptrdiff_t;
    using pointer = const Event*;
    using reference = Event;

    iterator() = default;
    iterator(const LiveStreamView* view, std::size_t i) : view_(view), i_(i) {}
    [[nodiscard]] Event operator*() const { return (*view_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++i_;
      return copy;
    }
    [[nodiscard]] bool operator==(const iterator& other) const noexcept {
      return i_ == other.i_;
    }

   private:
    const LiveStreamView* view_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] iterator begin() const noexcept { return iterator(this, 0); }
  [[nodiscard]] iterator end() const noexcept { return iterator(this, rows_.size()); }

 private:
  friend class FrontierSnapshot;
  LiveStreamView(const LiveEventLog* log, std::vector<std::uint32_t> rows)
      : log_(log), rows_(std::move(rows)) {}

  const LiveEventLog* log_ = nullptr;
  std::vector<std::uint32_t> rows_;
};

/// A consistent read view: the log's dense prefix [0, frontier) captured at
/// construction. Copyable 16-byte value; spans handed out stay valid for the
/// log's lifetime (the arena never moves), so a snapshot outliving the
/// expression that produced it is fine. Mirrors EventLog's read API.
class FrontierSnapshot {
 public:
  FrontierSnapshot() = default;

  [[nodiscard]] Columns columns() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return static_cast<std::size_t>(rows_); }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }
  /// The captured frontier — also the log's ingest epoch at capture time.
  [[nodiscard]] std::uint64_t frontier() const noexcept { return rows_; }

  // --- zero-copy column views (empty when the column is disabled) ----------

  [[nodiscard]] std::span<const std::uint32_t> user() const noexcept;
  [[nodiscard]] std::span<const std::uint32_t> app() const noexcept;
  [[nodiscard]] std::span<const std::int32_t> day() const noexcept;
  [[nodiscard]] std::span<const std::uint32_t> ordinal() const noexcept;
  [[nodiscard]] std::span<const std::uint8_t> rating() const noexcept;

  /// Row `i` with disabled columns defaulted (ordinal default = i).
  [[nodiscard]] Event row(std::size_t i) const;

  class row_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Event;
    using difference_type = std::ptrdiff_t;
    using pointer = const Event*;
    using reference = Event;

    row_iterator() = default;
    row_iterator(const FrontierSnapshot* snapshot, std::size_t i)
        : snapshot_(snapshot), i_(i) {}
    [[nodiscard]] Event operator*() const { return snapshot_->row(i_); }
    row_iterator& operator++() {
      ++i_;
      return *this;
    }
    row_iterator operator++(int) {
      row_iterator copy = *this;
      ++i_;
      return copy;
    }
    [[nodiscard]] bool operator==(const row_iterator& other) const noexcept {
      return i_ == other.i_;
    }

   private:
    const FrontierSnapshot* snapshot_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] row_iterator begin() const noexcept { return row_iterator(this, 0); }
  [[nodiscard]] row_iterator end() const noexcept { return row_iterator(this, size()); }

  // --- per-user streams (always available — no build step) -----------------

  /// The live store is always indexed; kept for planner/API parity with
  /// EventLog.
  [[nodiscard]] bool indexed() const noexcept { return log_ != nullptr; }
  /// User-id key space of the index (LiveOptions::max_users).
  [[nodiscard]] std::uint32_t user_count() const noexcept;

  /// User u's chronological stream within this snapshot. Throws
  /// std::out_of_range for u >= user_count().
  [[nodiscard]] LiveStreamView stream(std::uint32_t user) const;
  /// stream(u).size() without materializing the row list.
  [[nodiscard]] std::uint64_t stream_size(std::uint32_t user) const;

  [[nodiscard]] const LiveEventLog* log() const noexcept { return log_; }

 private:
  friend class LiveEventLog;
  FrontierSnapshot(const LiveEventLog* log, std::uint64_t rows) : log_(log), rows_(rows) {}

  const LiveEventLog* log_ = nullptr;
  std::uint64_t rows_ = 0;
};

class LiveEventLog {
 public:
  explicit LiveEventLog(Columns columns, const LiveOptions& options = {});

  LiveEventLog(const LiveEventLog&) = delete;
  LiveEventLog& operator=(const LiveEventLog&) = delete;

  [[nodiscard]] Columns columns() const noexcept { return columns_; }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return arena_.max_rows(); }
  [[nodiscard]] std::uint32_t max_users() const noexcept { return index_.max_users(); }
  [[nodiscard]] const ColumnArena& arena() const noexcept { return arena_; }

  /// Published rows — the epoch readers snapshot. Acquire: everything below
  /// the returned value is visible to the calling thread.
  [[nodiscard]] std::uint64_t frontier() const noexcept {
    return frontier_.load(std::memory_order_acquire);
  }

  /// Captures the current frontier as a consistent read view.
  [[nodiscard]] FrontierSnapshot snapshot() const noexcept {
    return FrontierSnapshot(this, frontier());
  }

  /// Captures a specific published prefix: the first min(rows, frontier())
  /// rows. Lets a reader pin an exact epoch (say, "through day N") even
  /// while writers race past it.
  [[nodiscard]] FrontierSnapshot snapshot_at(std::uint64_t rows) const noexcept {
    return FrontierSnapshot(this, std::min(rows, frontier()));
  }

  // --- writers (lock-free; any thread) -------------------------------------

  /// Appends one event; the row index doubles as its ordinal when the
  /// ordinal column is enabled. Returns the row. Throws std::length_error at
  /// capacity, std::out_of_range for user >= max_users, std::logic_error for
  /// a nonzero value in a disabled column — all *before* claiming the row,
  /// so a throwing call never wedges the publication chain.
  std::uint64_t append(std::uint32_t user, std::uint32_t app, std::int32_t day = 0,
                       std::uint8_t rating = 0);

  /// Appends all rows of `batch` as one atomically-published block: readers
  /// see none or all of it. The batch must carry exactly this log's columns
  /// except ordinal, which the store assigns (row index) — a batch-provided
  /// ordinal column is rejected. With options.threads > 1 the rows are
  /// written shard-wise in parallel; the resulting store state is
  /// bit-identical to the serial ingest of the same batch. Returns the first
  /// row of the block.
  std::uint64_t append_batch(const EventLog& batch, const IngestOptions& options = {});

  // --- readers --------------------------------------------------------------

  /// Row `i`, which must be below a frontier the caller has observed.
  [[nodiscard]] Event row(std::uint64_t i) const noexcept;

  /// Committed column + index bytes (the reservation is virtual; this is
  /// what the store can actually touch).
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return arena_.bytes_committed() + index_.bytes();
  }

  [[nodiscard]] const TieredUserIndex& index() const noexcept { return index_; }

 private:
  friend class FrontierSnapshot;

  /// Claims rows [result, result + n). CAS loop (not fetch_add) so capacity
  /// overflow throws without claiming — an abandoned claim would stall the
  /// publication chain forever.
  [[nodiscard]] std::uint64_t claim(std::uint64_t n);

  /// Publishes rows [first, first + n): waits for frontier == first, then
  /// release-stores first + n. Per-row writes must be complete.
  void publish(std::uint64_t first, std::uint64_t n);

  /// Writes one claimed row's columns and posting (no publication).
  void write_row(std::uint64_t row, std::uint32_t user, std::uint32_t app, std::int32_t day,
                 std::uint8_t rating);

  Columns columns_;
  ColumnArena arena_;
  TieredUserIndex index_;
  obs::Registry* metrics_ = nullptr;  ///< handed to par::parallel_for
  obs::Counter* appended_ = nullptr;  ///< live_events_appended_total

  std::atomic<std::uint64_t> reserved_{0};
  std::atomic<std::uint64_t> frontier_{0};
};

inline Event LiveStreamView::operator[](std::size_t i) const {
  return log_->row(rows_[i]);
}

}  // namespace appstore::events
