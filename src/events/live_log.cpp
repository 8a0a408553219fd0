#include "events/live_log.hpp"

#include <limits>
#include <stdexcept>
#include <thread>

#include "par/parallel.hpp"
#include "util/format.hpp"

namespace appstore::events {

LiveEventLog::LiveEventLog(Columns columns, const LiveOptions& options)
    : columns_(columns),
      arena_(columns, options.max_rows, options.segment_rows, options.backing_file,
             options.metrics),
      index_(options.max_users),
      metrics_(options.metrics),
      appended_(options.metrics != nullptr
                    ? &options.metrics->counter("live_events_appended_total")
                    : nullptr) {
  // Rows are referenced as u32 everywhere downstream (ordinals, stream row
  // lists, the query engine's row sets) — same ceiling as the batch log.
  if (options.max_rows > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("LiveEventLog: max_rows must fit in 32 bits");
  }
}

std::uint64_t LiveEventLog::claim(std::uint64_t n) {
  std::uint64_t cur = reserved_.load(std::memory_order_relaxed);
  do {
    if (cur + n > arena_.max_rows()) {
      throw std::length_error(util::format(
          "LiveEventLog: capacity {} rows exhausted (claiming {})", arena_.max_rows(), n));
    }
  } while (!reserved_.compare_exchange_weak(cur, cur + n, std::memory_order_relaxed,
                                            std::memory_order_relaxed));
  return cur;
}

void LiveEventLog::publish(std::uint64_t first, std::uint64_t n) {
  // Chained publication: rows become visible strictly in claim order, so
  // the frontier always delimits a dense prefix. The acquire on the wait
  // load carries the previous writer's release forward — that transitivity
  // is what lets a reader acquire one frontier value and see EVERY earlier
  // writer's plain column stores.
  std::uint64_t spins = 0;
  for (;;) {
    const std::uint64_t cur = frontier_.load(std::memory_order_acquire);
    if (cur == first) break;
    if (++spins % 64 == 0) std::this_thread::yield();
  }
  frontier_.store(first + n, std::memory_order_release);
}

void LiveEventLog::write_row(std::uint64_t row, std::uint32_t user, std::uint32_t app,
                             std::int32_t day, std::uint8_t rating) {
  // Plain stores: the row is claimed by exactly one writer and no reader
  // touches it until the frontier covers it (release/acquire edge there).
  arena_.user()[row] = user;
  arena_.app()[row] = app;
  if (arena_.day() != nullptr) arena_.day()[row] = day;
  if (arena_.ordinal() != nullptr) {
    arena_.ordinal()[row] = static_cast<std::uint32_t>(row);
  }
  if (arena_.rating() != nullptr) arena_.rating()[row] = rating;
  // The posting's ordinal half is the row even when the ordinal column is
  // disabled: that reproduces the batch sort's append-order tie-break.
  index_.append(user, posting_key(arena_.day() != nullptr ? day : 0,
                                  static_cast<std::uint32_t>(row)),
                row);
}

std::uint64_t LiveEventLog::append(std::uint32_t user, std::uint32_t app, std::int32_t day,
                                   std::uint8_t rating) {
  // Every reject happens before claim(): an abandoned claim would wedge the
  // publication chain for all later writers.
  if (user >= index_.max_users()) {
    throw std::out_of_range(util::format("LiveEventLog::append: user {} >= max_users {}",
                                         user, index_.max_users()));
  }
  if (day != 0 && !has_column(columns_, Columns::kDay)) {
    throw std::logic_error("LiveEventLog::append: day column is disabled");
  }
  if (rating != 0 && !has_column(columns_, Columns::kRating)) {
    throw std::logic_error("LiveEventLog::append: rating column is disabled");
  }
  const std::uint64_t row = claim(1);
  arena_.commit_rows(row + 1);
  write_row(row, user, app, day, rating);
  publish(row, 1);
  if (appended_ != nullptr) appended_->inc();
  return row;
}

std::uint64_t LiveEventLog::append_batch(const EventLog& batch, const IngestOptions& options) {
  const auto mask = [](Columns columns) {
    return static_cast<std::uint8_t>(columns) &
           ~static_cast<std::uint8_t>(Columns::kOrdinal);
  };
  if (mask(batch.columns()) != mask(columns_)) {
    throw std::invalid_argument("LiveEventLog::append_batch: column masks differ");
  }
  const std::uint64_t n = batch.size();
  if (n == 0) return frontier();

  // Validate everything before claiming (see append()). A batch may carry
  // an ordinal column for backward compatibility, but the store assigns
  // ordinals (= row ids); provided values are only checked to already BE
  // the rows this batch will occupy, never adopted.
  for (const std::uint32_t user : batch.user()) {
    if (user >= index_.max_users()) {
      throw std::invalid_argument(util::format(
          "LiveEventLog::append_batch: user {} >= max_users {}", user, index_.max_users()));
    }
  }
  if (!batch.ordinal().empty()) {
    const std::uint64_t next = reserved_.load(std::memory_order_relaxed);
    const std::span<const std::uint32_t> ordinals = batch.ordinal();
    for (std::uint64_t i = 0; i < n; ++i) {
      if (ordinals[i] != next + i) {
        throw std::invalid_argument(util::format(
            "LiveEventLog::append_batch: ordinal {} at batch row {} breaks the row "
            "sequence (expected {})",
            ordinals[i], i, next + i));
      }
    }
  }

  const std::uint64_t base = claim(n);
  arena_.commit_rows(base + n);

  const std::span<const std::uint32_t> users = batch.user();
  const std::span<const std::uint32_t> apps = batch.app();
  const std::span<const std::int32_t> days = batch.day();
  const std::span<const std::uint8_t> ratings = batch.rating();
  const auto write_one = [&](std::uint64_t i) {
    write_row(base + i, users[i], apps[i], days.empty() ? 0 : days[i],
              ratings.empty() ? std::uint8_t{0} : ratings[i]);
  };
  if (options.threads == 1 || n < 2) {
    for (std::uint64_t i = 0; i < n; ++i) write_one(i);
  } else {
    // Shard-wise parallel fill of the claimed block. Column cells and
    // ordinals depend only on (base + i), and postings land in the tiered
    // index sorted by key later — so the published state is bit-identical
    // to the serial loop at any thread count.
    const par::Options par_options{.threads = options.threads, .metrics = metrics_};
    par::parallel_for(n, par_options, write_one);
  }

  publish(base, n);
  if (appended_ != nullptr) appended_->inc(n);
  return base;
}

Event LiveEventLog::row(std::uint64_t i) const noexcept {
  Event event;
  event.user = arena_.user()[i];
  event.app = arena_.app()[i];
  event.day = arena_.day() != nullptr ? arena_.day()[i] : 0;
  event.ordinal = arena_.ordinal() != nullptr ? arena_.ordinal()[i]
                                              : static_cast<std::uint32_t>(i);
  event.rating = arena_.rating() != nullptr ? arena_.rating()[i] : std::uint8_t{0};
  return event;
}

// --- FrontierSnapshot --------------------------------------------------------

Columns FrontierSnapshot::columns() const noexcept {
  return log_ != nullptr ? log_->columns() : Columns::kNone;
}

std::span<const std::uint32_t> FrontierSnapshot::user() const noexcept {
  if (log_ == nullptr) return {};
  return {log_->arena_.user(), static_cast<std::size_t>(rows_)};
}

std::span<const std::uint32_t> FrontierSnapshot::app() const noexcept {
  if (log_ == nullptr) return {};
  return {log_->arena_.app(), static_cast<std::size_t>(rows_)};
}

std::span<const std::int32_t> FrontierSnapshot::day() const noexcept {
  if (log_ == nullptr || log_->arena_.day() == nullptr) return {};
  return {log_->arena_.day(), static_cast<std::size_t>(rows_)};
}

std::span<const std::uint32_t> FrontierSnapshot::ordinal() const noexcept {
  if (log_ == nullptr || log_->arena_.ordinal() == nullptr) return {};
  return {log_->arena_.ordinal(), static_cast<std::size_t>(rows_)};
}

std::span<const std::uint8_t> FrontierSnapshot::rating() const noexcept {
  if (log_ == nullptr || log_->arena_.rating() == nullptr) return {};
  return {log_->arena_.rating(), static_cast<std::size_t>(rows_)};
}

Event FrontierSnapshot::row(std::size_t i) const { return log_->row(i); }

std::uint32_t FrontierSnapshot::user_count() const noexcept {
  return log_ != nullptr ? log_->max_users() : 0;
}

LiveStreamView FrontierSnapshot::stream(std::uint32_t user) const {
  if (log_ == nullptr || user >= log_->max_users()) {
    throw std::out_of_range(
        util::format("FrontierSnapshot::stream: user {} >= user count {}", user,
                     log_ == nullptr ? 0 : log_->max_users()));
  }
  std::vector<Posting> postings;
  log_->index_.collect(user, rows_, postings);
  std::vector<std::uint32_t> rows;
  rows.reserve(postings.size());
  for (const Posting& posting : postings) {
    rows.push_back(static_cast<std::uint32_t>(posting.row));
  }
  return LiveStreamView(log_, std::move(rows));
}

std::uint64_t FrontierSnapshot::stream_size(std::uint32_t user) const {
  if (log_ == nullptr || user >= log_->max_users()) {
    throw std::out_of_range(
        util::format("FrontierSnapshot::stream_size: user {} >= user count {}", user,
                     log_ == nullptr ? 0 : log_->max_users()));
  }
  return log_->index_.visible_count(user, rows_);
}

}  // namespace appstore::events
