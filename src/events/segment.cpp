#include "events/segment.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <system_error>

#include "util/format.hpp"

namespace appstore::events {

namespace {

constexpr std::uint64_t kPageSize = 4096;

[[nodiscard]] constexpr std::uint64_t page_align(std::uint64_t bytes) noexcept {
  return (bytes + kPageSize - 1) & ~(kPageSize - 1);
}

[[nodiscard]] std::system_error sys_error(const char* what) {
  return std::system_error(errno, std::generic_category(), what);
}

}  // namespace

ColumnArena::ColumnArena(Columns columns, std::uint64_t max_rows, std::uint64_t segment_rows,
                         const std::filesystem::path& backing_file, obs::Registry* metrics)
    : columns_(columns),
      max_rows_(max_rows),
      segment_rows_(segment_rows),
      committed_(metrics != nullptr ? &metrics->counter("live_segments_committed_total")
                                    : nullptr) {
  if (segment_rows == 0 || (segment_rows & (segment_rows - 1)) != 0) {
    throw std::invalid_argument(
        util::format("ColumnArena: segment_rows {} is not a power of two", segment_rows));
  }
  if (max_rows == 0 || max_rows % segment_rows != 0) {
    throw std::invalid_argument(util::format(
        "ColumnArena: max_rows {} is not a multiple of segment_rows {}", max_rows,
        segment_rows));
  }

  // One page-aligned region per enabled column, laid out back to back inside
  // a single reservation. Offsets are fixed at construction; the bases never
  // move, which is what keeps reader spans valid across segment commits.
  struct Layout {
    bool enabled;
    std::uint64_t elem_size;
    std::uint64_t offset = 0;
  };
  Layout layouts[5] = {
      {true, sizeof(std::uint32_t)},                              // user
      {true, sizeof(std::uint32_t)},                              // app
      {has_column(columns, Columns::kDay), sizeof(std::int32_t)},     // day
      {has_column(columns, Columns::kOrdinal), sizeof(std::uint32_t)},  // ordinal
      {has_column(columns, Columns::kRating), sizeof(std::uint8_t)},   // rating
  };
  std::uint64_t offset = 0;
  for (Layout& layout : layouts) {
    if (!layout.enabled) continue;
    layout.offset = offset;
    offset += page_align(max_rows * layout.elem_size);
    bytes_per_row_ += layout.elem_size;
  }
  total_bytes_ = offset;

  int flags = MAP_NORESERVE;
  if (backing_file.empty()) {
    flags |= MAP_PRIVATE | MAP_ANONYMOUS;
  } else {
    fd_ = ::open(backing_file.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0) throw sys_error("ColumnArena: open backing file");
    // Sparse file of the full capacity: blocks materialize only for pages
    // the store actually writes, so reserving 10M users costs nothing.
    if (::ftruncate(fd_, static_cast<off_t>(total_bytes_)) != 0) {
      const auto error = sys_error("ColumnArena: ftruncate backing file");
      ::close(fd_);
      throw error;
    }
    flags |= MAP_SHARED;
  }
  base_ = ::mmap(nullptr, static_cast<std::size_t>(total_bytes_), PROT_READ | PROT_WRITE,
                 flags, fd_, 0);
  if (base_ == MAP_FAILED) {
    const auto error = sys_error("ColumnArena: mmap");
    if (fd_ >= 0) ::close(fd_);
    base_ = nullptr;
    throw error;
  }

  auto* bytes = static_cast<std::byte*>(base_);
  user_ = reinterpret_cast<std::uint32_t*>(bytes + layouts[0].offset);
  app_ = reinterpret_cast<std::uint32_t*>(bytes + layouts[1].offset);
  if (layouts[2].enabled) day_ = reinterpret_cast<std::int32_t*>(bytes + layouts[2].offset);
  if (layouts[3].enabled) {
    ordinal_ = reinterpret_cast<std::uint32_t*>(bytes + layouts[3].offset);
  }
  if (layouts[4].enabled) rating_ = reinterpret_cast<std::uint8_t*>(bytes + layouts[4].offset);
}

ColumnArena::~ColumnArena() {
  if (base_ != nullptr) ::munmap(base_, static_cast<std::size_t>(total_bytes_));
  if (fd_ >= 0) ::close(fd_);
}

void ColumnArena::commit_rows(std::uint64_t row_end) {
  const std::uint64_t want = (row_end + segment_rows_ - 1) / segment_rows_;
  std::uint64_t have = segments_committed_.load(std::memory_order_acquire);
  while (have < want) {
    // CAS-max: whichever writer wins accounts the newly committed segments;
    // losers observe the higher count and retry or exit.
    if (segments_committed_.compare_exchange_weak(have, want, std::memory_order_acq_rel,
                                                  std::memory_order_acquire)) {
      if (committed_ != nullptr) committed_->inc(want - have);
      return;
    }
  }
}

}  // namespace appstore::events
