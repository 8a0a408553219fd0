// Low-level versioned-header + raw-column binary file helpers.
//
// Shared by the live store's segmented format (events/live_io.hpp) and the
// crawl database fast path (crawler/db_io.hpp). A file is:
//
//   4-byte magic | u32 endian tag (0x01020304) | u32 version | u32 flags |
//   u64 row count | raw columns, each `count * sizeof(T)` bytes
//
// Columns are written in the writer's native byte order; the endian tag lets
// a reader on a different-endian host fail loudly instead of decoding
// garbage. All fixed-width header fields are also native-order (covered by
// the same tag).
//
// Robustness contract (docs/robustness.md): every malformed input — wrong
// magic, foreign endianness, unsupported version, unknown flag bits, a row
// count that disagrees with the file size, truncation anywhere — surfaces as
// a typed LoadError. A corrupted count can never trigger a huge allocation
// or a silently short column: loaders validate the payload size against the
// actual file before allocating (expect_payload).
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace appstore::events::binary {

inline constexpr std::uint32_t kEndianTag = 0x01020304;

/// What exactly a loader rejected (mirrors the header fields + payload).
enum class LoadErrorKind : std::uint8_t {
  kOpen = 0,         ///< file missing or unreadable
  kBadMagic,         ///< first 4 bytes are not the expected magic
  kEndianness,       ///< written on a different-endian host
  kBadVersion,       ///< version 0 or newer than this reader
  kBadFlags,         ///< flag bits this reader does not know
  kTruncated,        ///< EOF inside a header field or column
  kLengthMismatch,   ///< row count disagrees with the file size
  kUserRange,        ///< a user column value is outside the caller's bound
  kBadSegment,       ///< a segment header disagrees with the file header
  kAppRange,         ///< an app column value is outside the caller's bound
  kDayRange,         ///< a day column value is outside the caller's bound
  kBadChecksum,      ///< a record checksum does not match its payload
  kBadSequence,      ///< a sequence number is not the expected successor
};

[[nodiscard]] inline std::string_view to_string(LoadErrorKind kind) noexcept {
  switch (kind) {
    case LoadErrorKind::kOpen: return "open";
    case LoadErrorKind::kBadMagic: return "bad-magic";
    case LoadErrorKind::kEndianness: return "endianness";
    case LoadErrorKind::kBadVersion: return "bad-version";
    case LoadErrorKind::kBadFlags: return "bad-flags";
    case LoadErrorKind::kTruncated: return "truncated";
    case LoadErrorKind::kLengthMismatch: return "length-mismatch";
    case LoadErrorKind::kUserRange: return "user-range";
    case LoadErrorKind::kBadSegment: return "bad-segment";
    case LoadErrorKind::kAppRange: return "app-range";
    case LoadErrorKind::kDayRange: return "day-range";
    case LoadErrorKind::kBadChecksum: return "bad-checksum";
    case LoadErrorKind::kBadSequence: return "bad-sequence";
  }
  return "unknown";
}

/// Typed load failure: every structural defect a binary loader detects.
/// Derives from std::runtime_error so pre-existing catch sites keep working.
class LoadError : public std::runtime_error {
 public:
  LoadError(LoadErrorKind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  [[nodiscard]] LoadErrorKind kind() const noexcept { return kind_; }

 private:
  LoadErrorKind kind_;
};

struct Header {
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::uint64_t count = 0;
};

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
[[nodiscard]] T read_pod(std::istream& in, const char* what) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) {
    throw LoadError(LoadErrorKind::kTruncated,
                    std::string("binary read: truncated ") + what);
  }
  return value;
}

/// Writes the common header. `magic` must be exactly 4 characters.
inline void write_header(std::ostream& out, std::string_view magic, std::uint32_t version,
                         std::uint32_t flags, std::uint64_t count) {
  if (magic.size() != 4) throw std::logic_error("binary write: magic must be 4 bytes");
  out.write(magic.data(), 4);
  write_pod(out, kEndianTag);
  write_pod(out, version);
  write_pod(out, flags);
  write_pod(out, count);
}

/// Reads and validates the header; throws LoadError on a magic, endianness,
/// or version mismatch (flag validation is the caller's: only it knows the
/// format's legal mask).
[[nodiscard]] inline Header read_header(std::istream& in, std::string_view magic,
                                        std::uint32_t max_version) {
  char got[4] = {};
  in.read(got, 4);
  if (!in || std::memcmp(got, magic.data(), 4) != 0) {
    throw LoadError(LoadErrorKind::kBadMagic,
                    std::string("binary read: bad magic, expected '") + std::string(magic) +
                        "'");
  }
  if (read_pod<std::uint32_t>(in, "endian tag") != kEndianTag) {
    throw LoadError(LoadErrorKind::kEndianness, "binary read: endianness mismatch");
  }
  Header header;
  header.version = read_pod<std::uint32_t>(in, "version");
  if (header.version == 0 || header.version > max_version) {
    throw LoadError(LoadErrorKind::kBadVersion,
                    "binary read: unsupported version " + std::to_string(header.version));
  }
  header.flags = read_pod<std::uint32_t>(in, "flags");
  header.count = read_pod<std::uint64_t>(in, "count");
  return header;
}

/// Validates that exactly `count * bytes_per_row` payload bytes follow the
/// current stream position — before any column is allocated, so a corrupted
/// count turns into a typed error instead of a giant allocation (or a torn
/// file into a short read). Also rejects trailing garbage.
inline void expect_payload(std::istream& in, std::uint64_t count,
                           std::uint64_t bytes_per_row, const char* what) {
  if (bytes_per_row != 0 &&
      count > std::numeric_limits<std::uint64_t>::max() / bytes_per_row) {
    throw LoadError(LoadErrorKind::kLengthMismatch,
                    std::string("binary read: absurd row count in ") + what);
  }
  const std::uint64_t expected = count * bytes_per_row;
  const auto position = in.tellg();
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(position);
  if (position < 0 || end < position ||
      static_cast<std::uint64_t>(end - position) != expected) {
    throw LoadError(
        LoadErrorKind::kLengthMismatch,
        std::string("binary read: payload size mismatch in ") + what + " (expected " +
            std::to_string(expected) + " bytes, have " +
            std::to_string(end < position ? 0 : static_cast<std::uint64_t>(end - position)) +
            ")");
  }
}

template <typename T>
void write_column(std::ostream& out, std::span<const T> column) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(column.data()),
            static_cast<std::streamsize>(column.size() * sizeof(T)));
}

/// Validates that every value of a freshly-loaded user column is below
/// `user_bound` (exclusive). A file whose payload decoded fine can still
/// carry user ids beyond what the caller will index (a corrupted byte in the
/// user column, or a file from a bigger deployment); without this check the
/// defect only surfaces later, as an untyped build_index/append failure.
inline void check_user_bound(std::span<const std::uint32_t> users, std::uint64_t user_bound,
                             const char* what) {
  for (const std::uint32_t user : users) {
    if (user >= user_bound) {
      throw LoadError(LoadErrorKind::kUserRange,
                      std::string("binary read: user ") + std::to_string(user) +
                          " >= bound " + std::to_string(user_bound) + " in " + what);
    }
  }
}

/// Like check_user_bound, but for the app column: every id must be below
/// `app_bound` (exclusive). Used by the ALSG and AOBS loaders when the
/// caller knows the app universe (a store's app count).
inline void check_app_bound(std::span<const std::uint32_t> apps, std::uint64_t app_bound,
                            const char* what) {
  for (const std::uint32_t app : apps) {
    if (app >= app_bound) {
      throw LoadError(LoadErrorKind::kAppRange,
                      std::string("binary read: app ") + std::to_string(app) + " >= bound " +
                          std::to_string(app_bound) + " in " + what);
    }
  }
}

/// Day columns are signed and the domain uses small negatives (events dated
/// relative to a crawl origin, e.g. first_seen before day 0), so the bound
/// is a magnitude window: a valid file carries only days in
/// [-day_bound, day_bound). A wildly out-of-window day — flipped high bits —
/// would otherwise surface as an untyped out-of-range crash in a snapshot
/// or replay.
inline void check_day_bound(std::span<const std::int32_t> days, std::int64_t day_bound,
                            const char* what) {
  for (const std::int32_t day : days) {
    const auto wide = static_cast<std::int64_t>(day);
    if (wide < -day_bound || wide >= day_bound) {
      throw LoadError(LoadErrorKind::kDayRange,
                      std::string("binary read: day ") + std::to_string(day) +
                          " outside [-" + std::to_string(day_bound) + ", " +
                          std::to_string(day_bound) + ") in " + what);
    }
  }
}

/// FNV-1a 64-bit over a byte range. Used as the per-record checksum in the
/// WAL (events/wal.hpp) and the manifest: cheap, dependency-free, and good
/// enough to distinguish a torn tail from a committed record — the WAL
/// threat model is a crash mid-write, not an adversary.
[[nodiscard]] inline std::uint64_t fnv1a64(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

template <typename T>
[[nodiscard]] std::vector<T> read_column(std::istream& in, std::uint64_t count,
                                         const char* what) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<T> column(static_cast<std::size_t>(count));
  in.read(reinterpret_cast<char*>(column.data()),
          static_cast<std::streamsize>(column.size() * sizeof(T)));
  if (!in) {
    throw LoadError(LoadErrorKind::kTruncated,
                    std::string("binary read: truncated column ") + what);
  }
  return column;
}

}  // namespace appstore::events::binary
