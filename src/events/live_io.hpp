// Segmented persistence for the live event store.
//
// Layout ("ALSG", shared header helpers in events/binary.hpp):
//
//   magic "ALSG" | endian tag | version 1 | flags = column mask |
//   u64 count (the saved frontier) | u64 segment_rows |
//   then ceil(count / segment_rows) segment records back to back:
//     u64 first_row | u64 rows |
//     user u32[rows] | app u32[rows] | [day i32[rows]] | [rating u8[rows]]
//
// The ordinal column is never serialized even when the mask carries it: in a
// live log the ordinal IS the row index, so the loader reconstructs it —
// 4 bytes/row smaller and one less thing corruption can tear.
//
// Robustness contract (events/binary.hpp, fuzzed by the chaos suite):
// the loader validates the header, the segment geometry (power-of-two
// segment_rows, each record's first_row/rows against the header), the exact
// payload size before any allocation, and every user id against the
// caller's bound — each defect a typed binary::LoadError (kBadSegment and
// kUserRange are new with this format). save_segmented stages through
// util::AtomicFile and honors the chaos torn-write seam.
#pragma once

#include <filesystem>
#include <memory>

#include "events/io.hpp"
#include "events/live_log.hpp"

namespace appstore::events {

/// Writes the snapshot's prefix to `path` in the segmented format, cut into
/// the snapshot's own arena segment size. Write-temp-then-rename; honors the
/// IoOptions torn-write seam.
void save_segmented(const FrontierSnapshot& snapshot, const std::filesystem::path& path,
                    const IoOptions& options = {});

/// Loads a file written by save_segmented into a fresh LiveEventLog shaped
/// by `options` (max_rows is raised to fit the file if needed; the file's
/// segment size only describes the file, not the new arena). Every user id
/// must be below min(options.max_users, limits.user_bound). Throws
/// binary::LoadError for every structural or range defect.
[[nodiscard]] std::unique_ptr<LiveEventLog> load_segmented(const std::filesystem::path& path,
                                                           LiveOptions options = {},
                                                           const LoadLimits& limits = {});

}  // namespace appstore::events
