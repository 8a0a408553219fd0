// Knobs shared by the event-column persistence formats: ALSG
// (events/live_io.hpp) and the crawl database's AOBS fast path
// (crawler/db_io.hpp). Both stage output through util::AtomicFile and
// validate every header field and the exact payload length before
// allocating, reporting each defect as a typed binary::LoadError.
#pragma once

#include <cstdint>

namespace appstore::chaos {
class FaultInjector;
}  // namespace appstore::chaos

namespace appstore::events {

/// Knobs shared by the persistence entry points.
struct IoOptions {
  /// Optional chaos seam: writers consult it at FaultSite::kFileWrite (keyed
  /// by the destination path) and abort mid-write on kTornWrite. The partial
  /// bytes are confined to the staging file, which is cleaned up on unwind;
  /// the final path is untouched. nullptr disables the seam.
  chaos::FaultInjector* faults = nullptr;
};

/// Validation bounds applied by the binary loaders after decoding.
struct LoadLimits {
  /// Exclusive upper bound on user-column values. Callers that know the
  /// user universe the log belongs to (a store's user count, a live log's
  /// max_users) should pass it: a structurally valid file whose user ids
  /// exceed the bound — one corrupted payload byte is enough — then fails
  /// here as a typed LoadError{kUserRange} instead of blowing up later
  /// inside build_index() or a live-store append. Default: no bound.
  std::uint64_t user_bound = std::uint64_t{1} << 32;

  /// Exclusive upper bound on app-column values, same rationale as
  /// user_bound. Enforced uniformly by the ALSG and AOBS loaders (typed
  /// LoadError{kAppRange}). Default: no bound.
  std::uint64_t app_bound = std::uint64_t{1} << 32;

  /// Magnitude window on day-column values: days outside
  /// [-day_bound, day_bound) are rejected (typed LoadError{kDayRange}).
  /// Small negative days are legitimate — events dated relative to a crawl
  /// origin — so the bound is symmetric. Default: no bound (full int32).
  std::int64_t day_bound = std::int64_t{1} << 31;
};

}  // namespace appstore::events
