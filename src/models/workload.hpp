// The output of a download-model run.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "events/event_log.hpp"

namespace appstore::models {

/// Aggregate result of simulating every user's downloads.
///
/// `downloads[a]` is the number of downloads of the app with global
/// popularity index a (global rank a+1). When sequences are recorded,
/// `sequences` is a (user, app) EventLog in generation order with its CSR
/// per-user index built, so `sequence_view(u)` is user u's downloads in
/// chronological order without materializing per-user vectors.
struct Workload {
  std::vector<std::uint64_t> downloads;
  /// Per-user download sequences as a columnar log (user/app only — the
  /// append position is the chronological order). Empty unless the model ran
  /// with record_sequences; indexed by the generator when non-empty.
  events::EventLog sequences{events::Columns::kNone};

  [[nodiscard]] std::uint64_t total() const noexcept {
    return std::reduce(downloads.begin(), downloads.end(), std::uint64_t{0});
  }

  /// Download counts as doubles in app-index order (NOT re-sorted): the
  /// comparison against measured data in Fig. 8 matches app identity — both
  /// curves are indexed by the app's true global popularity rank.
  [[nodiscard]] std::vector<double> counts() const {
    std::vector<double> result;
    result.assign(downloads.begin(), downloads.end());
    return result;
  }

  /// Download counts sorted descending (empirical rank–download curve).
  [[nodiscard]] std::vector<double> by_rank() const;

  /// Zero-copy chronological view of user u's sequence (requires recorded
  /// sequences; throws std::logic_error otherwise).
  [[nodiscard]] events::UserStreamView sequence_view(std::uint32_t user) const {
    return sequences.stream(user);
  }
};

}  // namespace appstore::models
