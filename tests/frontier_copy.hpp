// Test helper: a live snapshot materialized as a batch EventLog, so a test
// can compare the live store's streams with the batch log's.
#pragma once

#include <cstdint>
#include <vector>

#include "events/event_log.hpp"
#include "events/live_log.hpp"

namespace appstore::testing_support {

/// The snapshot's rows, column by column, as a batch EventLog.
[[nodiscard]] inline events::EventLog to_event_log(const events::FrontierSnapshot& snapshot) {
  return events::EventLog::from_columns(
      snapshot.columns(),
      std::vector<std::uint32_t>(snapshot.user().begin(), snapshot.user().end()),
      std::vector<std::uint32_t>(snapshot.app().begin(), snapshot.app().end()),
      std::vector<std::int32_t>(snapshot.day().begin(), snapshot.day().end()),
      std::vector<std::uint32_t>(snapshot.ordinal().begin(), snapshot.ordinal().end()),
      std::vector<std::uint8_t>(snapshot.rating().begin(), snapshot.rating().end()));
}

}  // namespace appstore::testing_support
