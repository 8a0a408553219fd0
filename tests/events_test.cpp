// Tests for the columnar event-log spine (src/events): SoA storage,
// optional-column masks, the CSR per-user index (chronological invariant,
// thread-count determinism), and agreement between zero-copy CSR views and
// the legacy materializing per-user streams on a seeded synthetic store.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "events/event_log.hpp"
#include "frontier_copy.hpp"
#include "market/store.hpp"
#include "obs/registry.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace appstore {
namespace {

using events::BuildOptions;
using events::Columns;
using events::Event;
using events::EventLog;

// ---- construction and columns ------------------------------------------------

TEST(EventLog, DefaultCarriesFullMarketRecord) {
  EventLog log;
  EXPECT_TRUE(has_column(log.columns(), Columns::kDay));
  EXPECT_TRUE(has_column(log.columns(), Columns::kOrdinal));
  EXPECT_TRUE(has_column(log.columns(), Columns::kRating));
  EXPECT_TRUE(log.empty());
}

TEST(EventLog, DisabledColumnsReadAsDefaults) {
  EventLog log(Columns::kNone);
  log.append(3, 7);
  log.append(1, 2);
  EXPECT_TRUE(log.day().empty());
  EXPECT_TRUE(log.ordinal().empty());
  EXPECT_TRUE(log.rating().empty());
  const Event first = log.row(0);
  EXPECT_EQ(first.user, 3u);
  EXPECT_EQ(first.app, 7u);
  EXPECT_EQ(first.day, 0);
  EXPECT_EQ(first.ordinal, 0u);  // ordinal defaults to the row index
  EXPECT_EQ(first.rating, 0u);
  EXPECT_EQ(log.row(1).ordinal, 1u);
}

TEST(EventLog, AppendRejectsValuesForDisabledColumns) {
  EventLog log(Columns::kDay);
  log.append(0, 0, 5);  // day enabled: fine
  EXPECT_THROW(log.append(0, 0, 0, /*ordinal=*/1), std::logic_error);
  EXPECT_THROW(log.append(0, 0, 0, 0, /*rating=*/3), std::logic_error);
}

TEST(EventLog, FromColumnsValidatesShape) {
  // Enabled column with mismatched length.
  EXPECT_THROW((void)EventLog::from_columns(Columns::kDay, {0, 1}, {2, 3}, {4}),
               std::invalid_argument);
  // Disabled column passed non-empty.
  EXPECT_THROW((void)EventLog::from_columns(Columns::kNone, {0}, {1}, {2}),
               std::invalid_argument);
  const auto log = EventLog::from_columns(Columns::kDay, {0, 1}, {2, 3}, {4, 5});
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.day()[1], 5);
}

TEST(EventLog, BulkAppendRequiresMatchingMask) {
  EventLog a(Columns::kDay);
  EventLog b(Columns::kNone);
  b.append(0, 0);
  EXPECT_THROW(a.append(b), std::invalid_argument);
  EventLog c(Columns::kDay);
  c.append(1, 2, 3);
  a.append(c);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.day()[0], 3);
}

// ---- CSR index ---------------------------------------------------------------

TEST(EventLog, IndexGroupsByUserChronologically) {
  EventLog log(Columns::kDay | Columns::kOrdinal);
  // User 1's events appended out of day order; user 0 interleaved.
  log.append(1, 10, /*day=*/5, /*ordinal=*/0);
  log.append(0, 20, 1, 1);
  log.append(1, 11, 2, 2);
  log.append(1, 12, 5, 3);
  log.build_index(3);

  ASSERT_TRUE(log.indexed());
  EXPECT_EQ(log.user_count(), 3u);
  const auto stream1 = log.stream(1);
  ASSERT_EQ(stream1.size(), 3u);
  EXPECT_EQ(stream1[0].app, 11u);  // day 2 first
  EXPECT_EQ(stream1[1].app, 10u);  // day 5, ordinal 0 before ordinal 3
  EXPECT_EQ(stream1[2].app, 12u);
  EXPECT_EQ(log.stream(0).size(), 1u);
  EXPECT_TRUE(log.stream(2).empty());  // user with no events: empty view
  EXPECT_THROW((void)log.stream(3), std::out_of_range);
}

TEST(EventLog, IndexRejectsOutOfRangeUser) {
  EventLog log(Columns::kNone);
  log.append(5, 0);
  EXPECT_THROW(log.build_index(5), std::invalid_argument);
}

TEST(EventLog, StreamWithoutIndexThrows) {
  EventLog log(Columns::kNone);
  log.append(0, 0);
  EXPECT_THROW((void)log.stream(0), std::logic_error);
}

TEST(EventLog, AppendInvalidatesIndex) {
  EventLog log(Columns::kNone);
  log.append(0, 1);
  log.build_index(1);
  EXPECT_TRUE(log.indexed());
  log.append(0, 2);
  EXPECT_FALSE(log.indexed());
}

TEST(EventLog, IndexIsThreadCountInvariant) {
  util::Rng rng(11);
  EventLog log;
  for (int i = 0; i < 5000; ++i) {
    log.append(static_cast<std::uint32_t>(rng.below(97)),
               static_cast<std::uint32_t>(rng.below(500)),
               static_cast<std::int32_t>(rng.below(30)),
               static_cast<std::uint32_t>(i),
               static_cast<std::uint8_t>(1 + rng.below(5)));
  }
  EventLog serial = log;
  serial.build_index(97, BuildOptions{.threads = 1});
  for (const std::size_t threads : {2, 4, 8}) {
    EventLog parallel = log;
    parallel.build_index(97, BuildOptions{.threads = threads});
    ASSERT_EQ(parallel.offsets().size(), serial.offsets().size());
    for (std::size_t i = 0; i < serial.offsets().size(); ++i) {
      ASSERT_EQ(parallel.offsets()[i], serial.offsets()[i]) << "threads=" << threads;
    }
    for (std::size_t i = 0; i < serial.order().size(); ++i) {
      ASSERT_EQ(parallel.order()[i], serial.order()[i]) << "threads=" << threads;
    }
  }
}

TEST(EventLog, BuildRecordsMetrics) {
  obs::Registry registry;
  EventLog log(Columns::kNone);
  log.append(0, 1);
  log.append(0, 2);
  log.build_index(1, BuildOptions{.metrics = &registry});
  const auto snapshot = registry.snapshot();
  bool saw_bytes = false;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "events_bytes_total") {
      saw_bytes = true;
      EXPECT_GT(counter.value, 0u);
    }
  }
  EXPECT_TRUE(saw_bytes);
  bool saw_build = false;
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == "eventlog_build_seconds") {
      saw_build = true;
      EXPECT_EQ(histogram.count, 1u);
    }
  }
  EXPECT_TRUE(saw_build);
}

// ---- live tiered-index streams vs batch CSR ---------------------------------

TEST(EventLogStore, LiveStreamsMatchBatchCsrOnSeededStore) {
  // Seeded Anzhi store with comments: the live store's tiered-index
  // comment_stream()/download_stream() views must agree event-for-event with
  // a batch EventLog CSR built from the same prefix — the bit-identical
  // contract the planner and the affinity pipeline rely on.
  synth::GeneratorConfig config;
  config.app_scale = 0.01;
  config.download_scale = 1e-5;
  config.comments = true;
  synth::StoreProfile profile = synth::anzhi();
  profile.commenter_fraction = 0.25;
  const auto generated = synth::generate(profile, config);
  const market::AppStore& store = *generated.store;
  ASSERT_GT(store.comment_log().size(), 0u);

  events::EventLog batch_comments = testing_support::to_event_log(store.comment_log());
  batch_comments.build_index(store.user_count());
  for (std::uint32_t u = 0; u < store.user_count(); ++u) {
    const auto view = store.comment_stream(market::UserId{u});
    const auto batch = batch_comments.stream(u);
    ASSERT_EQ(view.size(), batch.size()) << "user " << u;
    for (std::size_t i = 0; i < view.size(); ++i) {
      ASSERT_EQ(view.event_index(i), batch.event_index(i)) << "user " << u;
      const Event event = view[i];
      const Event expected = batch[i];
      ASSERT_EQ(event.user, expected.user);
      ASSERT_EQ(event.app, expected.app);
      ASSERT_EQ(event.day, expected.day);
      ASSERT_EQ(event.ordinal, expected.ordinal);
      ASSERT_EQ(event.rating, expected.rating);
    }
  }

  events::EventLog batch_downloads = testing_support::to_event_log(store.download_log());
  batch_downloads.build_index(store.user_count());
  for (std::uint32_t u = 0; u < store.user_count(); ++u) {
    const auto view = store.download_stream(market::UserId{u});
    const auto batch = batch_downloads.stream(u);
    ASSERT_EQ(view.size(), batch.size()) << "user " << u;
    for (std::size_t i = 0; i < view.size(); ++i) {
      ASSERT_EQ(view.event_index(i), batch.event_index(i)) << "user " << u;
      ASSERT_EQ(view[i].app, batch[i].app);
      ASSERT_EQ(view[i].day, batch[i].day);
    }
  }
}

}  // namespace
}  // namespace appstore
