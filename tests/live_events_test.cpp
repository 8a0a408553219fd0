// LiveEventLog: the ingest-while-serving store's correctness surface.
//
// The load-bearing properties, in rough order of importance:
//   * a FrontierSnapshot is always a dense, valid prefix of the log — even
//     while writers are appending (the concurrent fuzz below runs under the
//     TSan preset);
//   * per-user streams out of the tiered index are bit-identical to the
//     batch EventLog CSR built from the same prefix, at any writer thread
//     count;
//   * a throwing append never wedges the publication chain;
//   * the segmented "ALSG" persistence round-trips and rejects malformed
//     input with typed errors (the seeded corruption fuzz lives in
//     robustness_test next to the other format fuzzers).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <vector>

#include "events/binary.hpp"
#include "events/event_log.hpp"
#include "events/live_io.hpp"
#include "events/live_log.hpp"
#include "frontier_copy.hpp"
#include "obs/registry.hpp"

namespace appstore {
namespace {

using events::Columns;
using events::Event;

/// The deterministic event mix used across these tests: the k-th event of
/// user u. Every field is a pure function of (u, k), so any reader can check
/// any prefix without coordinating with the writers.
[[nodiscard]] Event expected_event(std::uint32_t user, std::uint32_t k) {
  Event event;
  event.user = user;
  event.app = (user * 31 + k * 7) % 97;
  event.day = static_cast<std::int32_t>(k);  // strictly increasing per user
  event.rating = static_cast<std::uint8_t>(1 + (user + k) % 5);
  return event;
}

[[nodiscard]] events::LiveOptions small_options(std::uint64_t max_rows = 1ull << 16,
                                                std::uint64_t segment_rows = 1ull << 10,
                                                std::uint32_t max_users = 1u << 12) {
  events::LiveOptions options;
  options.max_rows = max_rows;
  options.segment_rows = segment_rows;
  options.max_users = max_users;
  return options;
}

// ---- single-thread parity with the batch store ------------------------------

TEST(LiveEventLog, MatchesBatchEventLogSerially) {
  events::LiveEventLog live(Columns::kDay | Columns::kOrdinal | Columns::kRating,
                            small_options());
  events::EventLog batch(Columns::kDay | Columns::kOrdinal | Columns::kRating);

  constexpr std::uint32_t kUsers = 50;
  constexpr std::uint32_t kPerUser = 40;
  std::uint32_t ordinal = 0;
  for (std::uint32_t k = 0; k < kPerUser; ++k) {
    for (std::uint32_t u = 0; u < kUsers; ++u) {
      const Event event = expected_event(u, k);
      const std::uint64_t row = live.append(u, event.app, event.day, event.rating);
      EXPECT_EQ(row, ordinal);
      batch.append(u, event.app, event.day, ordinal, event.rating);
      ++ordinal;
    }
  }
  batch.build_index(kUsers);

  const events::FrontierSnapshot snapshot = live.snapshot();
  ASSERT_EQ(snapshot.size(), batch.size());
  ASSERT_TRUE(std::equal(snapshot.user().begin(), snapshot.user().end(),
                         batch.user().begin()));
  ASSERT_TRUE(std::equal(snapshot.app().begin(), snapshot.app().end(),
                         batch.app().begin()));
  ASSERT_TRUE(std::equal(snapshot.day().begin(), snapshot.day().end(),
                         batch.day().begin()));
  ASSERT_TRUE(std::equal(snapshot.ordinal().begin(), snapshot.ordinal().end(),
                         batch.ordinal().begin()));
  ASSERT_TRUE(std::equal(snapshot.rating().begin(), snapshot.rating().end(),
                         batch.rating().begin()));

  for (std::uint32_t u = 0; u < kUsers; ++u) {
    const events::LiveStreamView view = snapshot.stream(u);
    const auto reference = batch.stream(u);
    ASSERT_EQ(view.size(), reference.size()) << "user " << u;
    ASSERT_EQ(snapshot.stream_size(u), reference.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
      EXPECT_EQ(view.event_index(i), reference.event_index(i)) << "user " << u;
      const Event got = view[i];
      const Event want = reference[i];
      EXPECT_EQ(got.user, want.user);
      EXPECT_EQ(got.app, want.app);
      EXPECT_EQ(got.day, want.day);
      EXPECT_EQ(got.ordinal, want.ordinal);
      EXPECT_EQ(got.rating, want.rating);
    }
  }
}

TEST(LiveEventLog, StreamOrderIsDayThenAppendOrder) {
  // Interleave two users with repeating days: the stream must sort by day
  // with append order (== ordinal == row) breaking ties, exactly like the
  // batch CSR's stable sort.
  events::LiveEventLog live(Columns::kDay, small_options());
  live.append(1, 10, 5);
  live.append(2, 20, 5);
  live.append(1, 11, 3);
  live.append(1, 12, 5);
  live.append(1, 13, 3);

  const events::FrontierSnapshot snapshot = live.snapshot();
  const events::LiveStreamView stream = snapshot.stream(1);
  ASSERT_EQ(stream.size(), 4u);
  EXPECT_EQ(stream.event_index(0), 2u);  // day 3, appended first
  EXPECT_EQ(stream.event_index(1), 4u);  // day 3, appended second
  EXPECT_EQ(stream.event_index(2), 0u);  // day 5, appended first
  EXPECT_EQ(stream.event_index(3), 3u);  // day 5, appended second
  EXPECT_TRUE(snapshot.stream(3).empty());
  EXPECT_THROW((void)snapshot.stream(snapshot.user_count()), std::out_of_range);
}

// ---- validation happens before the row is claimed ---------------------------

TEST(LiveEventLog, ThrowingAppendNeverWedgesThePublicationChain) {
  events::LiveEventLog live(Columns::kDay, small_options(1u << 4, 1u << 4, 8));

  EXPECT_THROW(live.append(8, 0, 0), std::out_of_range);  // user >= max_users
  EXPECT_THROW(live.append(0, 0, 0, 3), std::logic_error);  // rating disabled
  // Both rejected appends must have claimed nothing: the next valid append
  // still publishes row 0 immediately.
  EXPECT_EQ(live.append(3, 1, 2), 0u);
  EXPECT_EQ(live.frontier(), 1u);

  for (std::uint32_t i = 1; i < 16; ++i) live.append(0, i, 0);
  EXPECT_THROW(live.append(0, 99, 0), std::length_error);  // at capacity
  EXPECT_EQ(live.frontier(), 16u);
}

TEST(LiveEventLog, BatchIngestValidatesAndRejectsForeignOrdinals) {
  events::LiveEventLog live(Columns::kDay | Columns::kOrdinal, small_options());
  live.append(0, 1, 0);

  // A batch carrying ordinals is accepted only if they continue the row
  // sequence exactly (the store assigns, never adopts).
  events::EventLog continuing(Columns::kDay | Columns::kOrdinal);
  continuing.append(1, 2, 0, 1);
  live.append_batch(continuing);
  EXPECT_EQ(live.frontier(), 2u);

  events::EventLog foreign(Columns::kDay | Columns::kOrdinal);
  foreign.append(1, 2, 0, 7);
  EXPECT_THROW(live.append_batch(foreign), std::invalid_argument);
  events::EventLog wrong_mask(Columns::kNone);
  wrong_mask.append(1, 2);
  EXPECT_THROW(live.append_batch(wrong_mask), std::invalid_argument);
  EXPECT_EQ(live.frontier(), 2u);  // nothing claimed by the rejected batches
}

// ---- the acceptance criterion: bit-identity at any thread count -------------

TEST(LiveEventLog, BatchIngestBitIdenticalAcrossThreadCounts) {
  constexpr std::uint32_t kUsers = 128;
  constexpr std::uint32_t kRows = 20000;
  events::EventLog batch(Columns::kDay);
  for (std::uint32_t i = 0; i < kRows; ++i) {
    const Event event = expected_event(i % kUsers, i / kUsers);
    batch.append(event.user, event.app, event.day, 0, 0);
  }
  events::EventLog reference = batch;
  reference.build_index(kUsers);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    events::LiveEventLog live(Columns::kDay, small_options(1u << 15, 1u << 10, kUsers));
    live.append_batch(batch, events::IngestOptions{.threads = threads});
    const events::FrontierSnapshot snapshot = live.snapshot();
    ASSERT_EQ(snapshot.size(), reference.size()) << threads << " threads";
    ASSERT_TRUE(std::equal(snapshot.user().begin(), snapshot.user().end(),
                           reference.user().begin()))
        << threads << " threads";
    ASSERT_TRUE(std::equal(snapshot.app().begin(), snapshot.app().end(),
                           reference.app().begin()))
        << threads << " threads";
    ASSERT_TRUE(std::equal(snapshot.day().begin(), snapshot.day().end(),
                           reference.day().begin()))
        << threads << " threads";
    for (std::uint32_t u = 0; u < kUsers; ++u) {
      const events::LiveStreamView view = snapshot.stream(u);
      const auto want = reference.stream(u);
      ASSERT_EQ(view.size(), want.size()) << threads << " threads, user " << u;
      for (std::size_t i = 0; i < view.size(); ++i) {
        ASSERT_EQ(view.event_index(i), want.event_index(i))
            << threads << " threads, user " << u;
      }
    }
  }
}

// ---- concurrent writer/reader fuzz on the frontier --------------------------

TEST(LiveEventLog, SnapshotsAreValidPrefixesUnderConcurrentWriters) {
  // W writers append disjoint user ranges while R readers continuously
  // snapshot. Every field of every event is a pure function of (user, k)
  // and each user is written by exactly one thread in k order, so a reader
  // can verify an arbitrary prefix by replaying per-user counters over it:
  // the j-th occurrence of user u in row order must be expected_event(u, j).
  // Any torn row, reordered publication, or posting leak past the frontier
  // fails the check (and trips TSan under the tsan preset).
  constexpr std::uint32_t kWriters = 4;
  constexpr std::uint32_t kReaders = 3;
  constexpr std::uint32_t kUsersPerWriter = 8;
  constexpr std::uint32_t kPerUser = 500;
  constexpr std::uint64_t kTotal =
      std::uint64_t{kWriters} * kUsersPerWriter * kPerUser;

  events::LiveEventLog live(Columns::kDay | Columns::kRating,
                            small_options(1u << 15, 1u << 8, kWriters * kUsersPerWriter));

  std::atomic<bool> writers_done{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (std::uint32_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&live, w] {
      for (std::uint32_t k = 0; k < kPerUser; ++k) {
        for (std::uint32_t i = 0; i < kUsersPerWriter; ++i) {
          const std::uint32_t user = w * kUsersPerWriter + i;
          const Event event = expected_event(user, k);
          live.append(user, event.app, event.day, event.rating);
        }
      }
    });
  }

  std::atomic<std::uint64_t> prefixes_checked{0};
  for (std::uint32_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      std::vector<std::uint32_t> seen(kWriters * kUsersPerWriter, 0);
      while (true) {
        const bool final_pass = writers_done.load(std::memory_order_acquire);
        const events::FrontierSnapshot snapshot = live.snapshot();
        std::fill(seen.begin(), seen.end(), 0);
        for (std::uint64_t row = 0; row < snapshot.size(); ++row) {
          const Event got = snapshot.row(row);
          ASSERT_LT(got.user, seen.size());
          const Event want = expected_event(got.user, seen[got.user]++);
          ASSERT_EQ(got.app, want.app) << "row " << row;
          ASSERT_EQ(got.day, want.day) << "row " << row;
          ASSERT_EQ(got.rating, want.rating) << "row " << row;
          ASSERT_EQ(got.ordinal, row);
        }
        // Spot-check the tiered index against the same prefix: stream sizes
        // must equal the per-user occurrence counts just replayed, and each
        // stream must be expected_event(u, 0..n) in order (day == k).
        for (std::uint32_t u = 0; u < seen.size(); u += 5) {
          const events::LiveStreamView stream = snapshot.stream(u);
          ASSERT_EQ(stream.size(), seen[u]) << "user " << u;
          for (std::size_t i = 0; i < stream.size(); ++i) {
            ASSERT_EQ(stream[i].day, static_cast<std::int32_t>(i)) << "user " << u;
          }
        }
        prefixes_checked.fetch_add(1, std::memory_order_relaxed);
        if (final_pass) break;
      }
    });
  }

  for (std::uint32_t w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  for (std::uint32_t r = 0; r < kReaders; ++r) threads[kWriters + r].join();

  EXPECT_GE(prefixes_checked.load(), kReaders);  // each reader's final pass
  ASSERT_EQ(live.frontier(), kTotal);

  // The completed log must byte-match a serial replay of the same rows.
  const events::FrontierSnapshot final_snapshot = live.snapshot();
  events::EventLog replay = testing_support::to_event_log(final_snapshot);
  replay.build_index(kWriters * kUsersPerWriter);
  for (std::uint32_t u = 0; u < kWriters * kUsersPerWriter; ++u) {
    const events::LiveStreamView stream = final_snapshot.stream(u);
    const auto want = replay.stream(u);
    ASSERT_EQ(stream.size(), kPerUser);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(stream.event_index(i), want.event_index(i)) << "user " << u;
    }
  }
}

// ---- segment geometry and mmap backing --------------------------------------

TEST(LiveEventLog, CrossesSegmentBoundariesTransparently) {
  // 64-row segments, 1000 rows: values and postings must be oblivious to the
  // 15 boundary crossings, and the arena must have committed exactly
  // ceil(1000/64) segments.
  events::LiveEventLog live(Columns::kDay, small_options(1u << 10, 64, 16));
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const Event event = expected_event(i % 16, i / 16);
    live.append(event.user, event.app, event.day);
  }
  const events::FrontierSnapshot snapshot = live.snapshot();
  ASSERT_EQ(snapshot.size(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const Event want = expected_event(i % 16, i / 16);
    EXPECT_EQ(snapshot.user()[i], want.user);
    EXPECT_EQ(snapshot.app()[i], want.app);
    EXPECT_EQ(snapshot.day()[i], want.day);
  }
  EXPECT_EQ(live.arena().segments_committed(), (1000 + 63) / 64);
  EXPECT_GT(live.bytes(), 0u);
}

TEST(LiveEventLog, MetricsCountAppendedRowsAndCommittedSegments) {
  // Both counters are resolved once at construction and bumped without the
  // registry mutex: four appending threads and one batch must land in them
  // exactly (and race-free under the TSan preset).
  obs::Registry registry;
  events::LiveOptions options = small_options(1u << 14, 64, 64);
  options.metrics = &registry;
  events::LiveEventLog live(Columns::kDay, options);
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kPerThread = 1000;
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&live, t] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        live.append(t * 16 + i % 16, i, static_cast<std::int32_t>(i / 16));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  events::EventLog batch(Columns::kDay);
  for (std::uint32_t i = 0; i < 500; ++i) batch.append(i % 64, i, 70);
  (void)live.append_batch(batch, {.threads = 2});

  const std::uint64_t rows = kThreads * kPerThread + 500;
  ASSERT_EQ(live.frontier(), rows);
  const obs::Snapshot snapshot = registry.snapshot();
  const obs::CounterSample* appended = snapshot.find_counter("live_events_appended_total");
  const obs::CounterSample* committed = snapshot.find_counter("live_segments_committed_total");
  ASSERT_NE(appended, nullptr);
  ASSERT_NE(committed, nullptr);
  EXPECT_EQ(appended->value, rows);
  EXPECT_EQ(committed->value, live.arena().segments_committed());
  EXPECT_EQ(committed->value, (rows + 63) / 64);
}

TEST(LiveEventLog, MmapBackedModeRoundTrips) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / "live_events_mmap";
  std::filesystem::create_directories(dir);
  events::LiveOptions options = small_options(1u << 12, 1u << 8, 64);
  options.backing_file = dir / "columns.bin";
  {
    events::LiveEventLog live(Columns::kDay | Columns::kRating, options);
    for (std::uint32_t i = 0; i < 3000; ++i) {
      const Event event = expected_event(i % 64, i / 64);
      live.append(event.user, event.app, event.day, event.rating);
    }
    const events::FrontierSnapshot snapshot = live.snapshot();
    for (std::uint32_t i = 0; i < 3000; ++i) {
      const Event want = expected_event(i % 64, i / 64);
      ASSERT_EQ(snapshot.user()[i], want.user);
      ASSERT_EQ(snapshot.rating()[i], want.rating);
    }
    ASSERT_TRUE(std::filesystem::exists(options.backing_file));
    ASSERT_GT(std::filesystem::file_size(options.backing_file), 0u);
  }
  std::filesystem::remove_all(dir);
}

// ---- segmented persistence ("ALSG") -----------------------------------------

TEST(LiveEventIo, SegmentedSaveLoadRoundTrips) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / "live_events_alsg";
  std::filesystem::create_directories(dir);
  const auto path = dir / "log.alsg";

  // Small segments force a multi-segment file; day + rating exercise every
  // optional column the format stores.
  events::LiveEventLog live(Columns::kDay | Columns::kOrdinal | Columns::kRating,
                            small_options(1u << 12, 1u << 8, 128));
  for (std::uint32_t i = 0; i < 2500; ++i) {
    const Event event = expected_event(i % 128, i / 128);
    live.append(event.user, event.app, event.day, event.rating);
  }
  events::save_segmented(live.snapshot(), path);

  const auto loaded = events::load_segmented(path, small_options(1u << 12, 1u << 8, 128));
  const events::FrontierSnapshot got = loaded->snapshot();
  const events::FrontierSnapshot want = live.snapshot();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.columns(), want.columns());
  EXPECT_TRUE(std::equal(got.user().begin(), got.user().end(), want.user().begin()));
  EXPECT_TRUE(std::equal(got.app().begin(), got.app().end(), want.app().begin()));
  EXPECT_TRUE(std::equal(got.day().begin(), got.day().end(), want.day().begin()));
  EXPECT_TRUE(std::equal(got.ordinal().begin(), got.ordinal().end(),
                         want.ordinal().begin()));
  EXPECT_TRUE(std::equal(got.rating().begin(), got.rating().end(),
                         want.rating().begin()));
  for (std::uint32_t u = 0; u < 128; ++u) {
    ASSERT_EQ(got.stream_size(u), want.stream_size(u)) << "user " << u;
  }

  // max_rows smaller than the file: the loader raises it instead of failing.
  const auto grown = events::load_segmented(path, small_options(1u << 8, 1u << 8, 128));
  EXPECT_EQ(grown->frontier(), want.size());
  std::filesystem::remove_all(dir);
}

TEST(LiveEventIo, LoadRejectsUsersBeyondTheBound) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / "live_events_bound";
  std::filesystem::create_directories(dir);
  const auto path = dir / "log.alsg";

  events::LiveEventLog live(Columns::kDay, small_options(1u << 10, 1u << 8, 4096));
  live.append(4000, 1, 2);
  events::save_segmented(live.snapshot(), path);

  // The live loader bounds users by min(max_users, limits.user_bound).
  try {
    (void)events::load_segmented(path, small_options(1u << 10, 1u << 8, 256));
    FAIL() << "user 4000 must not load into a 256-user store";
  } catch (const events::binary::LoadError& error) {
    EXPECT_EQ(error.kind(), events::binary::LoadErrorKind::kUserRange);
  }
  events::LoadLimits limits;
  limits.user_bound = 100;
  try {
    (void)events::load_segmented(path, small_options(1u << 10, 1u << 8, 4096), limits);
    FAIL() << "user 4000 must not pass a bound of 100";
  } catch (const events::binary::LoadError& error) {
    EXPECT_EQ(error.kind(), events::binary::LoadErrorKind::kUserRange);
  }
  std::filesystem::remove_all(dir);
}

TEST(LiveEventIo, SegmentedLoaderEnforcesAppAndDayBounds) {
  // The ALSG loader applies the LoadLimits app and day windows.
  const auto dir = std::filesystem::path(::testing::TempDir()) / "live_events_appday";
  std::filesystem::create_directories(dir);
  const auto path = dir / "log.alsg";

  events::LiveEventLog live(Columns::kDay, small_options(1u << 10, 1u << 8, 64));
  live.append(3, 500, -7);
  events::save_segmented(live.snapshot(), path);

  events::LoadLimits limits;
  limits.app_bound = 500;  // exclusive: app 500 is out of range
  try {
    (void)events::load_segmented(path, small_options(1u << 10, 1u << 8, 64), limits);
    FAIL() << "app 500 must not pass a bound of 500";
  } catch (const events::binary::LoadError& error) {
    EXPECT_EQ(error.kind(), events::binary::LoadErrorKind::kAppRange);
  }

  limits = {};
  limits.day_bound = 6;  // magnitude window [-6, 6) excludes day -7
  try {
    (void)events::load_segmented(path, small_options(1u << 10, 1u << 8, 64), limits);
    FAIL() << "day -7 must not pass a magnitude bound of 6";
  } catch (const events::binary::LoadError& error) {
    EXPECT_EQ(error.kind(), events::binary::LoadErrorKind::kDayRange);
  }
  limits.day_bound = 7;  // [-7, 7) admits -7
  EXPECT_EQ(events::load_segmented(path, small_options(1u << 10, 1u << 8, 64), limits)
                ->frontier(),
            1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace appstore
