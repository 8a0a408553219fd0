// Tests for CrawlDatabase CSV persistence (the bring-your-own-data boundary).
#include <gtest/gtest.h>

#include <filesystem>

#include <fstream>

#include "crawler/db_io.hpp"
#include "events/binary.hpp"
#include "util/format.hpp"

namespace appstore::crawlersim {
namespace {

class DbIoFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    directory_ = std::filesystem::temp_directory_path() / "appstore_db_io_test";
    std::filesystem::remove_all(directory_);
  }
  void TearDown() override { std::filesystem::remove_all(directory_); }

  static AppRecord meta(std::uint32_t id, bool paid) {
    AppRecord record;
    record.id = id;
    record.name = util::format("app-{}", id);
    record.category = id % 2 == 0 ? "games" : "music, \"live\"";  // exercise quoting
    record.developer = "dev";
    record.paid = paid;
    record.has_ads = !paid;
    return record;
  }

  static CrawlDatabase build() {
    CrawlDatabase database;
    database.record(meta(1, false), 0, AppObservation{100, 1, 0.0});
    database.record(meta(1, false), 5, AppObservation{180, 2, 0.0});
    database.record(meta(2, true), 0, AppObservation{7, 1, 1.99});
    database.record(meta(2, true), 5, AppObservation{9, 1, 2.49});
    database.record_apk_scan(1, 1, true);
    database.record_apk_scan(1, 2, false);
    return database;
  }

  std::filesystem::path directory_;
};

TEST_F(DbIoFixture, RoundTripPreservesObservations) {
  const CrawlDatabase original = build();
  save_database(original, directory_);
  const CrawlDatabase loaded = load_database(directory_);

  EXPECT_EQ(loaded.app_count(), original.app_count());
  const AppRecord* record = loaded.find(1);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->name, "app-1");
  EXPECT_EQ(record->category, "music, \"live\"");
  EXPECT_TRUE(record->has_ads);
  ASSERT_EQ(record->by_day.size(), 2u);
  EXPECT_EQ(record->by_day.at(5).downloads, 180u);
  EXPECT_EQ(record->by_day.at(5).version, 2u);

  const AppRecord* paid = loaded.find(2);
  ASSERT_NE(paid, nullptr);
  EXPECT_TRUE(paid->paid);
  EXPECT_DOUBLE_EQ(paid->by_day.at(5).price_dollars, 2.49);
}

TEST_F(DbIoFixture, RoundTripPreservesApkScans) {
  save_database(build(), directory_);
  const CrawlDatabase loaded = load_database(directory_);
  EXPECT_TRUE(loaded.apk_scanned(1, 1));
  EXPECT_TRUE(loaded.apk_scanned(1, 2));
  EXPECT_FALSE(loaded.apk_scanned(1, 3));
  EXPECT_TRUE(loaded.find(1)->ads_detected());
}

TEST_F(DbIoFixture, DerivedViewsSurviveRoundTrip) {
  const CrawlDatabase original = build();
  save_database(original, directory_);
  const CrawlDatabase loaded = load_database(directory_);
  EXPECT_EQ(loaded.crawl_days(), original.crawl_days());
  EXPECT_EQ(loaded.downloads_by_rank(5), original.downloads_by_rank(5));
  EXPECT_EQ(loaded.updates_per_app(), original.updates_per_app());
  EXPECT_DOUBLE_EQ(loaded.free_apps_with_ads_fraction(),
                   original.free_apps_with_ads_fraction());
}

TEST_F(DbIoFixture, MissingRequiredFilesThrow) {
  std::filesystem::create_directories(directory_);
  EXPECT_THROW((void)load_database(directory_), std::runtime_error);
}

TEST_F(DbIoFixture, ApkScansFileIsOptional) {
  save_database(build(), directory_);
  std::filesystem::remove(directory_ / "apk_scans.csv");
  const CrawlDatabase loaded = load_database(directory_);
  EXPECT_EQ(loaded.app_count(), 2u);
  EXPECT_FALSE(loaded.apk_scanned(1, 1));
}

TEST_F(DbIoFixture, ObservationForUnknownAppThrows) {
  save_database(build(), directory_);
  // Force the CSV path (load prefers observations.bin when present), then
  // corrupt it with an observation row referencing app 99.
  std::filesystem::remove(directory_ / "observations.bin");
  std::ofstream out(directory_ / "observations.csv", std::ios::app);
  out << "99,0,5,1,0\n";
  out.close();
  EXPECT_THROW((void)load_database(directory_), std::runtime_error);
}

TEST_F(DbIoFixture, BinaryObservationLoadEnforcesAppAndDayBounds) {
  // AOBS applies the same LoadLimits windows as ALSG, each defect a typed
  // error. The fixture's apps are 1 and 2, days 0 and 5.
  save_database(build(), directory_);

  events::LoadLimits limits;
  limits.app_bound = 2;  // exclusive: app 2 is out of range
  try {
    (void)load_database(directory_, limits);
    FAIL() << "app 2 must not pass a bound of 2";
  } catch (const events::binary::LoadError& error) {
    EXPECT_EQ(error.kind(), events::binary::LoadErrorKind::kAppRange);
  }

  limits = {};
  limits.day_bound = 5;  // magnitude window [-5, 5) excludes day 5
  try {
    (void)load_database(directory_, limits);
    FAIL() << "day 5 must not pass a magnitude bound of 5";
  } catch (const events::binary::LoadError& error) {
    EXPECT_EQ(error.kind(), events::binary::LoadErrorKind::kDayRange);
  }

  limits.day_bound = 6;  // [-6, 6) admits day 5
  EXPECT_EQ(load_database(directory_, limits).app_count(), 2u);
}

TEST_F(DbIoFixture, UnknownAppObservationIsTypedOnBothPaths) {
  // Both observation loaders report a row referencing an app absent from
  // apps.csv as the typed kAppRange, not a bare runtime_error.
  save_database(build(), directory_);
  std::filesystem::remove(directory_ / "observations.bin");
  std::ofstream out(directory_ / "observations.csv", std::ios::app);
  out << "99,0,5,1,0\n";
  out.close();
  try {
    (void)load_database(directory_);
    FAIL() << "an observation for app 99 must not load";
  } catch (const events::binary::LoadError& error) {
    EXPECT_EQ(error.kind(), events::binary::LoadErrorKind::kAppRange);
  }
}

TEST_F(DbIoFixture, BinaryObservationsPreferredOverCsv) {
  save_database(build(), directory_);
  // Doctor the CSV only: if the loader preferred it, the unknown-app row
  // below would throw. The intact binary file must win.
  std::ofstream out(directory_ / "observations.csv", std::ios::app);
  out << "99,0,5,1,0\n";
  out.close();
  const CrawlDatabase loaded = load_database(directory_);
  EXPECT_EQ(loaded.app_count(), 2u);
  EXPECT_EQ(loaded.find(99), nullptr);
}

TEST_F(DbIoFixture, CsvOnlyDirectoryStillLoads) {
  save_database(build(), directory_);
  std::filesystem::remove(directory_ / "observations.bin");
  const CrawlDatabase loaded = load_database(directory_);
  EXPECT_EQ(loaded.app_count(), 2u);
}

}  // namespace
}  // namespace appstore::crawlersim
