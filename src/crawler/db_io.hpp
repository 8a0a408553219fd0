// CrawlDatabase persistence: save/load the crawler's observations.
//
// This is the boundary where real data enters the library: a user with
// their own appstore crawl (any source) can write these files and run
// every analysis bench against it. Format:
//
//   <dir>/apps.csv          id,name,category,developer,paid,has_ads,first_seen
//   <dir>/observations.csv  app,day,downloads,version,price_dollars
//   <dir>/observations.bin  columnar fast path (same rows as the CSV)
//   <dir>/apk_scans.csv     app,version,ads_found            (optional)
//
// observations.bin uses the events/binary.hpp layout (magic "AOBS", endian
// tag, version, row count, then raw native-order columns: app u32, day i32,
// downloads u64, version u32, price f64). save_database writes both forms;
// load_database prefers the binary file when present and falls back to CSV,
// so a hand-written CSV-only directory still loads.
//
// Robustness: every file is staged in "<name>.tmp" and renamed into place
// (util::AtomicFile), so a crash — real or injected through IoOptions —
// mid-save never corrupts an existing database directory. The binary loader
// validates the header and the exact payload length and reports defects as
// typed events::binary::LoadError; corrupted input can never crash the
// loader or silently truncate.
#pragma once

#include <filesystem>

#include "crawler/database.hpp"
#include "events/io.hpp"
#include "market/durable.hpp"

namespace appstore::crawlersim {

/// Writes the database under `directory` (created if needed), each file
/// atomically. With an IoOptions fault injector, a kTornWrite decision for a
/// file aborts the save mid-write (chaos::InjectedFault) leaving previously
/// committed files and any pre-existing versions intact.
void save_database(const CrawlDatabase& database, const std::filesystem::path& directory,
                   const events::IoOptions& options = {});

/// Reads a database previously written by save_database (apk_scans.csv and
/// observations.bin may be absent). Throws std::runtime_error — a typed
/// events::binary::LoadError for structural defects in observations.bin —
/// on missing required files or malformed content. `limits` bounds the
/// binary app/day columns with the same typed errors (kAppRange/kDayRange)
/// the ALSG loader reports; an observation whose app id is absent
/// from apps.csv is also kAppRange.
[[nodiscard]] CrawlDatabase load_database(const std::filesystem::path& directory,
                                          const events::LoadLimits& limits = {});

/// Wires `database` into a market::DurableStore checkpoint barrier: saves
/// through save_database at each checkpoint, restores through load_database
/// at recovery. Attach before DurableStore::open(); `database` must outlive
/// the store lifecycle. This replaces ad-hoc save_database call sites — the
/// database becomes exactly as durable as the store it crawls.
[[nodiscard]] market::CheckpointComponent database_component(CrawlDatabase& database);

}  // namespace appstore::crawlersim
