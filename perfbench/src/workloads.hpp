// The three workloads. Each sets up a fresh program instance, sends its
// seeded fixed-count list through a closed loop, checks the program's
// answers after the timed window, and records end-to-end metrics (and,
// when `tracer` is enabled, per-layer metrics) into `report`.
#pragma once

#include <filesystem>

#include "market/durable.hpp"
#include "record.hpp"
#include "trace.hpp"

namespace perfbench {

void run_storefront(const RunOptions& options, Tracer& tracer, Report& report);
void run_analytics(const RunOptions& options, Tracer& tracer, Report& report);
void run_federated(const RunOptions& options, Tracer& tracer, Report& report);

/// The query layer is reachable only through a service, so a traced run
/// replays up to 1,000 distinct queries of ops[begin, end) stage by stage
/// into `tracer`: respond on `service` (a cache miss: the day moves past
/// every cached entry first, and back after), route, parse_query_request,
/// plan_filter, execute, QueryEngine::run (an engine bound to `store` with
/// `options`) and query_result_json(...).dump(). Records the query.* and
/// crawler.query_* per-layer metrics and crawler.service_self_us.
void replay_queries(const std::vector<Op>& ops, std::size_t begin, std::size_t end,
                    const market::AppStore& store, crawlersim::AppstoreService& service,
                    const query::QueryOptions& options, Tracer& tracer, Report& report);

/// The timed window runs in this many parts, with one durable copy made
/// after each, so that the copies sample the host across the whole run.
constexpr std::size_t kDurableCopies = 6;

/// ingest_rows_per_s and recovery_s of a workload's own store. The
/// constructor logs the entities once through a fresh market::DurableStore.
/// Each make_copy() starts from that WAL, logs every event row (one WAL
/// group commit per day's batch, fsync on), checkpoints, logs the last day
/// again as a WAL tail, closes without a checkpoint and reopens twice,
/// checking the first reopen's row totals and sampled user streams.
/// finish() records the medians of the copies' rates and of the reopens,
/// and, when `tracer` is enabled, the events.* and market.* per-layer
/// metrics.
class DurableCopies {
 public:
  DurableCopies(const market::AppStore& store, const RunOptions& options, Tracer& tracer);
  ~DurableCopies();
  DurableCopies(const DurableCopies&) = delete;
  DurableCopies& operator=(const DurableCopies&) = delete;

  void make_copy(Report& report);
  void finish(Report& report);

 private:
  const market::AppStore& store_;
  Tracer& tracer_;
  std::filesystem::path base_;
  obs::Registry registry_;  ///< the copies' counters
  market::DurableOptions options_;
  std::vector<events::EventLog> downloads_;  ///< one batch per day
  std::vector<events::EventLog> comments_;   ///< one batch
  std::uint64_t rows_ = 0;
  std::vector<std::uint32_t> checked_users_;
  std::vector<double> rates_;
  std::vector<double> checkpoint_ms_;
  std::vector<double> reopen_seconds_;
  std::uint64_t wal_commits_ = 0;
  std::uint64_t wal_bytes_ = 0;  ///< event bytes the WALs grew by before their checkpoints
  std::uint64_t published_bytes_ = 0;
  market::RecoveryReport recovery_;
};

}  // namespace perfbench
