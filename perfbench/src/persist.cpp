// The durable copies of a workload's store (see workloads.hpp).
#include <unistd.h>

#include <algorithm>
#include <map>

#include "events/wal.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kReopensPerCopy = 2;
constexpr std::size_t kCheckedUsers = 256;
constexpr std::string_view kWalName = "wal.awal";

/// A log's rows as ingest batches in their original order: one batch per
/// day (ascending) when `per_day`, else a single batch.
[[nodiscard]] std::vector<events::EventLog> batches_of(const events::FrontierSnapshot& log,
                                                       bool rated, bool per_day) {
  struct Columns {
    std::vector<std::uint32_t> user, app;
    std::vector<std::int32_t> day;
    std::vector<std::uint8_t> rating;
  };
  std::map<std::int32_t, Columns> days;
  for (std::size_t i = 0; i < log.size(); ++i) {
    Columns& columns = days[per_day ? log.day()[i] : 0];
    columns.user.push_back(log.user()[i]);
    columns.app.push_back(log.app()[i]);
    columns.day.push_back(log.day()[i]);
    if (rated) columns.rating.push_back(log.rating()[i]);
  }
  std::vector<events::EventLog> batches;
  for (auto& [day, columns] : days) {
    const events::Columns mask =
        rated ? events::Columns::kDay | events::Columns::kRating : events::Columns::kDay;
    batches.push_back(events::EventLog::from_columns(
        mask, std::move(columns.user), std::move(columns.app), std::move(columns.day), {},
        std::move(columns.rating)));
  }
  return batches;
}

/// Bytes of the published checkpoint: every file of the store but the WAL.
[[nodiscard]] std::uint64_t artifact_bytes(const std::filesystem::path& directory) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(directory)) {
    if (entry.is_regular_file() && entry.path().filename() != kWalName) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

/// Digest of sampled users' download and comment streams.
[[nodiscard]] std::string stream_digest(const market::AppStore& store,
                                        const std::vector<std::uint32_t>& users) {
  Digest digest;
  for (const std::uint32_t user : users) {
    for (const auto& stream : {store.download_stream(market::UserId{user}),
                               store.comment_stream(market::UserId{user})}) {
      digest.u64(stream.size());
      for (const events::Event event : stream) {
        digest.u64(event.app);
        digest.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(event.day)));
        digest.u64(event.rating);
      }
    }
  }
  return digest.hex();
}

}  // namespace

DurableCopies::DurableCopies(const market::AppStore& store, const RunOptions& options,
                             Tracer& tracer)
    : store_(store),
      tracer_(tracer),
      base_(std::filesystem::path(options.work_dir) /
            util::format("{}-{}-durable", options.workload, ::getpid())),
      downloads_(batches_of(store.download_log(), false, true)),
      comments_(batches_of(store.comment_log(), true, false)),
      rows_(store.download_log().size() + store.comment_log().size()) {
  std::filesystem::remove_all(base_);
  options_.live.segment_rows = 1ull << 16;
  options_.live.max_rows = 1ull << 22;
  options_.live.max_users = std::max<std::uint32_t>(1, store.user_count());
  options_.metrics = &registry_;
  Rng rng = derive(options.seed, 99);
  for (std::size_t i = 0; i < kCheckedUsers; ++i) {
    checked_users_.push_back(static_cast<std::uint32_t>(rng.below(store.user_count())));
  }

  // The entities are logged once; each copy starts from that WAL.
  const Span span(tracer_, "market.populate", 0);
  market::DurableStore durable(base_ / "entities", store.name(), options_);
  (void)durable.open();
  for (const market::Category& category : store.categories()) {
    (void)durable.add_category(category.name);
  }
  for (const market::Developer& developer : store.developers()) {
    (void)durable.add_developer(developer.name);
  }
  (void)durable.add_users(store.user_count());
  for (const market::App& app : store.apps()) {
    (void)durable.add_app(app.name, app.developer, app.category, app.pricing, app.price,
                          app.released);
  }
  durable.close();
}

DurableCopies::~DurableCopies() {
  std::error_code ignored;
  std::filesystem::remove_all(base_, ignored);
}

void DurableCopies::make_copy(Report& report) {
  const std::filesystem::path directory = base_ / util::format("copy-{}", rates_.size());
  std::filesystem::copy(base_ / "entities", directory, std::filesystem::copy_options::recursive);
  const std::filesystem::path wal = directory / kWalName;
  std::string before_close;
  {
    market::DurableStore durable(directory, store_.name(), options_);
    (void)durable.open();
    const std::uint64_t entity_wal_bytes = std::filesystem::file_size(wal);
    const obs::Snapshot before = registry_.snapshot();
    const std::int64_t start = now_ns();
    for (std::size_t day = 0; day < downloads_.size(); ++day) {
      const Span span(tracer_, "market.ingest_downloads", day);
      durable.ingest_downloads(downloads_[day]);
    }
    for (const events::EventLog& batch : comments_) {
      const Span span(tracer_, "market.ingest_comments", 0);
      durable.ingest_comments(batch);
    }
    wal_commits_ += counter_delta(before, registry_.snapshot(), "wal_commits_total");
    wal_bytes_ += std::filesystem::file_size(wal) - entity_wal_bytes;
    const std::int64_t checkpoint_start = now_ns();
    {
      const Span span(tracer_, "market.checkpoint", rates_.size());
      (void)durable.checkpoint();
    }
    const std::int64_t end = now_ns();
    checkpoint_ms_.push_back(static_cast<double>(end - checkpoint_start) / 1e6);
    rates_.push_back(static_cast<double>(rows_) / seconds_between(start, end));
    published_bytes_ += artifact_bytes(directory);
    // The WAL tail: the last day once more, never checkpointed.
    durable.ingest_downloads(downloads_.back());
    if (!comments_.empty()) durable.ingest_comments(comments_.back());
    before_close = stream_digest(durable.store(), checked_users_);
    durable.close();
  }
  if (tracer_.enabled()) {
    const Span span(tracer_, "events.replay_wal", 0);
    (void)events::replay_wal(wal);
  }
  // open() resumes the WAL without rewriting it, so every reopen redoes the
  // same recovery; the first one is checked.
  const std::uint64_t expected_downloads = store_.download_log().size() + downloads_.back().size();
  const std::uint64_t expected_comments =
      store_.comment_log().size() + (comments_.empty() ? 0 : comments_.back().size());
  for (int attempt = 0; attempt < kReopensPerCopy; ++attempt) {
    const Span span(tracer_, "market.open", 0);
    const std::int64_t start = now_ns();
    market::DurableStore reopened(directory, store_.name(), options_);
    recovery_ = reopened.open();
    reopen_seconds_.push_back(seconds_between(start, now_ns()));
    if (attempt == 0) {
      const market::AppStore& recovered = reopened.store();
      if (recovered.download_log().size() != expected_downloads ||
          recovered.comment_log().size() != expected_comments) {
        report.fail("a durable copy recovered other row totals than it acknowledged");
      }
      if (stream_digest(recovered, checked_users_) != before_close) {
        report.fail("a durable copy recovered other user streams than it logged");
      }
    }
    reopened.close();
  }
  std::filesystem::remove_all(directory);
}

void DurableCopies::finish(Report& report) {
  if (rates_.empty()) return;
  report.set("ingest_rows_per_s", median(rates_));
  report.set("recovery_s", median(reopen_seconds_));
  std::string line = util::format(
      "durable copies (flush=fsync): {} rows in {} batches + checkpoint; rows/s", rows_,
      downloads_.size() + comments_.size());
  for (const double rate : rates_) line += util::format(" {:.0f}", rate);
  line += "; reopen seconds";
  for (const double seconds : reopen_seconds_) line += util::format(" {:.4f}", seconds);
  report.note(line);
  report.note(util::format("check: {} copies recovered the acknowledged row totals and {} "
                           "sampled user streams as logged",
                           rates_.size(), checked_users_.size()));

  if (!tracer_.enabled()) return;
  std::map<std::string, SpanSummary> spans = tracer_.summarize();
  const double rows_logged = static_cast<double>(rows_ * rates_.size());
  report.set("events.wal_commits", static_cast<double>(wal_commits_));
  report.set("events.rows_logged", rows_logged);
  report.set("events.wal_bytes_per_row", static_cast<double>(wal_bytes_) / rows_logged);
  report.set("events.replay_read_s", spans["events.replay_wal"].mean_us() / 1e6);
  const SpanSummary& ingested_downloads = spans["market.ingest_downloads"];
  const SpanSummary& ingested_comments = spans["market.ingest_comments"];
  report.set("market.ingest_batch_us",
             (ingested_downloads.total_us + ingested_comments.total_us) /
                 static_cast<double>(ingested_downloads.count + ingested_comments.count));
  report.set("market.checkpoints", static_cast<double>(checkpoint_ms_.size()));
  report.set("market.checkpoint_ms", median(checkpoint_ms_));
  report.set("market.checkpoint_max_ms",
             *std::max_element(checkpoint_ms_.begin(), checkpoint_ms_.end()));
  report.set("market.checkpoint_new_rows", static_cast<double>(rows_));
  report.set("market.checkpoint_bytes_per_new_row",
             static_cast<double>(published_bytes_) / rows_logged);
  report.set("market.replayed_records", static_cast<double>(recovery_.replayed_records));
  report.set("market.populate_s", spans["market.populate"].total_us / 1e6);
  // Encode cost of the same batches, measured apart from the ingest path.
  for (const events::EventLog& batch : downloads_) {
    const Span span(tracer_, "events.encode", 0);
    (void)events::encode_event_batch(batch);
  }
  report.set("events.encode_us", tracer_.summarize()["events.encode"].mean_us());
}

}  // namespace perfbench
