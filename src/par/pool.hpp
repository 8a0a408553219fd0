// Deterministic parallel execution: a small blocking thread pool.
//
// The pool runs *data-parallel jobs only*: for_shards(n, fn) executes
// fn(shard) for every shard in [0, n), using the calling thread plus the
// pool's workers, and returns when all shards finished. There is no work
// stealing and no fire-and-forget submission — shard contents are fixed up
// front, only the assignment of shards to threads varies, so any computation
// whose per-shard results are written to shard-indexed slots is bit-identical
// regardless of thread count or scheduling.
//
// Nested calls are safe: for_shards invoked from inside a pool worker runs
// all shards inline on that worker (serial), so a parallelized library
// routine may freely call another one without deadlocking the pool.
//
// Concurrent callers share the one job slot: each posts its job over the
// previous one, idle workers adopt the newest job, and every caller drains
// its own job to completion. A caller that finishes clears the slot only if
// it still holds its own job, so a later caller's shards stay adoptable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace appstore::par {

/// Maps the conventional "0 = all cores" thread-count field of the Options
/// structs to a concrete count (always >= 1).
[[nodiscard]] std::size_t resolve_threads(std::size_t threads) noexcept;

/// True on a ThreadPool worker thread (used to run nested jobs inline).
[[nodiscard]] bool in_pool_worker() noexcept;

class ThreadPool {
 public:
  /// `threads` counts *participants*: the pool spawns threads-1 workers and
  /// the thread calling for_shards contributes as the last participant.
  /// 0 = hardware_concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Maximum participants of a job (workers + the calling thread).
  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size() + 1; }

  /// Runs fn(shard) for every shard in [0, shard_count); blocks until all
  /// shards completed. At most `max_participants` threads (including the
  /// caller) execute shards; 0 = no limit. The first exception thrown by fn
  /// is rethrown on the calling thread after the job drains.
  void for_shards(std::size_t shard_count, const std::function<void(std::size_t)>& fn,
                  std::size_t max_participants = 0);

  /// Shards of the currently-running job not yet claimed by any thread
  /// (0 when idle). Snapshot for the par_pool_queue_depth gauge.
  [[nodiscard]] std::size_t queued_shards() const noexcept;

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t shard_count = 0;
    std::size_t max_participants = 0;  ///< adopters cap (callers + workers)
    std::size_t adopters = 0;          ///< guarded by pool mutex
    std::atomic<std::size_t> next{0};  ///< ticket: next unclaimed shard
    std::atomic<std::size_t> done{0};  ///< completed shards
    std::exception_ptr error;          ///< first failure, guarded by pool mutex
  };

  void worker_loop();
  /// Claims and executes shards of `job` until the tickets run out.
  void drain(const std::shared_ptr<Job>& job);

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: new job or shutdown
  std::condition_variable done_cv_;  ///< caller: job completion
  std::shared_ptr<Job> job_;         ///< newest posted job (null when idle)
  std::uint64_t generation_ = 0;     ///< bumped per job so workers adopt once
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Lazily-started process-global pool sized to hardware_concurrency.
/// Library routines use it when no pool is injected; tests inject private
/// pools to exercise specific sizes.
[[nodiscard]] ThreadPool& global_pool();

}  // namespace appstore::par
