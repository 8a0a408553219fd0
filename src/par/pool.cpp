#include "par/pool.hpp"

namespace appstore::par {

namespace {

thread_local bool t_in_pool_worker = false;

}  // namespace

std::size_t resolve_threads(std::size_t threads) noexcept {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

bool in_pool_worker() noexcept { return t_in_pool_worker; }

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t participants = resolve_threads(threads);
  workers_.reserve(participants - 1);
  for (std::size_t i = 0; i + 1 < participants; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::drain(const std::shared_ptr<Job>& job) {
  for (;;) {
    const std::size_t shard = job->next.fetch_add(1, std::memory_order_relaxed);
    if (shard >= job->shard_count) break;
    try {
      (*job->fn)(shard);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!job->error) job->error = std::current_exception();
    }
    if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 == job->shard_count) {
      // Last shard: wake the caller. The lock orders the notify against the
      // caller's predicate check.
      const std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  t_in_pool_worker = true;
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stopping_ || (job_ != nullptr && generation_ != seen_generation);
      });
      if (stopping_) return;
      seen_generation = generation_;
      if (job_->max_participants != 0 && job_->adopters >= job_->max_participants) {
        continue;  // job is at its participant cap; wait for the next one
      }
      ++job_->adopters;
      job = job_;  // shared_ptr keeps the job alive past the caller's return
    }
    drain(job);
  }
}

void ThreadPool::for_shards(std::size_t shard_count,
                            const std::function<void(std::size_t)>& fn,
                            std::size_t max_participants) {
  if (shard_count == 0) return;
  // Inline paths: single shard, no workers, capped to one participant, or a
  // nested call from inside a worker (enqueueing from a worker and blocking
  // on the result could deadlock a fully-busy pool).
  if (shard_count == 1 || workers_.empty() || max_participants == 1 || in_pool_worker()) {
    for (std::size_t shard = 0; shard < shard_count; ++shard) fn(shard);
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->shard_count = shard_count;
  job->max_participants = max_participants;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job->adopters = 1;  // the caller
    job_ = job;
    ++generation_;
  }
  work_cv_.notify_all();

  drain(job);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == job->shard_count;
    });
    // Another caller may have posted its job since; the slot is its now.
    if (job_ == job) job_ = nullptr;
    if (job->error) {
      std::exception_ptr error = job->error;
      lock.unlock();
      std::rethrow_exception(error);
    }
  }
}

std::size_t ThreadPool::queued_shards() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (job_ == nullptr) return 0;
  const std::size_t next = job_->next.load(std::memory_order_relaxed);
  return next >= job_->shard_count ? 0 : job_->shard_count - next;
}

ThreadPool& global_pool() {
  static ThreadPool pool(0);
  return pool;
}

}  // namespace appstore::par
