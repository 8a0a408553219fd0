// parallel_for / parallel_map / parallel_reduce over static shards.
//
// Determinism contract (see docs/performance.md):
//   * Shard boundaries are a pure function of (count, grain): shard s covers
//     [s*grain, min((s+1)*grain, count)). Threads only decide which CPU runs
//     a shard, never what the shard contains.
//   * parallel_for/parallel_map write per-index results, so their output is
//     bit-identical for every thread count, including 1.
//   * parallel_reduce combines shard partials in ascending shard order, so
//     its result is bit-identical across thread counts for a fixed grain.
//     An automatic grain (Options::grain == 0) is derived from the thread
//     count — pass an explicit grain when a floating-point reduction must be
//     invariant across thread counts.
//
// Per-shard randomness: derive one util::Rng per logical item (user,
// replicate, grid point) with util::rng::derive(seed, item_id) — never share
// one generator across shards.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "par/pool.hpp"

namespace appstore::par {

struct Options {
  /// Max threads participating (including the caller); 0 = hardware_concurrency.
  std::size_t threads = 0;
  /// Items per shard; 0 derives ~8 shards per thread from `threads`.
  std::uint64_t grain = 0;
  /// Pool to run on; nullptr = the lazily-started global pool.
  ThreadPool* pool = nullptr;
  /// Optional metrics sink: records par_tasks_total (one per parallel call),
  /// par_shards_total and the par_pool_queue_depth gauge (backlog at dispatch).
  obs::Registry* metrics = nullptr;
};

/// The static decomposition of [0, count) a parallel call will use.
struct ShardPlan {
  std::uint64_t grain = 1;
  std::size_t shard_count = 0;
};

/// Pure function of (count, options.threads, options.grain); exposed so
/// callers (and parallel_reduce) can size shard-indexed buffers up front.
[[nodiscard]] ShardPlan plan_shards(std::uint64_t count, const Options& options) noexcept;

/// Type-erased core: runs body(begin, end, shard) over the static shards of
/// [0, count). All templates below forward to this.
void for_shards(std::uint64_t count, const Options& options,
                const std::function<void(std::uint64_t, std::uint64_t, std::size_t)>& body);

/// Element-wise parallel loop: fn(i) for i in [0, count).
template <typename Fn>
void parallel_for(std::uint64_t count, const Options& options, Fn&& fn) {
  for_shards(count, options,
             [&fn](std::uint64_t begin, std::uint64_t end, std::size_t /*shard*/) {
               for (std::uint64_t i = begin; i < end; ++i) fn(i);
             });
}

/// result[i] = fn(i). T must be default-constructible; results land in
/// per-index slots, so the output is thread-count-invariant.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> parallel_map(std::uint64_t count, const Options& options,
                                          Fn&& fn) {
  std::vector<T> result(count);
  for_shards(count, options,
             [&](std::uint64_t begin, std::uint64_t end, std::size_t /*shard*/) {
               for (std::uint64_t i = begin; i < end; ++i) result[i] = fn(i);
             });
  return result;
}

/// Shard-local fold then an ordered serial combine:
///   partial[s] = combine(...combine(identity, map(i))...) over shard s
///   result     = combine(...combine(identity, partial[0])..., partial[n-1])
/// Deterministic for a fixed grain even when combine is not associative in
/// floating point. Accumulators are moved, never copied, into combine (take
/// them by value to reuse their storage); only the identity is copied, once
/// per shard.
template <typename T, typename MapFn, typename CombineFn>
[[nodiscard]] T parallel_reduce(std::uint64_t count, T identity, const Options& options,
                                MapFn&& map, CombineFn&& combine) {
  const ShardPlan plan = plan_shards(count, options);
  std::vector<T> partials(plan.shard_count, identity);
  for_shards(count, options,
             [&](std::uint64_t begin, std::uint64_t end, std::size_t shard) {
               T acc = identity;
               for (std::uint64_t i = begin; i < end; ++i) {
                 acc = combine(std::move(acc), map(i));
               }
               partials[shard] = std::move(acc);
             });
  T result = std::move(identity);
  for (T& partial : partials) result = combine(std::move(result), std::move(partial));
  return result;
}

}  // namespace appstore::par
