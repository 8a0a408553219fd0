// Cross-shard recombination of partial aggregates.
//
// A federation gateway scatters one query to N user-sharded stores, each of
// which answers with a QueryEngine::run_partial fragment; merge_partials
// recombines them into the exact QueryResult a single store holding the
// union of all events would return:
//
//   downloads   per-app integer counts sum exactly; the merged dense vector
//               (shared app universe — entities are replicated shard-side)
//               feeds the same finalize_downloads as a local run, so top-k
//               order, pareto shares, and the rank curve are bit-identical.
//   affinity    per-user samples concatenate in ascending user order (each
//               user lives on exactly one shard); finalize_affinity then
//               rebuilds the comment-count groups in the same order a
//               single-store run iterates them, so the grouped means sum
//               identically. The random-walk baseline is taken from the
//               first shard (entity state is replicated, so all agree).
//
// single_user_route() is the gateway's fast path: a filter that pins
// `user == K` needs only K's home shard, no scatter.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "query/engine.hpp"

namespace appstore::query {

/// Merges shard partials (non-null, typically held by the shards' response
/// caches) into the federated answer. All partials must share the query's
/// kind, the day they were aggregated up to and (for download kinds) the
/// same dense app universe; a mismatch throws QueryError("merge_mismatch")
/// — the shards answered at different days, or were built from different
/// store configurations. Throws on an empty span.
[[nodiscard]] QueryResult merge_partials(const QuerySpec& spec,
                                         std::span<const PartialAggregate* const> partials);

/// Returns the user id when the spec's filter pins the query to exactly one
/// user: a `user == K` comparison either as the whole filter or as a direct
/// child of a top-level AND. Disjunctions never qualify (an OR containing
/// `user == K` can still select other users' rows).
[[nodiscard]] std::optional<std::uint32_t> single_user_route(const QuerySpec& spec);

}  // namespace appstore::query
