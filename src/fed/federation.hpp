// Sharded federation bring-up: N shard stores + services + a gateway.
//
// build_federation() splits one synthetic marketplace across N shards by
// ring-owned user slice: every shard generates the identical replicated
// entity state (categories, developers, apps, updates), but only the
// download/comment events of the users whose consistent-hash owner it is
// (synth::GeneratorConfig::user_filter). No union event log is ever
// materialized — each shard's generation emits its slice directly, so the
// peak footprint is one shard's events, not the store's (the out-of-core
// property bench_federation relies on at scale).
//
// The union of the shard stores is event-for-event identical to an
// unfiltered single-store run with the same profile/config/seed, which is
// what makes gateway scatter-gather answers bit-exact against the
// single-store goldens (federation_test pins fig2/fig6/fig8 parity at
// 1/2/4 shards). See docs/federation.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crawler/service.hpp"
#include "fed/gateway.hpp"
#include "fed/ring.hpp"
#include "market/types.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"

namespace appstore::fed {

struct FederationOptions {
  synth::StoreProfile profile;
  /// Generation config; user_filter is overwritten per shard.
  synth::GeneratorConfig config;
  std::size_t shards = 2;
  RingOptions ring{};
  /// Policy stamped onto every shard service.
  crawlersim::ServicePolicy policy{};
  /// Virtual day every shard starts serving at.
  market::Day day = 0;
};

/// One running federation: the ring, the per-shard stores and services, and
/// ownership of all of it. Shard ids are "shard-<i>" in ring-join order.
struct Federation {
  HashRing ring;
  std::vector<std::string> shard_ids;
  std::vector<synth::GeneratedStore> stores;
  std::vector<std::unique_ptr<crawlersim::AppstoreService>> services;

  /// Publishes `day` on every shard service.
  void set_day(market::Day day);

  /// Registers every shard on `gateway` (in shard-id order; the gateway's
  /// ring is rebuilt by these joins, so construct it with the same
  /// RingOptions the federation used or routing will disagree). Each shard
  /// registers respond() and the typed respond_partial(), so scatter queries
  /// exchange partials without JSON.
  void attach(FederationGateway& gateway) const;
};

/// Generates the shard stores and starts one AppstoreService per shard.
/// Throws std::invalid_argument when options.shards == 0.
[[nodiscard]] Federation build_federation(const FederationOptions& options);

}  // namespace appstore::fed
