#include "fed/federation.hpp"

#include <stdexcept>
#include <utility>

#include "market/store.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace appstore::fed {

namespace {

/// A digest of the entity state every shard replicates: the store's name,
/// categories, developers and apps with their update history.
[[nodiscard]] std::uint64_t entity_digest(const market::AppStore& store) {
  std::uint64_t digest = util::hash64(store.name());
  const auto mix = [&digest](std::uint64_t value) {
    digest = util::combine_seed(digest, value);
  };
  for (const market::Category& category : store.categories()) mix(util::hash64(category.name));
  for (const market::Developer& developer : store.developers()) {
    mix(util::hash64(developer.name));
  }
  for (const market::App& app : store.apps()) {
    mix(util::hash64(app.name));
    mix(app.developer.value);
    mix(app.category.value);
    mix(static_cast<std::uint64_t>(app.pricing));
    mix(static_cast<std::uint64_t>(app.price));
    mix(static_cast<std::uint64_t>(app.released));
    mix(app.has_ads ? 1 : 0);
    mix(app.update_days.size());
    for (const market::Day day : app.update_days) mix(static_cast<std::uint64_t>(day));
  }
  return digest;
}

}  // namespace

void Federation::set_day(market::Day day) {
  for (auto& service : services) service->set_day(day);
}

void Federation::attach(FederationGateway& gateway) const {
  for (std::size_t i = 1; i < stores.size(); ++i) {
    if (entity_digest(*stores[i].store) != entity_digest(*stores.front().store)) {
      throw std::runtime_error(util::format(
          "Federation::attach: {} replicates different entity state than {}", shard_ids[i],
          shard_ids.front()));
    }
  }
  for (std::size_t i = 0; i < services.size(); ++i) {
    gateway.add_upstream(shard_ids[i], std::make_shared<ServiceShard>(*services[i]));
  }
}

Federation build_federation(const FederationOptions& options) {
  if (options.shards == 0) {
    throw std::invalid_argument("build_federation: shards must be >= 1");
  }
  Federation federation;
  federation.ring = HashRing(options.ring);
  for (std::size_t i = 0; i < options.shards; ++i) {
    federation.shard_ids.push_back(util::format("shard-{}", i));
    federation.ring.add(federation.shard_ids.back());
  }
  // Each shard owns the users whose ring owner it is. The lambda captures a
  // copy of the fully-joined ring, so membership changes after bring-up do
  // not retroactively re-shard generated data.
  for (std::size_t i = 0; i < options.shards; ++i) {
    synth::GeneratorConfig config = options.config;
    config.user_filter = [ring = federation.ring, i](std::uint32_t user) {
      return ring.owner_index(static_cast<std::uint64_t>(user)) == i;
    };
    federation.stores.push_back(synth::generate(options.profile, config));
  }
  for (auto& generated : federation.stores) {
    federation.services.push_back(
        std::make_unique<crawlersim::AppstoreService>(*generated.store, options.policy));
    federation.services.back()->set_day(options.day);
  }
  return federation;
}

}  // namespace appstore::fed
