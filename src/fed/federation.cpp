#include "fed/federation.hpp"

#include <stdexcept>
#include <utility>

#include "util/format.hpp"
#include "util/strings.hpp"

namespace appstore::fed {

void Federation::set_day(market::Day day) {
  for (auto& service : services) service->set_day(day);
}

void Federation::attach(FederationGateway& gateway) const {
  for (std::size_t i = 0; i < services.size(); ++i) {
    crawlersim::AppstoreService* service = services[i].get();
    gateway.add_upstream(
        shard_ids[i],
        [service](const net::HttpRequest& request) { return service->respond(request); },
        [service](const net::HttpRequest& request) {
          return service->respond_partial(request);
        });
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
