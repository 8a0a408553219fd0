// Consistent-hash ring for routing single-user requests to federation shards.
//
// Construction: rendezvous hashing over per-member vnode points rather than
// the classic sorted-point ring. Each member projects `vnodes` pseudo-random
// 64-bit points derived from (ring seed, member name, vnode index); a key is
// owned by the member holding the highest-scoring point, where a point's
// score is a splitmix64 mix of (point XOR mixed key). Why not the classic
// arc-length ring: with V vnodes per member the arc-length load has
// coefficient of variation ~ 1/sqrt(V) (~12.5% at V = 64), so a +-25% load
// bound is only ~2 sigma and is statistically guaranteed to fail somewhere
// across thousands of seeds. Rendezvous scoring assigns every key an i.i.d.
// uniform winner, so the only load variance left is multinomial sampling
// noise over the keys themselves — and it keeps the property consistent
// hashing exists for: adding a member moves exactly the keys the newcomer
// now wins (~1/(N+1) of them, all TO the newcomer), removing a member moves
// only the keys it owned.
//
// Deterministic: same (seed, vnodes, member set) => same ownership on every
// platform, independent of insertion order. Not thread-safe; the gateway
// guards it with its membership lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace appstore::fed {

struct RingOptions {
  std::size_t vnodes = 64;     ///< points projected per member (>= 1)
  std::uint64_t seed = 0xfedULL;  ///< ring-wide salt mixed into every point
};

class HashRing {
 public:
  explicit HashRing(RingOptions options = {});

  /// Adds a member; returns false (and changes nothing) if already present.
  bool add(std::string_view name);
  /// Removes a member; returns false if absent.
  bool remove(std::string_view name);

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] bool empty() const { return members_.empty(); }
  [[nodiscard]] bool contains(std::string_view name) const;

  /// Member names in insertion order (indexes match owner_index()).
  [[nodiscard]] std::vector<std::string> members() const;

  /// Owner of `key`. Throws std::logic_error on an empty ring.
  [[nodiscard]] const std::string& owner(std::uint64_t key) const;
  /// Index (into members()) of the owner of `key`.
  [[nodiscard]] std::size_t owner_index(std::uint64_t key) const;

 private:
  struct Member {
    std::string name;
    std::vector<std::uint64_t> points;
  };

  RingOptions options_;
  std::vector<Member> members_;
};

}  // namespace appstore::fed
