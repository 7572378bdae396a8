// Shared placement primitives for every multi-node layer in the tree.
//
// Two placement families live here:
//
//  * Salted-mod placement (`route_mod`): the OC and DC tiers of the TDC
//    chain and the lock-striped service's one tier (cluster/topology.hpp).
//    Each tier owns a salt so the tiers shard independently; the
//    arithmetic — hash64(id ^ salt) % nodes — is pinned by test_hash_ring
//    and test_srv, so it must never change. A salted-mod tier
//    is the degenerate ring: one equal segment per node, no virtual nodes,
//    resize reshuffles everything.
//
//  * Ring placement (`vnode_point` + cluster/hash_ring.hpp): consistent
//    hashing with virtual nodes for the elastic cluster, where membership
//    changes must move only ring-adjacent key ranges. Keys map to the ring
//    at the salt-free hash64(id) — the exact value the request path already
//    computes once and threads through every probe (PR-6 discipline), so
//    ring routing adds zero extra hashes per request.
//
// Everything here is a pure function of its arguments: no state, no RNG,
// no wall clock — placement is bitwise-reproducible across runs, threads
// and platforms.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace cdn::cluster {

/// Routing salts of the TDC chain's OC and DC tiers. The salted-mod
/// placement they select is pinned bitwise by test_hash_ring, so the values
/// can never change.
inline constexpr std::uint64_t kOcRouteSalt = 0x0c;
inline constexpr std::uint64_t kDcRouteSalt = 0xdc;

/// h % nodes. Power-of-two counts (every count a deployment or the shard
/// sweep uses) reduce by mask instead of 64-bit division; one node takes
/// the same path (mask 0), so every node count pays the same routing cost.
[[nodiscard]] inline std::size_t reduce_mod(std::uint64_t h,
                                            std::size_t nodes) noexcept {
  return (nodes & (nodes - 1)) == 0 ? static_cast<std::size_t>(h & (nodes - 1))
                                    : static_cast<std::size_t>(h % nodes);
}

/// Salted modulo placement: hash64(id ^ salt) % nodes. The TDC chain's
/// per-tier routing function, bit-for-bit (salts 0x0c and 0xdc); salt 0
/// is the lock-striped service's hash64(id) % nodes.
[[nodiscard]] inline std::size_t route_mod(std::uint64_t id,
                                           std::uint64_t salt,
                                           std::size_t nodes) noexcept {
  return reduce_mod(hash64(id ^ salt), nodes);
}

/// Ring point of virtual node `replica` of physical node `node`. Node ids
/// and replica indices are small integers, so they are packed into one
/// 64-bit word and pushed through hash64 to spread the points uniformly
/// over the ring. Key points use plain hash64(id) (no packing, no salt);
/// the id spaces cannot systematically collide because trace ids are
/// themselves hash-spread (request.hpp: ids are URL hashes).
[[nodiscard]] inline std::uint64_t vnode_point(std::uint32_t node,
                                               std::uint32_t replica) noexcept {
  return hash64((static_cast<std::uint64_t>(node) << 32) |
                static_cast<std::uint64_t>(replica));
}

}  // namespace cdn::cluster
