/**
 * @file
 * Consistent-hash routing of plan digests onto shards.
 *
 * The cluster pins every matrix to exactly one shard so its prepared
 * plan is built once, cached once, and never contended across
 * shards. Routing must therefore be (a) deterministic — any router
 * with the same shard count, in any process, maps a key to the
 * same shard — and (b) stable under resizing: growing an
 * installation from N to N+1 arrays should re-home only ~1/(N+1) of
 * the matrices, not reshuffle everything the way modulo routing
 * does.
 *
 * Classic consistent hashing provides both: each shard contributes a
 * fixed set of 64 virtual nodes to a 64-bit hash ring, and a key is
 * owned by the shard of the first ring point at or clockwise-after
 * it. Ring points depend only on (shard index, vnode index), so the
 * ring is reproducible from the shard count alone. Ring points and keys
 * are digests (serve/fingerprint.hh), which already end in a
 * full-avalanche finalizer, so both are placed on the ring as they
 * are.
 */

#ifndef SAP_CLUSTER_ROUTER_HH
#define SAP_CLUSTER_ROUTER_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "serve/fingerprint.hh"

namespace sap {

/** Deterministic digest → shard map on a consistent-hash ring. */
class ConsistentHashRouter
{
  public:
    /** @param shards Number of shards (>= 1). */
    explicit ConsistentHashRouter(std::size_t shards);

    /** Owning shard of @p key, in [0, shardCount()). */
    std::size_t shardFor(Digest key) const;

    std::size_t shardCount() const { return shards_; }

  private:
    std::size_t shards_;
    /** (ring point, shard), sorted by ring point. */
    std::vector<std::pair<Digest, std::size_t>> ring_;
};

} // namespace sap

#endif // SAP_CLUSTER_ROUTER_HH
