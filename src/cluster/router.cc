#include "cluster/router.hh"

#include <algorithm>
#include <string>

#include "base/logging.hh"

namespace sap {

namespace {

/** Virtual nodes per shard; more = smoother key distribution. */
constexpr std::size_t kVirtualNodes = 64;

/** Ring point of one (shard, vnode): a string digest, so the ring
 *  depends only on the indices and is reproducible everywhere. */
Digest
ringPoint(std::size_t shard, std::size_t vnode)
{
    return fingerprintString("shard-" + std::to_string(shard) +
                             "/vnode-" + std::to_string(vnode));
}

} // namespace

ConsistentHashRouter::ConsistentHashRouter(std::size_t shards)
    : shards_(shards)
{
    SAP_ASSERT(shards_ >= 1, "router needs at least one shard");
    ring_.reserve(shards_ * kVirtualNodes);
    for (std::size_t s = 0; s < shards_; ++s)
        for (std::size_t v = 0; v < kVirtualNodes; ++v)
            ring_.emplace_back(ringPoint(s, v), s);
    // Ties (identical ring points from different shards) resolve to
    // the lower shard index, deterministically.
    std::sort(ring_.begin(), ring_.end());
}

std::size_t
ConsistentHashRouter::shardFor(Digest key) const
{
    // First ring point at or clockwise-after the key; wrap to the
    // ring's start past the last point.
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), key,
        [](const std::pair<Digest, std::size_t> &entry, Digest k) {
            return entry.first < k;
        });
    if (it == ring_.end())
        it = ring_.begin();
    return it->second;
}

} // namespace sap
