/**
 * @file
 * Content-addressed cache of prepared (DBT-transformed) plans.
 *
 * The dense→band transform is the amortizable cost of the paper's
 * size-independent scheme: a w-cell array serves any problem size,
 * so a serving system pays the transform once per distinct matrix
 * and streams every subsequent request through the cached band
 * structure. This cache implements that amortization: plans are
 * keyed by (engine, kind, w, fingerprint of the bound operand
 * matrices) with LRU eviction.
 *
 * Collision safety: a digest match is only a candidate; the cache
 * confirms every hit bit for bit against the cached plan itself
 * (PreparedPlan::builtFrom(): the same shape, then the plan's stored
 * data against the request's matrices where the plan's gather read
 * them), so distinct matrices that collide in the hash never share a
 * plan (counted in stats().collisions). Equality is bitwise, as the
 * digest is: a matrix holding a NaN hits its own plan, and +0 and −0
 * are distinct matrices. The hash function is injectable for tests
 * to force this path.
 *
 * Thread-safety: all public members are safe to call concurrently.
 * The lock guards only the index and the counters: a digest match is
 * confirmed outside it (on candidate plans copied out under it), and
 * plan construction runs outside it too. Two threads missing on the
 * same key may both build; the first insertion wins and the loser's
 * plan serves only its own request.
 */

#ifndef SAP_SERVE_PLAN_CACHE_HH
#define SAP_SERVE_PLAN_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "engine/engine.hh"
#include "serve/fingerprint.hh"

namespace sap {

/** Monotonic cache counters (since construction or clear()). */
struct PlanCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /** Requests whose digest matched a plan of another matrix (hash
     *  collisions), counted once per request. */
    std::uint64_t collisions = 0;

    /** Hit fraction in [0, 1] (0 when no lookups yet). */
    double
    hitRate() const
    {
        std::uint64_t total = hits + misses;
        return total == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/**
 * The cache-identity digest of (engine, plan): what PlanCache keys
 * entries by and what the cluster router (cluster/router.hh) places
 * on its ring to pin a matrix to one shard. Covers engine name,
 * problem kind, array size, and the content digests of the bound
 * matrices (A, and B for MatMul); the combined value goes through
 * finalizeDigest once.
 *
 * @param hash Dense-matrix hash; empty uses fingerprintDense.
 */
Digest planDigest(const std::string &engine_name,
                  const EnginePlan &plan,
                  const DenseHashFn &hash = nullptr);

/**
 * planDigest over operand digests already taken: what planDigest
 * computes once it has hashed A (and B for MatMul, else @p bmat is
 * ignored). The gateway takes the operand digests straight from a
 * SUBMIT's bytes (net/protocol.hh planDigest(SubmitView)) and gets
 * the same value through here.
 */
Digest combinePlanDigest(const std::string &engine_name,
                         ProblemKind kind, Index w, Digest a,
                         Digest bmat);

/**
 * LRU cache of prepared plans keyed by matrix content.
 *
 * Thread-safety: all public members are safe to call concurrently;
 * hit confirmation and plan construction run outside the lock (see
 * file comment), so a slow confirm of a large plan holds up no other
 * lookup.
 *
 * Ownership: entries hold shared_ptr<const PreparedPlan>, so a plan
 * returned by prepare() remains valid after eviction or clear() —
 * eviction only drops the cache's reference. The plan is its own
 * collision-check ground truth and no copy of the bound matrices is
 * kept, so the memory footprint is capacity × plan.
 */
class PlanCache
{
  public:
    /** Default number of cached plans. */
    static constexpr std::size_t kDefaultCapacity = 64;

    /**
     * @param capacity Maximum number of cached plans. Capacity 0
     *        disables caching: every prepare() builds and counts a
     *        miss, and nothing is retained.
     * @param hash Dense-matrix hash; nullptr uses fingerprintDense.
     */
    explicit PlanCache(std::size_t capacity = kDefaultCapacity,
                       DenseHashFn hash = nullptr);

    /** One cache answer: the plan plus whether it was cached. */
    struct Prepared
    {
        std::shared_ptr<const PreparedPlan> plan;
        bool hit = false;
    };

    /**
     * Return the cached prepared plan for @p plan's bound matrices
     * on @p engine, building and inserting it on a miss.
     *
     * @p digest is a hint, never an answer. Callers that hashed the
     * matrices for routing (cluster/cluster.hh, or the gateway one
     * tier up) pass planDigest(engine.name(), plan) so they are not
     * hashed again here. Every match under it is confirmed bit for bit
     * against the cached plan (file comment), so a wrong digest costs
     * cache locality (a miss, a counted collision, an entry filed
     * under the wrong key), never a wrong plan. When the cache was
     * built with a custom hash, the hint is ignored and the digest is
     * recomputed.
     *
     * @pre plan.kind == engine.kind() (asserted by the engine).
     */
    Prepared prepare(const SystolicEngine &engine, const EnginePlan &plan,
                     std::optional<Digest> digest = {});

    /** Counter snapshot. */
    PlanCacheStats stats() const;

    /** Number of plans currently cached. */
    std::size_t size() const;

    /** Maximum number of plans. */
    std::size_t capacity() const { return capacity_; }

    /** Drop all cached plans and reset the counters. */
    void clear();

  private:
    /** One cached plan. A digest match is confirmed against the plan
     *  itself (PreparedPlan::builtFrom()); no operand is kept. */
    struct Entry
    {
        Digest digest;
        std::string engine;
        std::shared_ptr<const PreparedPlan> plan;
    };
    using Lru = std::list<Entry>;

    /**
     * The cached plan @p plan would build on @p engine_name, if any.
     * Called and returning with @p lock held on mutex_, it releases
     * the lock while it confirms candidates (builtFrom()), and takes
     * it again to promote the match if it is still resident. Entries
     * filed under @p digest meanwhile are confirmed in turn, so a
     * null return means no resident entry matches as long as the
     * lock stays held. Candidates refused, here or by an earlier call
     * for the same request, are in @p others, and are not confirmed
     * again.
     */
    std::shared_ptr<const PreparedPlan>
    find(std::unique_lock<std::mutex> &lock, Digest digest,
         const std::string &engine_name, const EnginePlan &plan,
         std::vector<std::shared_ptr<const PreparedPlan>> &others);
    void evictLocked();

    std::size_t capacity_;
    /** True when hash_ is fingerprintDense: only then may callers'
     *  precomputed planDigest() hints stand for the digest.
     *  Declared before hash_ so it is initialized from the ctor
     *  argument before that argument is moved into hash_. */
    bool default_hash_;
    DenseHashFn hash_;

    mutable std::mutex mutex_;
    Lru lru_; ///< front = most recently used
    std::unordered_multimap<Digest, Lru::iterator> index_;
    PlanCacheStats stats_;
};

} // namespace sap

#endif // SAP_SERVE_PLAN_CACHE_HH
