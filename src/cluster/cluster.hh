/**
 * @file
 * The multi-array cluster front end: N shards behind one door.
 *
 * The paper's size-independent scheme makes one fixed w-wide array
 * serve arbitrarily large problems; a real installation runs many
 * such arrays (the multi-processor direction of the hyper-systolic
 * line of work). Cluster models that: each shard is a self-contained
 * array installation (serve/shard.hh) with its own worker subset and
 * plan cache, and requests are routed by consistent hashing on the
 * plan digest (serve/plan_cache.hh planDigest), so
 *
 *  - a given matrix's prepared plan is built and cached on exactly
 *    one shard — aggregate plan-cache capacity scales with the shard
 *    count and no plan is duplicated;
 *  - plan-cache and metrics lock contention stays bounded by one
 *    shard's thread count, not the installation's;
 *  - growing the installation re-homes only ~1/N of the matrices
 *    (cluster/router.hh).
 *
 * IO surfaces: future-based submit(), and completion-callback
 * submitAsync() for clients that cannot block on futures (the
 * network server answers each connection from the callback). Each
 * hashes a request at most once: the routing key is stored on the
 * request (ServeRequest::digest) before the shard sees it, and a
 * request that arrives with a digest is not hashed again.
 */

#ifndef SAP_CLUSTER_CLUSTER_HH
#define SAP_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "cluster/router.hh"
#include "serve/shard.hh"

namespace sap {

/**
 * Sharded serving front end: routes each request to the shard that
 * owns its plan digest, so one matrix's prepared plan lives on
 * exactly one shard (see file comment).
 *
 * Thread-safety: all submission surfaces and metricsSnapshot() may
 * be called from any number of client threads; completion callbacks
 * run on the serving shard's worker thread.
 *
 * Ownership: the cluster owns its shards (and through them all
 * worker threads and plan caches). Destruction drains every shard,
 * so returned futures become ready and every accepted callback
 * fires before the destructor returns: whatever a callback
 * touches must outlive the cluster. References returned by shard()
 * stay valid for the cluster's lifetime.
 */
class Cluster
{
  public:
    struct Options
    {
        /** Number of shards (array installations). */
        std::size_t shards = 2;
        /** Worker threads dedicated to each shard. */
        std::size_t threadsPerShard = 2;
        /** Plans kept by each shard's LRU plan cache. */
        std::size_t planCacheCapacityPerShard =
            PlanCache::kDefaultCapacity;
    };

    /** Cluster with default options. */
    Cluster();

    explicit Cluster(const Options &opts);

    /** Drains every shard; see class comment. */
    ~Cluster() = default;

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** Number of shards. */
    std::size_t shardCount() const { return shards_.size(); }

    /**
     * The routing key of @p req: its plan digest — req.digest when a
     * tier above already computed it (a FORWARD carries the
     * gateway's), else planDigest(req.engine, req.plan).
     * Deterministic in the request content alone.
     */
    static Digest routingKey(const ServeRequest &req);

    /** Which shard @p req routes to, in [0, shardCount()). */
    std::size_t shardFor(const ServeRequest &req) const;

    /** Route @p req to its shard; the future resolves when served. */
    std::future<ServeResponse> submit(ServeRequest req);

    /**
     * Route @p req to its shard; @p done runs on the worker thread
     * that served it.
     */
    void submitAsync(ServeRequest req, CompletionFn done);

    /**
     * Whole-installation obs/ metrics: every shard's registry
     * snapshot merged *exactly* — counters and histogram buckets
     * add, gauges follow their GaugeAgg — so cluster p50/p99 equal
     * what one process observing every request would report, for
     * the unlabelled totals and for each labelled (engine, kind,
     * mode) series alike. The network layer's METRICS frame serves
     * this (plus its own wire-level registry); the per-shard detail
     * stays on each shard's own metricsSnapshot().
     */
    MetricsSnapshot metricsSnapshot() const;

    /**
     * Requests enqueued but not yet picked up, summed across shards
     * — the health model's saturation input, cheaper than a metrics
     * snapshot.
     */
    double queueDepth() const;

    /** Direct access to shard @p i (for tests and monitoring). */
    const Shard &shard(std::size_t i) const;

  private:
    /** Store @p req's routing key on it, stamp Route, and return
     *  the owning shard. */
    Shard &route(ServeRequest &req);

    Options opts_;
    ConsistentHashRouter router_;
    /** unique_ptr: Shard is non-movable (owns threads and mutexes). */
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace sap

#endif // SAP_CLUSTER_CLUSTER_HH
