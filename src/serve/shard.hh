/**
 * @file
 * One serving shard: a self-contained array installation with its
 * own worker pool, plan cache, and metrics registry.
 *
 * This is the unit the serving layer composes: one shard is the
 * single-pool server, and the cluster front end (cluster/cluster.hh)
 * owns N of them and routes requests by consistent hashing on the
 * matrix fingerprint, so a given matrix's prepared plan lives on
 * exactly one shard and plan-cache lock contention stays bounded by
 * a shard's own thread count instead of the whole installation's.
 *
 * Two submission surfaces, one path to the plan cache:
 *  - submit()       future-based, for clients that can block;
 *  - submitAsync()  completion-callback, for clients that cannot
 *                   (the callback runs on the worker thread).
 * Repeated requests against one matrix share work through the plan
 * cache: the dense→band transform runs once per distinct matrix and
 * every later request streams its operands through the cached plan.
 */

#ifndef SAP_SERVE_SHARD_HH
#define SAP_SERVE_SHARD_HH

#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "engine/engine.hh"
#include "obs/metrics.hh"
#include "obs/trace_ring.hh"
#include "serve/plan_cache.hh"
#include "serve/thread_pool.hh"

namespace sap {

/** One serving request: which engine, which problem. */
struct ServeRequest
{
    /** Engine registry name ("linear", "hex", ...). */
    std::string engine;
    /** The full problem: bound matrices plus streamed operands. */
    EnginePlan plan;
    /** Cross-check this request against the host oracle. */
    bool crossCheck = false;
    /**
     * End-to-end trace riding with the request (obs/trace_ring.hh);
     * null = untraced (the common case). The shard stamps Dequeue /
     * Prepare / Execute and hands the pointer back on the response.
     */
    std::shared_ptr<RequestTrace> trace;
    /**
     * Cross-tier trace identity, when the request arrived with one
     * on the wire (FORWARD, or SUBMIT with the trace-context flag).
     * !valid() = none; the serving layers never require it.
     */
    TraceContext traceContext;
    /**
     * planDigest(engine, plan), once some tier has computed it: the
     * cluster stores its routing key here, and a FORWARD carries the
     * gateway's. The shard's plan cache then skips hashing the
     * matrices again. A hint, never an answer: the cache confirms
     * every digest match with an exact matrix comparison, so a wrong
     * digest costs cache locality, never a wrong plan. Empty = the
     * shard hashes on its worker.
     */
    std::optional<Digest> digest;
};

/** What a request resolves to. */
struct ServeResponse
{
    /** False when the request was malformed; see error. */
    bool ok = false;
    /** Human-readable reason when !ok. */
    std::string error;
    /** Engine results (valid when ok). */
    EngineRunResult result;
    /** The plan came from the cache (dense→band rebuild skipped). */
    bool cacheHit = false;
    /** False when a requested cross-check mismatched. */
    bool crossCheckOk = true;
    /** Wall-clock service time of this request in microseconds. */
    double latencyMicros = 0;
    /** The request's trace, handed through for downstream stamps
     *  (the network server's flush). */
    std::shared_ptr<RequestTrace> trace;
};

/** Completion callback for the async submission surface. */
using CompletionFn = std::function<void(ServeResponse)>;

/**
 * Labels of the per-(engine, kind, mode) serving series a Shard
 * records (see Shard::metricsSnapshot()): seriesKey() of a
 * serve_engine_* family with these labels names one of them.
 */
MetricLabels engineLabels(const std::string &engine, ProblemKind kind,
                          ExecMode mode);

/**
 * One shard of a serving installation.
 *
 * Thread-safety: all submission surfaces and metricsSnapshot() may
 * be called from any number of client threads. Destruction drains
 * queued requests first, so every returned future becomes ready and
 * every accepted callback fires.
 */
class Shard
{
  public:
    struct Options
    {
        /** Worker threads dedicated to this shard. */
        std::size_t threads = 2;
        /** Plans kept by this shard's LRU plan cache. */
        std::size_t planCacheCapacity = PlanCache::kDefaultCapacity;
    };

    explicit Shard(const Options &opts);

    /** Drains in-flight and queued requests, then stops workers. */
    ~Shard() = default;

    Shard(const Shard &) = delete;
    Shard &operator=(const Shard &) = delete;

    /** Enqueue @p req; the future resolves when a worker served it. */
    std::future<ServeResponse> submit(ServeRequest req);

    /**
     * Enqueue @p req; @p done runs on the worker thread that served
     * it, with the response. For clients that cannot block on
     * futures — the network server answers the connection from it.
     */
    void submitAsync(ServeRequest req, CompletionFn done);

    /** Worker count. */
    std::size_t threadCount() const { return pool_.threadCount(); }

    /** The shard's plan cache (for tests and monitoring). */
    const PlanCache &planCache() const { return cache_; }

    /**
     * Point-in-time copy of this shard's obs/ metrics (plan-cache
     * counters injected from the cache, queue depth from the live
     * gauge). Besides the unlabelled totals (serve_requests_total,
     * serve_latency_micros, ...) it carries the per-(engine, kind,
     * mode) breakdown as labelled series: serve_engine_requests_total,
     * serve_engine_cache_hits_total, serve_engine_skeleton_hits_total
     * (plan-cache misses whose plan found its shape's skeleton live),
     * serve_engine_sim_cycles_total and the
     * serve_engine_latency_micros histogram. Cluster snapshots
     * merge these exactly — counters and histogram buckets add.
     */
    MetricsSnapshot metricsSnapshot() const;

    /**
     * Requests enqueued but not yet picked up by a worker, from the
     * live queue-depth gauge — the health model's saturation input,
     * cheaper than a full snapshot.
     */
    double queueDepth() const;

  private:
    /** Serve @p req on the calling worker: validate it, fetch or
     *  build its plan (reusing req.digest when set), execute, and
     *  record the outcome. */
    ServeResponse handle(const ServeRequest &req);
    /** Error response for a malformed request (records the failure). */
    ServeResponse fail(std::string error,
                       std::chrono::steady_clock::time_point t0);
    /** Execute a validated request through @p prepared and record it. */
    ServeResponse finish(const ServeRequest &req,
                         const SystolicEngine &engine,
                         const PreparedPlan &prepared, bool cacheHit,
                         std::chrono::steady_clock::time_point t0);
    /** Lazily instantiated shared engine instances, by name. */
    const SystolicEngine *engineFor(const std::string &name);

    /** Hot-path instruments resolved once at construction, so
     *  recording never pays the registry's name lookup. */
    struct Instruments
    {
        Counter *requests = nullptr;
        Counter *failures = nullptr;
        Counter *crossCheckFailures = nullptr;
        Gauge *queueDepth = nullptr;
        Gauge *cyclesDrift = nullptr;
        Histogram *queueWait = nullptr;
        Histogram *latency = nullptr;
    };

    /** The labelled series one served request feeds, per (engine,
     *  mode); the engine fixes the problem kind. */
    struct EngineSeries
    {
        Counter *requests = nullptr;
        Counter *cacheHits = nullptr;
        Counter *skeletonHits = nullptr;
        Counter *simCycles = nullptr;
        Histogram *latency = nullptr;
    };
    /** @p engine's series for @p mode, registered on first use. */
    const EngineSeries &seriesFor(const std::string &engine,
                                  ProblemKind kind, ExecMode mode);

    PlanCache cache_;
    MetricsRegistry metrics_;
    Instruments inst_;

    std::mutex series_mutex_;
    std::map<std::pair<std::string, ExecMode>, EngineSeries> series_;

    std::mutex engines_mutex_;
    std::map<std::string, std::unique_ptr<SystolicEngine>> engines_;

    /** Declared last: destroyed first, so workers drain while every
     *  other member is still alive. */
    ThreadPool pool_;
};

} // namespace sap

#endif // SAP_SERVE_SHARD_HH
