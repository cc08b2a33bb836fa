/**
 * @file
 * End-to-end request tracing: stage timestamps carried with each
 * request through the net → cluster → shard pipeline, with sampled
 * commits into bounded per-thread ring buffers.
 *
 * A served request crosses two thread domains (the server IO thread
 * decodes and routes it; the shard worker executes it, then encodes
 * and queues its response) and waits in the shard's queue between
 * them; per-(engine,shape) latency totals cannot say *where* a slow
 * request spent its time. Tracing answers that: each traced request
 * carries a RequestTrace — a request id plus one monotonic timestamp
 * per TraceStage — stamped as it passes each boundary. Stages map to
 * the wire/cluster pipeline:
 *
 *   Decode    SUBMIT frame decoded on the IO thread
 *   Route     consistent-hash shard selection in the cluster
 *   Dequeue   shard worker picked the request off the pool queue
 *   Prepare   plan-cache lookup done (hit or rebuilt)
 *   Execute   engine runPrepared returned
 *   CqPush    stamped by no tier; the slot stays so that TRACES
 *             frames and CSV rows keep eight stages (an older peer
 *             still decodes them)
 *   WriterPop gateway only (gw_relay_pop, below)
 *   Flush     RESPONSE encoded and queued on the client connection
 *
 * Cost model: when tracing is enabled every request gets a
 * RequestTrace (one small allocation plus one steady_clock read per
 * stage — the only way "always sample slow requests" can work, since
 * slowness is only known at the end); the trace is *committed* to a
 * ring only when sampled (1-in-N) or slow (≥ slowMicros, also logged
 * via SAP_LOG_WARN). When tracing is disabled requests carry a null
 * pointer and every stamp is a no-op branch.
 *
 * Commits go to small per-thread ring buffers (TraceConfig::
 * ringCapacity each) so threads never contend on a shared ring in the
 * hot path: a backend commits on each shard worker, so it keeps up to
 * workers × ringCapacity traces. snapshot() collects all rings under
 * the registration lock. All cross-thread trace handoffs ride the
 * same mutex-protected queues as the request itself, so stamps need
 * no atomics of their own.
 */

#ifndef SAP_OBS_TRACE_RING_HH
#define SAP_OBS_TRACE_RING_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace sap {

/** Pipeline stages a request is stamped at, in pipeline order. */
enum class TraceStage : std::uint8_t
{
    Decode = 0,
    Route,
    Dequeue,
    Prepare,
    Execute,
    CqPush,
    WriterPop,
    Flush,
};

/** Number of TraceStage values. */
constexpr std::size_t kTraceStages = 8;

/**
 * Which tier of the serving stack stamped a trace. Backends stamp
 * six of the eight TraceStage slots with their pipeline meaning
 * (not CqPush or WriterPop); the gateway reuses a monotone subset of
 * the same slots for its own stages (Decode=gw_decode,
 * Route=gw_route, Dequeue=gw_forward, WriterPop=gw_relay_pop,
 * Flush=gw_flush) so span math works unchanged while names and
 * export lanes stay distinct.
 */
enum class TraceTier : std::uint8_t
{
    Backend = 0,
    Gateway = 1,
};

/** Printable stage name ("decode", "route", ...). */
const char *traceStageName(TraceStage stage);

/** Tier-aware stage name (gateway slots read "gw_decode", ...). */
const char *traceStageName(TraceStage stage, TraceTier tier);

/**
 * The cross-tier trace identity a request carries on the wire: a
 * 128-bit trace id, the edge's head-sampling decision, the edge's
 * monotonic clock at admission (so stitched views can show the
 * gateway→backend gap even though the tiers run separate steady
 * clocks on one host), and the delivery attempt (0 = first send,
 * bumped per gateway resubmit).
 *
 * An all-zero trace id means "no context" — makeTraceContext never
 * produces one and the wire codec rejects it.
 */
struct TraceContext
{
    std::uint64_t traceIdHi = 0;
    std::uint64_t traceIdLo = 0;
    bool sampled = false;
    std::uint64_t originNanos = 0;
    std::uint8_t attempt = 0;

    bool valid() const { return (traceIdHi | traceIdLo) != 0; }
};

/** 32-hex-digit lowercase rendering of the 128-bit trace id. */
std::string traceIdHex(const TraceContext &ctx);

/**
 * Mint a fresh context at the edge: unique nonzero 128-bit id,
 * @p sampled as decided by the edge's head sampler, originNanos =
 * steady_clock now, attempt 0.
 */
TraceContext makeTraceContext(bool sampled);

/** A point-in-time annotation on a trace (failover, resubmit, ...).
 *  Named TracePoint to stay clear of the simulator's TraceEvent
 *  (sim/trace.hh) — both live in namespace sap. */
struct TracePoint
{
    std::string name;
    std::uint64_t nanos = 0;
};

/**
 * One request's trace: id, metadata, and a monotonic nanosecond
 * timestamp per stage (0 = never stamped). Owned by a shared_ptr that
 * rides ServeRequest/ServeResponse; each field is written by exactly
 * one pipeline thread and every handoff between threads goes through
 * a mutex-protected queue, which orders the writes.
 */
struct RequestTrace
{
    std::uint64_t requestId = 0;
    /** Engine + shape label filled in by the shard ("linear mv ..."). */
    std::string label;
    /** Problem kind ("matvec"/"matmul"/"trisolve"); "" = unknown. */
    std::string kind;
    bool cacheHit = false;
    bool ok = true;
    /** Which tier's stage vocabulary stageNanos uses. */
    TraceTier tier = TraceTier::Backend;
    /** Cross-tier identity; !ctx.valid() = locally-sampled trace. */
    TraceContext ctx;
    std::uint64_t stageNanos[kTraceStages] = {};
    /** Point events (gateway failover/resubmit), stamp order. */
    std::vector<TracePoint> events;

    void addEvent(std::string name)
    {
        events.push_back(
            {std::move(name),
             static_cast<std::uint64_t>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now()
                         .time_since_epoch())
                     .count())});
    }

    void stamp(TraceStage stage)
    {
        stageNanos[static_cast<std::size_t>(stage)] =
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count());
    }

    std::uint64_t nanosAt(TraceStage stage) const
    {
        return stageNanos[static_cast<std::size_t>(stage)];
    }

    /** First stamped timestamp (0 when none). */
    std::uint64_t startNanos() const;
    /** Last stamped timestamp (0 when none). */
    std::uint64_t endNanos() const;
    /** endNanos - startNanos, in microseconds. */
    double totalMicros() const;
};

/** Stamp @p stage iff @p trace is non-null (the universal call). */
inline void
traceStamp(const std::shared_ptr<RequestTrace> &trace, TraceStage stage)
{
    if (trace)
        trace->stamp(stage);
}

/** Tracing knobs (TraceCollector construction). */
struct TraceConfig
{
    /** Master switch; off = requests carry no trace at all. */
    bool enabled = false;
    /** Commit 1 in sampleEvery requests (1 = all, 0 = none). */
    std::uint32_t sampleEvery = 64;
    /** Requests at or above this total latency always commit and are
     *  logged at Warn level. 0 disables the slow path. */
    double slowMicros = 0;
    /** Capacity of each per-thread ring. A tier keeps up to
     *  (committing threads × ringCapacity) traces: a backend commits
     *  on every shard worker, a gateway on its IO thread. */
    std::size_t ringCapacity = 1024;
};

/**
 * Fixed-capacity overwrite-oldest ring of committed traces. One per
 * committing thread; push is a lock over a thread-private ring
 * (uncontended in steady state — snapshot() is the only other
 * locker).
 */
class TraceRing
{
  public:
    explicit TraceRing(std::size_t capacity) : capacity_(capacity)
    {
        slots_.reserve(capacity);
    }

    void push(RequestTrace trace);
    /** Committed traces, oldest first. */
    std::vector<RequestTrace> snapshot() const;
    std::uint64_t totalCommitted() const;

  private:
    mutable std::mutex mu_;
    std::size_t capacity_;
    std::size_t next_ = 0;
    std::uint64_t committed_ = 0;
    std::vector<RequestTrace> slots_;
};

/**
 * The process-wide tracing front end: owns the config, the sampling
 * counter, the per-thread rings, and the per-stage span histograms
 * (recorded into @p stageMetrics for every *committed* trace, so
 * stage p50/p99 come from the same source as the exports).
 */
class TraceCollector
{
  public:
    explicit TraceCollector(TraceConfig config,
                            MetricsRegistry *stageMetrics = nullptr);

    const TraceConfig &config() const { return config_; }
    bool enabled() const { return config_.enabled; }

    /**
     * Begin tracing one request: returns a fresh RequestTrace with a
     * unique id, or null when tracing is disabled (callers thread the
     * null through and every stamp no-ops).
     */
    std::shared_ptr<RequestTrace> begin();

    /**
     * Begin tracing a request that arrived with a propagated
     * TraceContext: the edge already made the sampling decision, so
     * this returns null unless tracing is enabled here *and* the
     * context is marked sampled — honoring the edge's 1-in-N instead
     * of rolling a second one (which would sample 1-in-N² of
     * cross-tier requests). The returned trace carries @p ctx and is
     * committed unconditionally by finish().
     */
    std::shared_ptr<RequestTrace> adopt(const TraceContext &ctx);

    /**
     * Consume one tick of the 1-in-N head sampler and return whether
     * this request is sampled. For the edge tier, which decides once
     * per request and stamps the decision into the TraceContext it
     * propagates. False when tracing is disabled.
     */
    bool headSample();

    /**
     * Finish a trace: decide sampled-or-slow, record per-stage span
     * histograms, and commit into the calling thread's ring. Traces
     * carrying a valid TraceContext commit iff the context is marked
     * sampled (the edge's decision) or the trace is slow. Safe to
     * call with null (no-op). Returns true when the trace committed.
     */
    bool finish(const std::shared_ptr<RequestTrace> &trace);

    /** All committed traces across rings, oldest-to-newest per ring. */
    std::vector<RequestTrace> snapshot() const;

    /** Total commits across all rings (≥ snapshot().size()). */
    std::uint64_t totalCommitted() const;

  private:
    TraceRing &ringForThisThread();

    TraceConfig config_;
    MetricsRegistry *stage_metrics_;
    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<std::uint64_t> sample_counter_{0};

    mutable std::mutex rings_mu_; ///< guards the ring map
    /** One ring per committing thread, keyed by currentThreadId().
     *  Commits are sampled, so the lookup lock is uncontended. */
    std::map<std::uint32_t, std::unique_ptr<TraceRing>> rings_;
};

/** Span durations between consecutive stamped stages of @p trace:
 *  (fromStage, toStage, micros) tuples in pipeline order. */
struct TraceSpan
{
    TraceStage from;
    TraceStage to;
    double micros = 0;
};
std::vector<TraceSpan> traceSpans(const RequestTrace &trace);

} // namespace sap

#endif // SAP_OBS_TRACE_RING_HH
