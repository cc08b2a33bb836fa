/**
 * @file
 * Routing gateway: one front door fanned out over several NetServer
 * backends — the consistent-hash ring applied one level up.
 *
 * Inside one installation, cluster/router.hh pins each plan digest
 * to the shard that caches its prepared plan. A fleet of
 * installations wants the same property across *processes*: every
 * matrix should land on the backend whose shards already hold its
 * plan, whatever client opened which connection. Gateway provides
 * that hop. It speaks the ordinary wire protocol to clients (an
 * existing NetClient needs no changes) and never decodes a SUBMIT:
 * scanSubmit (net/protocol.hh) validates it with every check a
 * backend's decoder makes, leaving the operands as byte spans; the
 * plan digest is taken straight from the matrix bytes (a matrix's
 * digest is defined over its wire words, serve/fingerprint.hh); and
 * the already-encoded payload relays to the owning backend inside a
 * FORWARD frame — so the digest is computed once at the edge and
 * reused by the backend's shard router and plan cache, and nothing
 * a backend would reject ever reaches one. The payload is not copied
 * into the FORWARD either: the gateway queues a small head (header
 * and envelope, buildForwardHead) and then the payload bytes it keeps
 * for resubmission, shared with the backend's output queue, and it
 * relays a RESPONSE as a new header and the payload it received.
 *
 *        clients ──▶ gateway IO thread ──FORWARD──▶ backend 0
 *                        │ ring over               backend 1
 *                        ▼ routable set            backend …
 *                 RESPONSE relayed back by tag
 *
 * Health and failover: each backend connection carries periodic
 * PINGs; a backend that misses Options::pingMissLimit replies in a
 * row, drops its TCP connection, or (when a backend admin port is
 * configured) fails its /healthz probe is removed from the routable
 * set, the ring is rebuilt over the survivors, and every SUBMIT that
 * was in flight to it is resubmitted to its new owner — safe because
 * serving is pure compute (resubmission re-executes; it cannot
 * double-apply), and duplicate-free toward the client because the
 * in-flight entry is erased when the first response relays, so a
 * late duplicate from a half-dead backend finds no tag and is
 * dropped. A request whose resubmit budget (Options::maxResubmits)
 * runs out, or that arrives with no routable backend, earns a clean
 * ERROR frame — a client never hangs on a dead backend.
 *
 * Snapshot frames scatter-gather: METRICS and TRACES requests fan
 * out to every routable backend and the replies merge exactly
 * (MetricsSnapshot::merge, labelled series included; TRACES
 * concatenates — the export layer stitches by trace id) before one
 * frame goes back to the client; backends that die mid-gather simply
 * drop out of the merge. PING is answered at the gateway itself — it
 * measures the front door, not a backend. Frame type 3 (the retired
 * STATS) is an unexpected frame like any other: an ERROR.
 *
 * Tracing: the gateway is the *edge* of the cross-tier trace path.
 * With Options::trace enabled it head-samples once per request,
 * mints a TraceContext (obs/trace_ring.hh) unless the request
 * already carried one, FORWARDs the context so backends honor the
 * same decision, and records its own gateway-tier trace (gw_decode →
 * gw_route → gw_forward → gw_relay_pop → gw_flush, plus failover /
 * resubmit point events carrying the attempt number). The embedded
 * admin plane (Options::adminEnabled) is the same AdminPlane as
 * NetServer's (net/front_door.hh) with a stitched /tracez: backend
 * rings are gathered over the wire and joined with the gateway's own
 * by trace id, so one request renders as two process lanes in
 * Perfetto.
 *
 * IO: the gateway runs on the shared front door (net/front_door.hh)
 * — the same listen socket, connection handling, backpressure and
 * error policy as NetServer. Its backend connections are AsyncClients
 * watched on the door's event loop, and a per-wakeup tick sends
 * liveness PINGs and retries down backends.
 *
 * Thread-safety: start()/stop() serialize on a lifecycle mutex; the
 * metrics and health accessors are safe from any thread. Everything
 * else lives on the door's one IO thread.
 */

#ifndef SAP_NET_GATEWAY_HH
#define SAP_NET_GATEWAY_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.hh"
#include "net/async_client.hh"
#include "net/front_door.hh"
#include "obs/metrics.hh"

namespace sap {

/**
 * TCP routing tier over several NetServer backends (see file
 * comment).
 *
 * Lifecycle: construct with options, start(); port() reports the
 * bound client-facing port. stop() closes every connection and
 * joins; like NetServer, a stopped gateway cannot be restarted.
 */
class Gateway
{
  public:
    /** One backend's address (a NetServer reached over TCP). */
    struct BackendAddr
    {
        std::string host = "127.0.0.1";
        /** Wire-protocol (data plane) port. */
        std::uint16_t port = 0;
        /** Admin-plane port for /healthz probing; 0 = no probe,
         *  PING liveness alone governs routability. */
        std::uint16_t adminPort = 0;
    };

    /**
     * The shared front-door options (net/front_door.hh) plus routing
     * and liveness. The gateway is the edge tier of tracing: with
     * trace enabled it makes the head-sampling decision once per
     * request, stamps its own gw_* stages, and propagates a
     * TraceContext on every FORWARD so backends honor the same
     * decision. A request that already arrives with a context (a
     * gateway one tier up, or a client that opted in) keeps it —
     * sampling is decided exactly once. Its admin plane adds the
     * stitched cross-tier /tracez.
     */
    struct Options : FrontDoorOptions
    {
        /** The backends fronted (at least one). */
        std::vector<BackendAddr> backends;
        /** Liveness PING cadence per routable backend. */
        int pingIntervalMs = 200;
        /** Unanswered PINGs in a row before a backend is declared
         *  down (its connection is dropped and traffic fails over). */
        int pingMissLimit = 3;
        /** How long a down backend waits before a reconnect try. */
        int reconnectIntervalMs = 300;
        /** /healthz probe cadence for backends with an adminPort;
         *  0 disables HTTP probing entirely. */
        int healthzIntervalMs = 500;
        /** Times one SUBMIT may fail over before the client gets an
         *  ERROR frame instead. */
        std::size_t maxResubmits = 2;
    };

    explicit Gateway(const Options &opts);

    /** Calls stop(). */
    ~Gateway();

    Gateway(const Gateway &) = delete;
    Gateway &operator=(const Gateway &) = delete;

    /**
     * Bind the client port, spawn the IO thread (and the /healthz
     * prober when configured), and begin connecting backends.
     * Backends need not be up yet: routing begins per backend as its
     * first PING answer arrives. @return false with error() set on
     * socket failure.
     */
    bool start();

    /** Close everything and join; idempotent. In-flight requests are
     *  dropped (their clients see a closed connection). */
    void stop();

    bool running() const { return running_.load(); }

    /** The bound client-facing port (valid after start()). */
    std::uint16_t port() const { return door_.port(); }

    /** Why start() failed (empty otherwise). */
    const std::string &error() const { return error_; }

    /** Backends currently in the routable set. */
    std::size_t routableBackends() const
    {
        return routable_count_.load();
    }

    /**
     * The gateway's own obs/ registry snapshot: gateway_requests_total,
     * gateway_responses_relayed_total, gateway_failovers_total (backend
     * transitions routable → down), gateway_resubmits_total,
     * gateway_errors_total (ERROR frames sent to clients), the
     * gateway_route_micros histogram, and the gateway_backends_routable,
     * gateway_clients_live and gateway_backend_inflight{backend="i"}
     * gauges. Backend registries are NOT merged in — the METRICS frame
     * does that per request.
     */
    MetricsSnapshot metricsSnapshot() const;

    /** The admin plane's bound TCP port (0 unless adminEnabled and
     *  started). */
    std::uint16_t adminPort() const { return admin_.port(); }

    /** Current health verdict (degenerate always-healthy report when
     *  the admin plane is off, as NetServer's). */
    HealthReport healthReport() const { return admin_.report(); }

    /** The flight recorder (null unless adminEnabled). */
    const FlightRecorder *flightRecorder() const
    {
        return admin_.recorder();
    }

    /** The gateway's own committed traces (not the backends'; the
     *  TRACES frame and /tracez scatter-gather those per request). */
    std::vector<RequestTrace> traceSnapshot() const
    {
        return collector_.snapshot();
    }

  private:
    /** One backend: its async connection plus liveness state. All
     *  fields IO-thread-only except adminHealthy (prober writes). */
    struct Backend
    {
        BackendAddr addr;
        AsyncClient conn;
        /** In the ring: connected, ping-confirmed, admin-healthy. */
        bool routable = false;
        /** Liveness probe bookkeeping. */
        bool pingOutstanding = false;
        std::uint64_t pingTag = 0;
        int missedPings = 0;
        /** Wait ticks before the next reconnect attempt. */
        int reconnectWaitMs = 0;
        /** Written by the prober thread, read by the IO thread. */
        std::atomic<bool> adminHealthy{true};
        /** FORWARDs sent, responses not yet back. */
        std::uint64_t inflight = 0;
        Gauge *inflightGauge = nullptr;

        explicit Backend(const BackendAddr &a) : addr(a) {}
    };

    /** One routed SUBMIT awaiting its backend response. */
    struct Inflight
    {
        std::uint64_t clientConnId = 0;
        std::uint64_t clientTag = 0;
        std::size_t backendIdx = 0;
        Digest digest = 0;
        /** The SUBMIT payload bytes: sent behind each FORWARD head
         *  (to the first backend and on every resubmission) as a
         *  shared segment of the backend's output queue. */
        std::shared_ptr<std::vector<std::uint8_t>> submitPayload;
        std::size_t resubmits = 0;
        std::chrono::steady_clock::time_point start;
        /** The context FORWARDed with this request (!valid() = the
         *  request rides untraced). attempt tracks resubmits. */
        TraceContext ctx;
        /** The gateway's own trace of this request (null unless the
         *  request is sampled here). */
        std::shared_ptr<RequestTrace> trace;
    };

    /** One scatter-gather METRICS/TRACES in progress. */
    struct Gather
    {
        std::uint64_t clientConnId = 0;
        std::uint64_t clientTag = 0;
        /** METRICS or TRACES. */
        FrameType kind = FrameType::Metrics;
        std::size_t awaiting = 0;
        MetricsSnapshot metricsMerged;
        /** Traces gathered so far (seeded with the gateway's own). */
        std::vector<RequestTrace> tracesMerged;
        std::uint64_t tracesTotal = 0;
    };

    void proberLoop();
    /** FrontDoor::Hooks::onFrame: a client frame other than PING. */
    void handleClientFrame(std::uint64_t conn_id, Frame &&frame);
    /** FrontDoor::Hooks::onOwnerReady: drive backend @p idx. */
    void handleBackendReady(std::size_t idx, const EventLoop::Ready &ev);
    void handleBackendFrame(std::size_t idx, Frame &&frame);
    /** FrontDoor::Hooks::onTick: liveness PINGs and reconnects. */
    void tick();
    /** Route a scanned SUBMIT/FORWARD payload to its ring owner,
     *  FORWARDing @p ctx when valid and stamping @p trace (may be
     *  null) through the gateway stages. */
    void routeSubmit(std::uint64_t conn_id, std::uint64_t client_tag,
                     Digest digest,
                     std::vector<std::uint8_t> submit_payload,
                     const TraceContext &ctx,
                     std::shared_ptr<RequestTrace> trace);
    /** Queue @p fl's FORWARD (head, then the shared SUBMIT payload)
     *  on backend fl.backendIdx under @p gwtag. */
    void sendForward(std::uint64_t gwtag, const Inflight &fl);
    /** Fan a METRICS/TRACES request out to every routable backend. */
    void startGather(std::uint64_t conn_id, std::uint64_t client_tag,
                     FrameType kind);
    void finishGatherIfDone(std::uint64_t gather_id);
    void updateBackendInterest(std::size_t idx);
    /** Remove backend @p idx from the routable set, drop its
     *  connection if still open, re-ring, and migrate or fail its
     *  in-flight requests. */
    void backendDown(std::size_t idx, const std::string &reason);
    /** Ping-confirmed (and admin-healthy) backend joins the ring. */
    void backendUp(std::size_t idx);
    /** Rebuild ring_ / ring_map_ over the routable set. */
    void rebuildRing();
    void sendPings();
    void tryReconnects(int elapsed_ms);
    /** Begin a (re)connect of backend @p idx and register its fd. */
    void tryConnect(std::size_t idx);
    /** First PING after a connect: routability gates on its answer. */
    void sendLivenessPing(std::size_t idx);
    /** True while responses or gather replies are still owed to this
     *  client (a half-closed conn must survive until delivery). */
    bool clientOwedWork(std::uint64_t conn_id) const;
    /** Begin (or continue) tracing a request admitted at the front
     *  door: mint a context when none arrived and tracing is on,
     *  adopt it into a gateway-tier trace, stamp Decode. */
    std::shared_ptr<RequestTrace>
    admitTrace(TraceContext *ctx, const SubmitView &view);
    /** The admin plane's health inputs. */
    HealthInputs healthInputs() const;
    /** Fetch the stitchable cross-tier trace set (the gateway's own
     *  rings plus every routable backend's) by round-tripping a
     *  TRACES frame through the gateway's own front door. */
    bool gatherTracesForAdmin(std::vector<RequestTrace> *out,
                              std::uint64_t *total) const;

    Options opts_;
    std::string error_;

    std::mutex lifecycle_mutex_;
    bool stopped_ = false;
    std::atomic<bool> running_{false};
    /** Tells the prober thread to exit. */
    std::atomic<bool> exiting_{false};

    /** IO-thread only (except where noted). */
    std::vector<std::unique_ptr<Backend>> backends_;
    /** Ring over the routable subset; ring_map_[ring shard] =
     *  backend index. Empty while no backend is routable. */
    std::unique_ptr<ConsistentHashRouter> ring_;
    std::vector<std::size_t> ring_map_;
    std::atomic<std::size_t> routable_count_{0};
    /** tick() bookkeeping. */
    std::chrono::steady_clock::time_point last_tick_;
    std::chrono::steady_clock::time_point last_ping_;

    std::uint64_t next_tag_ = 1;
    std::map<std::uint64_t, Inflight> inflight_;
    /** The payload buffer of the last relayed request, once no
     *  output queue shares it. The next client SUBMIT hands it to the
     *  front door's decoder, which receives a later frame into it
     *  (FrameDecoder::next), so the payloads the gateway keeps for
     *  resubmission do not cost each request a freshly grown and
     *  zero-filled buffer. */
    std::vector<std::uint8_t> spare_payload_;
    /** One outstanding leg of a scatter-gather: which gather it
     *  belongs to and which backend owes the reply (so a backend
     *  death mid-gather releases the leg instead of hanging it). */
    struct GatherLeg
    {
        std::uint64_t gatherId = 0;
        std::size_t backendIdx = 0;
    };
    /** Backend tag → leg, for METRICS/TRACES fan-out. */
    std::map<std::uint64_t, GatherLeg> gather_tags_;
    std::uint64_t next_gather_id_ = 1;
    std::map<std::uint64_t, Gather> gathers_;

    std::thread prober_thread_;

    /** The gateway's registry; the door's counts are injected into
     *  metricsSnapshot() as gateway_errors_total and
     *  gateway_clients_live, never recorded here (the METRICS gather
     *  seeds its merge with this registry). */
    MetricsRegistry metrics_;
    struct Instruments
    {
        Counter *requests = nullptr;
        Counter *relayed = nullptr;
        Counter *failovers = nullptr;
        Counter *resubmits = nullptr;
        Gauge *backendsRoutable = nullptr;
        Histogram *routeMicros = nullptr;
    } inst_;

    /** Declared after metrics_: stage histograms feed the registry. */
    TraceCollector collector_;

    /** Declared last: their threads call back into everything
     *  above. */
    AdminPlane admin_;
    FrontDoor door_;
};

/**
 * One blocking /healthz probe against @p host:@p admin_port with a
 * short timeout: true when the endpoint answers 200 (Ok or Degraded
 * both serve 200 — see obs/health.hh). Exposed for tests.
 */
bool probeHealthz(const std::string &host, std::uint16_t admin_port,
                  int timeout_ms);

} // namespace sap

#endif // SAP_NET_GATEWAY_HH
