/**
 * @file
 * Event-loop multi-client TCP front end over the array cluster.
 *
 * NetServer is the network boundary of the installation: it owns a
 * Cluster and bridges the socket world to the cluster's async IO
 * surface. One IO thread runs a level-triggered event loop
 * (net/event_loop.hh: epoll on Linux, poll elsewhere) over the
 * listening socket and every client connection — interest masks are
 * updated where connection state changes rather than rebuilt per
 * wakeup, so ten thousand mostly-idle connections cost nothing per
 * event. Decoded SUBMIT frames go straight into
 * Cluster::submitToQueue(), and a writer thread drains the shared
 * CompletionQueue into per-connection output buffers. The shards
 * therefore never block on a client: a slow reader only grows its
 * own buffer while every other connection keeps streaming.
 *
 *          clients ──TCP──▶ IO thread ──submitToQueue──▶ Cluster
 *             ▲                 │ flush                      │
 *             └── output bufs ◀─┴── writer thread ◀── CompletionQueue
 *
 * Error policy (see net/protocol.hh): payload-level garbage (unknown
 * problem kind, zero dimensions, truncated payload) earns an ERROR
 * frame and the connection keeps serving; frame-level garbage (bad
 * magic/version, oversized length prefix) earns an ERROR frame and a
 * graceful close, because the byte stream cannot be re-synchronized.
 * Neither disturbs other connections or the server. Requests that
 * decode but fail serving-layer validation (unknown engine name,
 * shape mismatches) are not protocol errors: they come back as
 * normal RESPONSE frames with ok = false, exactly as the in-process
 * serving layer reports them.
 *
 * Thread-safety: start()/stop() may be called from any client thread
 * (they serialize on an internal lifecycle mutex); the accessors are
 * safe once start() has returned. stop() (and destruction) drains
 * the cluster, so every accepted request is answered or discarded
 * with the connection, never leaked.
 */

#ifndef SAP_NET_SERVER_HH
#define SAP_NET_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hh"
#include "net/event_loop.hh"
#include "net/protocol.hh"
#include "obs/health.hh"
#include "obs/http_admin.hh"
#include "obs/timeseries.hh"
#include "obs/trace_ring.hh"

namespace sap {

/**
 * TCP server owning an array cluster (see file comment).
 *
 * Lifecycle: construct with options, call start(); port() reports
 * the bound port (useful with Options::port = 0, which binds an
 * ephemeral loopback port). stop() is idempotent and runs a graceful
 * shutdown: stop reading, drain the cluster, flush what can be
 * flushed, close. A stopped server cannot be restarted — construct
 * a new instance.
 */
class NetServer
{
  public:
    struct Options
    {
        /** The cluster this server fronts. */
        Cluster::Options cluster;
        /** TCP port; 0 binds an ephemeral port (see port()). */
        std::uint16_t port = 0;
        /** Per-frame payload cap enforced on every connection. */
        std::uint32_t maxPayloadBytes = kDefaultMaxPayloadBytes;
        /**
         * Backpressure threshold: while a connection's pending
         * output exceeds this, the server stops reading new frames
         * from it (already-accepted requests still complete and
         * deliver), so a client that pipelines without reading
         * cannot grow server memory without bound.
         */
        std::size_t maxQueuedOutputBytes = 64u << 20;
        /**
         * End-to-end request tracing (obs/trace_ring.hh): when
         * enabled, every SUBMIT gets stage timestamps from frame
         * decode through writer flush; sampled-or-slow traces land
         * in the collector, exportable via traceSnapshot().
         */
        TraceConfig trace;
        /**
         * Admin HTTP plane (obs/http_admin.hh): when enabled, a
         * second loopback port serves /metrics, /healthz, /readyz,
         * /tracez, /varz, and /timeseriesz for curl, Prometheus
         * scrapers, and load-balancer health checks. The binary
         * METRICS/TRACES frames remain the data-plane path.
         */
        bool adminEnabled = false;
        /** Admin TCP port; 0 binds an ephemeral port (adminPort()). */
        std::uint16_t adminPort = 0;
        /** Health state machine thresholds (obs/health.hh). */
        HealthThresholds health;
        /** Flight recorder sample interval; the recorder (and its
         *  sampler thread) runs only when the admin plane is on. */
        double samplerIntervalSeconds = 1.0;
        /** Flight recorder ring capacity per series (300 × 1 s ≈ 5
         *  minutes of history at the default interval). */
        std::size_t samplerRetainSamples = 300;
    };

    NetServer() : NetServer(Options()) {}
    explicit NetServer(const Options &opts);

    /** Calls stop(). */
    ~NetServer();

    NetServer(const NetServer &) = delete;
    NetServer &operator=(const NetServer &) = delete;

    /**
     * Bind, listen on 127.0.0.1, and spawn the IO and writer
     * threads. @return false (with error() set) if the socket setup
     * failed; calling start() twice is an error.
     */
    bool start();

    /** Graceful shutdown; idempotent, called by the destructor. */
    void stop();

    /** True between a successful start() and stop(). */
    bool running() const { return running_.load(); }

    /** The bound TCP port (valid after a successful start()). */
    std::uint16_t port() const { return port_; }

    /** Why start() failed (empty otherwise). */
    const std::string &error() const { return error_; }

    /**
     * Whole-installation obs/ metrics: the server's wire-level
     * registry (net_bytes_*, net_frames_received_total,
     * net_responses_sent_total, net_protocol_errors_total,
     * net_connections_*, trace stage histograms) merged with every
     * shard's registry — the same snapshot the METRICS frame serves.
     * Safe to call until stop(); after the cluster is torn down only
     * the wire-level half is returned.
     */
    MetricsSnapshot metricsSnapshot() const;

    /** Committed request traces (sampled or slow), for export via
     *  obs/trace_export.hh. */
    std::vector<RequestTrace> traceSnapshot() const
    {
        return collector_.snapshot();
    }

    /** The trace collector (config, commit counts). */
    const TraceCollector &traceCollector() const { return collector_; }

    /** The fronted cluster (valid until stop()). */
    const Cluster &cluster() const { return *cluster_; }

    /** The admin plane's bound TCP port (0 unless adminEnabled and
     *  start() succeeded). */
    std::uint16_t adminPort() const
    {
        return admin_ ? admin_->port() : 0;
    }

    /**
     * One health evaluation right now — exactly what /healthz and
     * /readyz serve (obs/health.hh). Available whenever the admin
     * plane is enabled; a disabled admin plane reports a default
     * (Ok/live/ready-while-serving) state.
     */
    HealthReport healthReport() const;

    /** The flight recorder (null unless adminEnabled). */
    const FlightRecorder *flightRecorder() const
    {
        return recorder_.get();
    }

  private:
    struct Connection
    {
        int fd = -1;
        FrameDecoder decoder;
        /** Pending output; flushed by the IO thread as POLLOUT
         *  allows. offset = bytes of outbuf already sent. */
        std::vector<std::uint8_t> outbuf;
        std::size_t outoff = 0;
        /** Stop reading; close once outbuf is flushed. */
        bool closing = false;
        /** Event-loop interest mask the IO thread last installed
         *  (EventLoop::kRead|kWrite); updated by
         *  updateInterestLocked() only. */
        std::uint32_t interest = 0;

        explicit Connection(int fd_in, std::uint32_t max_payload)
            : fd(fd_in), decoder(max_payload)
        {
        }
    };

    /** Which snapshot a tag-0 marker requests (see writerLoop()). */
    enum class SnapKind : std::uint8_t
    {
        Metrics,
        Traces,
    };

    /** Where a completion must be delivered. */
    struct PendingTag
    {
        std::uint64_t connId;
        std::uint64_t clientTag;
        /** Snapshot requests only: which snapshot frame to serve. */
        SnapKind kind = SnapKind::Metrics;
    };

    void ioLoop();
    void writerLoop();
    void acceptReady();
    /** Read until EAGAIN; decode and handle frames. @return false if
     *  the connection must be dropped immediately. */
    bool readReady(std::uint64_t conn_id, Connection &conn);
    void handleFrame(std::uint64_t conn_id, Connection &conn,
                     const Frame &frame);
    /** Append an encoded frame to the connection's output buffer
     *  (under conns_mutex_) and wake the IO thread.
     *  @return false when the connection is gone (frame dropped). */
    bool enqueueOutput(std::uint64_t conn_id,
                       std::vector<std::uint8_t> bytes);
    /** Same, with the lock already held. */
    void enqueueOutputLocked(Connection &conn,
                             const std::vector<std::uint8_t> &bytes);
    /** Flush as much of conn.outbuf as the socket accepts.
     *  @return false when the socket died. */
    bool flushLocked(Connection &conn);
    void closeConnLocked(std::uint64_t conn_id);
    /**
     * Recompute and install the connection's event-loop interest
     * mask from its current state (serving, closing, queued output,
     * backpressure). IO thread only, conns_mutex_ held.
     */
    void updateInterestLocked(std::uint64_t conn_id, Connection &conn);
    void wakeIoThread();
    /** Drop completions addressed to a dead connection. */
    void forgetTags(std::uint64_t conn_id);
    /** True while responses for this connection are still in flight
     *  (the IO thread must not close it yet; see ioLoop()). */
    bool hasPendingTags(std::uint64_t conn_id);

    Options opts_;
    std::string error_;

    /** Serializes start()/stop() against each other. */
    std::mutex lifecycle_mutex_;

    /**
     * Destruction order contract: queue_ outlives cluster_ (declared
     * before it), because shard workers push completions into the
     * queue while the cluster drains.
     */
    CompletionQueue queue_;
    /** Serializes cluster snapshots (const metricsSnapshot(), from
     *  the writer thread or the admin plane) against stop()'s
     *  cluster teardown. The IO thread needs no lock: its cluster
     *  calls stop at the quiesce handshake, before stop() resets the
     *  pointer. */
    mutable std::mutex cluster_mutex_;
    std::unique_ptr<Cluster> cluster_;

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    int wake_pipe_[2] = {-1, -1};
    /** IO-thread only: wait periods left to skip the listen socket
     *  after a persistent accept() failure (EMFILE and friends). */
    int listen_backoff_ = 0;

    /**
     * The IO thread's readiness multiplexer. Owned and touched by
     * the IO thread alone — other threads request interest updates
     * via interest_dirty_ + the wake pipe.
     */
    EventLoop loop_;
    /** Connections whose interest mask may be stale (e.g. the
     *  writer buffered output for them); drained by the IO thread
     *  each wakeup. Guarded by conns_mutex_. */
    std::vector<std::uint64_t> interest_dirty_;
    /** IO-thread only: connections in the closing state, swept each
     *  wakeup for close-when-flushed-and-owed-nothing. */
    std::set<std::uint64_t> closing_conns_;

    std::atomic<bool> running_{false};
    /** One-shot lifecycle: set by stop(); start() then refuses (the
     *  completion queue cannot be un-shut-down). */
    bool stopped_ = false;
    /** IO thread stops accepting/reading when false (shutdown). */
    std::atomic<bool> serving_{false};
    /** IO thread exits once all output is flushed (or abandoned). */
    std::atomic<bool> flush_and_exit_{false};
    /** Set by the IO thread once it has stopped reading. */
    bool reads_quiesced_ = false;
    std::mutex quiesce_mutex_;
    std::condition_variable quiesce_cv_;

    std::thread io_thread_;
    std::thread writer_thread_;

    mutable std::mutex conns_mutex_;
    /** Starts above the ioLoop() id sentinels (0 = wake pipe,
     *  1 = listen socket). */
    std::uint64_t next_conn_id_ = 16;
    std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;

    std::mutex tags_mutex_;
    /** Starts at 1: server tag 0 is the snapshot marker (see
     *  writerLoop()). */
    std::uint64_t next_tag_ = 1;
    std::map<std::uint64_t, PendingTag> tags_;

    /** METRICS/TRACES requests handed from the IO thread to the
     *  writer, so the snapshot+encode work never stalls the poll
     *  loop. */
    std::mutex snapshot_requests_mutex_;
    std::deque<PendingTag> snapshot_requests_;

    /** Wire-level obs/ registry; also receives the collector's
     *  trace stage histograms. */
    MetricsRegistry net_metrics_;
    /** Cached hot-path instruments. */
    struct NetInstruments
    {
        Counter *bytesIn = nullptr;
        Counter *bytesOut = nullptr;
        Counter *framesReceived = nullptr;
        Counter *responsesSent = nullptr;
        Counter *protocolErrors = nullptr;
        Counter *connectionsAccepted = nullptr;
        Gauge *connectionsLive = nullptr;
    } inst_;
    /** Declared after net_metrics_: its stage-metrics pointer must
     *  outlive it. */
    TraceCollector collector_;

    /** Register the admin routes on @p admin (start() helper). */
    void registerAdminRoutes(HttpAdminServer &admin);
    /** Gather HealthInputs and run them through health_. */
    HealthReport evaluateHealth() const;

    /**
     * Admin plane (all null when Options::adminEnabled is off).
     * Declared last: their threads call back into everything above
     * (metricsSnapshot, queue_, collector_), so they must be
     * destroyed first — and stop() shuts them down before the
     * cluster teardown for the same reason.
     */
    std::unique_ptr<HealthModel> health_;
    std::unique_ptr<FlightRecorder> recorder_;
    std::unique_ptr<HttpAdminServer> admin_;
};

} // namespace sap

#endif // SAP_NET_SERVER_HH
