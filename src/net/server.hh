/**
 * @file
 * Event-loop multi-client TCP front end over the array cluster.
 *
 * NetServer is the network boundary of the installation: it owns a
 * Cluster and bridges the socket world to the cluster's async IO
 * surface. It runs on the shared front door (net/front_door.hh): one
 * IO thread over an epoll event loop, the listening socket and every
 * client connection, with interest masks updated where connection
 * state changes, so ten thousand mostly-idle connections cost
 * nothing per event. NetServer adds what is its own: decoded SUBMIT
 * frames go straight into Cluster::submitToQueue(), and a writer
 * thread drains the shared CompletionQueue into per-connection
 * output buffers through FrontDoor::send(). The shards therefore
 * never block on a client: a slow reader only grows its own buffer
 * while every other connection keeps streaming.
 *
 *          clients ──TCP──▶ IO thread ──submitToQueue──▶ Cluster
 *             ▲                 │ flush                      │
 *             └── output bufs ◀─┴── writer thread ◀── CompletionQueue
 *
 * Error policy (the front door's, net/front_door.hh): payload-level
 * garbage (unknown problem kind, zero dimensions, truncated payload)
 * earns an ERROR frame and the connection keeps serving; frame-level
 * garbage (bad magic/version, oversized length prefix) earns an
 * ERROR frame and a graceful close, because the byte stream cannot
 * be re-synchronized. Neither disturbs other connections or the
 * server. PING is answered by the door. Requests that decode but
 * fail serving-layer validation (unknown engine name, shape
 * mismatches) are not protocol errors: they come back as normal
 * RESPONSE frames with ok = false, exactly as the in-process serving
 * layer reports them.
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
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hh"
#include "net/front_door.hh"

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
    /**
     * The shared front-door options (net/front_door.hh) plus the
     * cluster. With trace enabled, every SUBMIT gets stage
     * timestamps from frame decode through writer flush;
     * sampled-or-slow traces land in the collector, exportable via
     * traceSnapshot().
     */
    struct Options : FrontDoorOptions
    {
        /** The cluster this server fronts. */
        Cluster::Options cluster;
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
    std::uint16_t port() const { return door_.port(); }

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
    std::uint16_t adminPort() const { return admin_.port(); }

    /**
     * One health evaluation right now — exactly what /healthz and
     * /readyz serve (obs/health.hh). Available whenever the admin
     * plane is enabled; a disabled admin plane reports a default
     * (Ok/live/ready-while-serving) state.
     */
    HealthReport healthReport() const { return admin_.report(); }

    /** The flight recorder (null unless adminEnabled). */
    const FlightRecorder *flightRecorder() const
    {
        return admin_.recorder();
    }

  private:
    /** Where a completion must be delivered. */
    struct PendingTag
    {
        std::uint64_t connId;
        std::uint64_t clientTag;
        /** Snapshot requests only: METRICS or TRACES. */
        FrameType kind = FrameType::Metrics;
    };

    void writerLoop();
    /** FrontDoor::Hooks::onFrame: SUBMIT/FORWARD into the cluster,
     *  METRICS/TRACES to the writer. IO thread. */
    void handleFrame(std::uint64_t conn_id, Frame &&frame);
    /** Drop completions addressed to a dead connection. */
    void forgetTags(std::uint64_t conn_id);
    /** True while responses for this connection are still in flight
     *  (the door must not close it yet). */
    bool hasPendingTags(std::uint64_t conn_id);
    /** The admin plane's health inputs. */
    HealthInputs healthInputs() const;

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

    std::atomic<bool> running_{false};
    /** One-shot lifecycle: set by stop(); start() then refuses (the
     *  completion queue cannot be un-shut-down). */
    bool stopped_ = false;

    std::thread writer_thread_;

    std::mutex tags_mutex_;
    /** Starts at 1: server tag 0 is the snapshot marker (see
     *  writerLoop()). */
    std::uint64_t next_tag_ = 1;
    std::map<std::uint64_t, PendingTag> tags_;

    /** METRICS/TRACES requests handed from the IO thread to the
     *  writer, so the snapshot+encode work never stalls the event
     *  loop. */
    std::mutex snapshot_requests_mutex_;
    std::deque<PendingTag> snapshot_requests_;

    /** Wire-level obs/ registry; also receives the collector's
     *  trace stage histograms. The door's counts are injected into
     *  metricsSnapshot() under their net_* names. */
    MetricsRegistry net_metrics_;
    /** net_responses_sent_total, cached for the writer. */
    Counter *responses_sent_ = nullptr;
    /** Declared after net_metrics_: its stage-metrics pointer must
     *  outlive it. */
    TraceCollector collector_;

    /**
     * Declared last: the admin plane's threads call back into
     * everything above (metricsSnapshot, queue_, collector_), and
     * the writer sends through the door — so both go first, and
     * stop() shuts them down before the cluster teardown.
     */
    AdminPlane admin_;
    FrontDoor door_;
};

} // namespace sap

#endif // SAP_NET_SERVER_HH
