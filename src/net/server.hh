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
 * frames go straight into Cluster::submitAsync(), and the shard
 * worker that served a request encodes its RESPONSE and queues it
 * on the connection through FrontDoor::send() — a queue append and
 * a wake, never a socket write. The shards therefore never block on
 * a client: a slow reader only grows its own buffer while every
 * other connection keeps streaming. METRICS and TRACES requests are
 * answered on the IO thread, as the door answers PING.
 *
 *          clients ──TCP──▶ IO thread ──submitAsync──▶ Cluster
 *             ▲                │ flush                    │ shard
 *             └─ output bufs ◀─┴──── send(RESPONSE) ──────┘ worker
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
#include <map>
#include <memory>
#include <mutex>
#include <string>
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
     * timestamps from frame decode until its RESPONSE is queued;
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
     * Bind, listen on 127.0.0.1, build the cluster and spawn the
     * door's IO thread. @return false (with error() set) if the
     * socket setup failed; calling start() twice is an error.
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
    /** FrontDoor::Hooks::onFrame: SUBMIT/FORWARD into the cluster,
     *  METRICS/TRACES answered here. IO thread. */
    void handleFrame(std::uint64_t conn_id, Frame &&frame);
    /** The completion of a SUBMIT/FORWARD from @p conn_id: queue its
     *  RESPONSE, settle the owed count, finish the trace. Shard
     *  worker thread. */
    void respond(std::uint64_t conn_id, std::uint64_t client_tag,
                 ServeResponse resp);
    /** FrontDoor::Hooks::owesWork: SUBMITs from @p conn_id whose
     *  RESPONSE is not queued yet. */
    bool owesResponses(std::uint64_t conn_id);
    /** The admin plane's health inputs. */
    HealthInputs healthInputs() const;

    Options opts_;
    std::string error_;

    /** Serializes start()/stop() against each other. */
    std::mutex lifecycle_mutex_;

    /** Serializes cluster snapshots (const metricsSnapshot(), from
     *  the IO thread or the admin plane) against stop()'s cluster
     *  teardown. The IO thread's submits need no lock: the door
     *  stops calling onFrame at the quiesce handshake, before stop()
     *  resets the pointer. */
    mutable std::mutex cluster_mutex_;
    std::unique_ptr<Cluster> cluster_;

    std::atomic<bool> running_{false};
    /** One-shot lifecycle: set by stop(); start() then refuses (the
     *  front door is one-shot: its exit and quiesce flags never
     *  reset). */
    bool stopped_ = false;

    /** Guards owed_. */
    std::mutex owed_mutex_;
    /** Per connection, the SUBMITs in flight: counted up on the IO
     *  thread as a SUBMIT goes into the cluster, down on the shard
     *  worker once its RESPONSE is queued (so a half-closed
     *  connection is never closed before its last reply). Entries
     *  at zero are erased. */
    std::map<std::uint64_t, std::size_t> owed_;

    /** Wire-level obs/ registry; also receives the collector's
     *  trace stage histograms. The door's counts are injected into
     *  metricsSnapshot() under their net_* names. */
    MetricsRegistry net_metrics_;
    /** net_responses_sent_total, cached for the shard workers. */
    Counter *responses_sent_ = nullptr;
    /** Declared after net_metrics_: its stage-metrics pointer must
     *  outlive it. */
    TraceCollector collector_;

    /**
     * Declared last: the admin plane's threads call back into
     * everything above (metricsSnapshot, collector_), and the shard
     * workers send through the door — so both outlive the cluster
     * drain in stop(), which shuts the admin plane down first and
     * the door last.
     */
    AdminPlane admin_;
    FrontDoor door_;
};

} // namespace sap

#endif // SAP_NET_SERVER_HH
