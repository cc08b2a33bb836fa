/**
 * @file
 * The front door both serving tiers run on: the loopback listen
 * socket, the IO thread with its EventLoop and wake pipe, and every
 * accepted client connection — frame decode, the output queue with
 * its backpressure cap, and close-when-flushed-and-owed-nothing —
 * plus the admin HTTP plane with the routes both tiers share.
 *
 * NetServer (net/server.hh) and Gateway (net/gateway.hh) each own one
 * FrontDoor and one AdminPlane and plug in only what differs: a
 * handler for decoded frames, a predicate saying a connection is
 * still owed replies, and — for the gateway — its backend fds and a
 * per-wakeup tick. The error policy (net/protocol.hh) lives here:
 * the door answers PING itself (it measures the front door), and a
 * frame-level violation (bad magic/version, oversized length prefix)
 * earns one ERROR frame and a close after the flush, because the
 * byte stream cannot be re-synchronized. A payload-level ERROR is
 * the owner's sendError() and keeps the connection serving.
 *
 * Threads: one IO thread runs the loop and every hook. send() is
 * safe from any thread and never blocks on the peer: on the IO
 * thread it installs the new interest mask directly; other threads
 * (NetServer's shard workers, answering their requests) mark the
 * connection dirty and wake the IO thread through the pipe.
 *
 * Event-loop keys: 0 = wake pipe, 1 = listen socket, then one key
 * per owner fd (watch()), then connection ids.
 */

#ifndef SAP_NET_FRONT_DOOR_HH
#define SAP_NET_FRONT_DOOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/socket_util.hh"
#include "net/event_loop.hh"
#include "net/framed_socket.hh"
#include "obs/health.hh"
#include "obs/http_admin.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "obs/trace_ring.hh"

namespace sap {

/** The options both tiers share; NetServer::Options and
 *  Gateway::Options inherit them. */
struct FrontDoorOptions
{
    /** Client-facing TCP port; 0 binds an ephemeral port (port()). */
    std::uint16_t port = 0;
    /**
     * Backpressure threshold: while a connection's pending output
     * exceeds this, the door stops reading new frames from it
     * (already-accepted requests still complete and deliver), so a
     * client that pipelines without reading cannot grow memory
     * without bound.
     */
    std::size_t maxQueuedOutputBytes = 64u << 20;
    /** Request tracing (obs/trace_ring.hh); each tier's Options
     *  says what it records. */
    TraceConfig trace;
    /**
     * Admin HTTP plane (obs/http_admin.hh): when enabled, a second
     * loopback port serves /metrics, /healthz, /readyz, /tracez,
     * /varz and /timeseriesz for curl, Prometheus scrapers and
     * load-balancer health checks. The binary METRICS/TRACES frames
     * remain the data-plane path.
     */
    bool adminEnabled = false;
    /** Admin TCP port; 0 binds an ephemeral port (adminPort()). */
    std::uint16_t adminPort = 0;
    /** Health state machine thresholds (obs/health.hh). */
    HealthThresholds health;
    /** Flight recorder sample interval; the recorder (and its
     *  sampler thread) runs only when the admin plane is on, and
     *  keeps 300 samples per series (≈5 minutes at 1 s). */
    double samplerIntervalSeconds = 1.0;
};

/** Listen socket, IO thread and client connections (see file
 *  comment). */
class FrontDoor
{
  public:
    /** What the owning tier plugs in; every hook runs on the IO
     *  thread. */
    struct Hooks
    {
        /** A decoded frame other than PING from connection @p conn. */
        std::function<void(std::uint64_t conn, Frame &&frame)> onFrame;
        /** True while @p conn is still owed replies: a closing
         *  connection stays open until this turns false. */
        std::function<bool(std::uint64_t conn)> owesWork;
        /** Number of owner fd keys watch() may use. */
        std::size_t ownerFds = 0;
        /** Readiness of the owner fd watched under @p index. */
        std::function<void(std::size_t index, const EventLoop::Ready &)>
            onOwnerReady;
        /** Optional: once per wakeup, before ready fds are served. */
        std::function<void()> onTick;
    };

    /** Plain counts; each owner reports them under its own series
     *  names in its metricsSnapshot(). */
    struct Counts
    {
        std::uint64_t bytesIn = 0;
        std::uint64_t bytesOut = 0;
        std::uint64_t framesIn = 0;
        std::uint64_t accepted = 0;
        std::int64_t live = 0;
        /** ERROR frames this door originated (sendError()). */
        std::uint64_t errorsSent = 0;
    };

    /** @p name prefixes log lines. */
    FrontDoor(const char *name, std::size_t max_queued_output,
              Hooks hooks);
    /** stop(false). */
    ~FrontDoor();

    FrontDoor(const FrontDoor &) = delete;
    FrontDoor &operator=(const FrontDoor &) = delete;

    /** Bind 127.0.0.1:@p port and make the wake pipe.
     *  @return false with *@p error set. */
    bool open(std::uint16_t port, std::string *error);
    /** Spawn the IO thread (after open()). */
    void start();
    /** Stop accepting and reading; returns once the IO thread has
     *  acknowledged, so onFrame never runs again. */
    void quiesce();
    /**
     * Exit the IO thread, close every connection and both sockets.
     * With @p flush, peers first get a bounded ~2 s to take queued
     * output. Idempotent; also undoes an open() never started.
     */
    void stop(bool flush);

    /** The bound port (valid after open()). */
    std::uint16_t port() const { return port_; }
    /** True from start() until quiesce() or stop(). */
    bool serving() const { return serving_.load(); }
    Counts counts() const;

    /**
     * Queue @p bytes on connection @p conn; safe from any thread.
     * @param queued If set, counted under the door's lock as the
     *        bytes are queued, so before any of them can leave: a
     *        peer holding the reply already sees it counted.
     * @return false when the connection is gone (bytes dropped,
     *         nothing counted).
     */
    bool send(std::uint64_t conn, std::vector<std::uint8_t> bytes,
              Counter *queued = nullptr);
    /** send() a @p type frame as a header and @p payload, which is
     *  queued as it is (a relayed payload moves through uncopied). */
    bool sendFrame(std::uint64_t conn, FrameType type, std::uint64_t tag,
                   std::vector<std::uint8_t> payload);
    /** send() an ERROR frame and count it in Counts::errorsSent. */
    bool sendError(std::uint64_t conn, std::uint64_t tag,
                   const std::string &message);

    /** Watch an owner fd under key @p index (< Hooks::ownerFds);
     *  IO thread, or before start(). */
    void watch(int fd, std::uint32_t interest, std::size_t index);
    /** Stop watching an owner fd (before closing it). */
    void unwatch(int fd);

  private:
    struct Conn
    {
        FramedSocket sock;
        /** Stop reading; close once flushed and owed nothing. */
        bool closing = false;
        /** The interest mask last installed (IO thread). */
        std::uint32_t interest = 0;

        explicit Conn(int fd) : sock(fd) {}
    };

    /** send() of @p head then @p body (either may be empty). */
    bool enqueue(std::uint64_t conn, std::vector<std::uint8_t> head,
                 std::vector<std::uint8_t> body, Counter *queued);
    void ioLoop();
    void acknowledgeQuiesce();
    void acceptReady();
    void serveConn(const EventLoop::Ready &ev, bool serving);
    /** Read until EAGAIN, handing frames on. @return false if the
     *  connection must be dropped now. */
    bool readReady(std::uint64_t id, Conn &conn);
    /** Recompute and install @p conn's interest mask from its state
     *  (serving, closing, queued output, backpressure). IO thread,
     *  mu_ held. */
    void updateInterestLocked(std::uint64_t id, Conn &conn);
    void closeLocked(std::uint64_t id);
    /** Close the closing connections that are flushed and owed
     *  nothing. IO thread, mu_ held. */
    void sweepLocked();

    const char *name_;
    const std::size_t max_queued_output_;
    const Hooks hooks_;

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    WakePipe wake_;

    /** IO thread only (and the owner's watch() before start()). */
    EventLoop loop_;
    /** Wait periods left to skip the listen socket after a
     *  persistent accept() failure (EMFILE and friends). */
    int listen_backoff_ = 0;
    std::set<std::uint64_t> closing_;

    std::atomic<bool> serving_{false};
    std::atomic<bool> exit_{false};
    /** Written before exit_ is set, read after it is seen. */
    bool flush_on_exit_ = false;
    /** Set by the IO thread once it has stopped reading. */
    bool quiesced_ = false;
    std::mutex quiesce_mutex_;
    std::condition_variable quiesce_cv_;

    /** Guards conns_, every Conn's output, and dirty_. */
    std::mutex mu_;
    std::uint64_t next_conn_id_;
    std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
    /** Connections whose interest another thread's send() made
     *  stale; drained by the IO thread each wakeup. */
    std::vector<std::uint64_t> dirty_;

    std::atomic<std::uint64_t> bytes_in_{0};
    std::atomic<std::uint64_t> bytes_out_{0};
    std::atomic<std::uint64_t> frames_in_{0};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::int64_t> live_{0};
    std::atomic<std::uint64_t> errors_sent_{0};

    /** Last: it uses everything above. */
    std::thread io_thread_;
};

/**
 * The admin HTTP plane of one front door: the health model, the
 * flight recorder, and the routes both tiers share — /, /metrics,
 * /varz, /healthz, /readyz and /timeseriesz. The owner supplies its
 * snapshot, its health inputs and how it serves /tracez.
 *
 * The plane runs on the HTTP server's own thread, never on the IO
 * thread: the gateway's /tracez blocks on a round trip through its
 * own front door, and NetServer's /metrics renders the merged
 * cluster snapshot, which the server keeps off its IO thread.
 */
class AdminPlane
{
  public:
    /** How the owner serves /tracez. */
    struct Tracez
    {
        /** The traces to serve; sets *total to the committed count. */
        std::function<std::vector<RequestTrace>(std::uint64_t *total)>
            fetch;
        /** The default format's JSON body. */
        std::function<std::string(std::vector<RequestTrace> traces,
                                  std::uint64_t total)>
            render;
        /** File name of the ?format=chrome (Perfetto) download. */
        std::string chromeFile;
    };

    /** @p inputs fills serving, queueDepth and protocolErrors; the
     *  plane adds the interval p99 of @p p99_series and the time. */
    AdminPlane(std::function<MetricsSnapshot()> snapshot,
               std::function<HealthInputs()> inputs,
               std::string p99_series);

    /** The routes hold this object's address. */
    AdminPlane(const AdminPlane &) = delete;
    AdminPlane &operator=(const AdminPlane &) = delete;

    /**
     * Bring the plane up when @p opts.adminEnabled (a no-op
     * otherwise); @p title heads the index page.
     * @return false with *@p error set if the port cannot bind.
     */
    bool start(const FrontDoorOptions &opts, const std::string &title,
               Tracez tracez, std::string *error);
    /** Stop the HTTP and sampler threads; the objects (and port())
     *  stay. */
    void stop();

    /** Bound admin port (0 unless started). */
    std::uint16_t port() const { return http_ ? http_->port() : 0; }
    /** The flight recorder (null unless started). */
    const FlightRecorder *recorder() const { return recorder_.get(); }

    /**
     * One health evaluation now — what /healthz and /readyz serve.
     * With the plane off: Ok and live, ready while the owner serves.
     */
    HealthReport report() const;

  private:
    std::function<MetricsSnapshot()> snapshot_;
    std::function<HealthInputs()> inputs_;
    std::string p99_series_;
    std::unique_ptr<HealthModel> health_;
    std::unique_ptr<FlightRecorder> recorder_;
    /** Last: its thread calls back into everything above. */
    std::unique_ptr<HttpAdminServer> http_;
};

} // namespace sap

#endif // SAP_NET_FRONT_DOOR_HH
