/**
 * @file
 * Blocking client for the net/ wire protocol: the library an
 * external process links to reach a NetServer-fronted cluster.
 *
 * One NetClient is one TCP connection with a simple blocking call
 * discipline: submit() sends one SUBMIT and waits for its response;
 * submitBatch() pipelines N SUBMITs before reading (responses come
 * back in completion order — the cluster serves shards
 * independently — and are matched to requests by tag); metrics(),
 * traces() and ping() round-trip the METRICS, TRACES and PING
 * frames.
 *
 * Internally the socket is a non-blocking FramedSocket
 * (net/framed_socket.hh, shared with the front door and AsyncClient)
 * and every wait goes through poll(). That matters for
 * submitBatch(): a blocking send() can deadlock against the server's
 * backpressure — when this client's pending responses exceed the
 * server's maxQueuedOutputBytes, the server stops reading from it,
 * the socket send buffer fills, and a client that won't read until
 * everything is sent waits forever.
 * submitBatch() therefore interleaves: once send() would block it
 * polls on readable|writable and drains responses while the rest of
 * the pipeline trickles out (see test_net_server.cc's tiny-SO_SNDBUF
 * regression test).
 *
 * A SUBMIT is encoded into a frame buffer the connection keeps and
 * queued without a copy (FramedSocket's shared segments), so a
 * client sending one large request after another writes each frame
 * once, into memory it has already touched.
 *
 * Transport failures (connection refused, mid-stream close, a
 * malformed byte stream from the server) are reported per call via
 * Result::transportOk / lastError(); application-level failures
 * (malformed request, unknown engine) come back as normal responses
 * with ok = false, exactly as the in-process serving layer reports
 * them.
 *
 * Thread-safety: a NetClient is NOT thread-safe; give each client
 * thread its own connection (the server multiplexes any number).
 */

#ifndef SAP_NET_CLIENT_HH
#define SAP_NET_CLIENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/framed_socket.hh"

namespace sap {

/**
 * TCP client speaking the sap wire protocol (see file comment).
 */
class NetClient
{
  public:
    /** What one submitted request came back as. */
    struct Result
    {
        /** False when the transport or framing failed mid-call. */
        bool transportOk = false;
        /** Why (when !transportOk). */
        std::string transportError;
        /** The decoded response (valid when transportOk). An ERROR
         *  frame decodes as ok = false with the server's message. */
        WireResponse response;
    };

    NetClient() = default;

    /** Disconnects. */
    ~NetClient();

    NetClient(const NetClient &) = delete;
    NetClient &operator=(const NetClient &) = delete;

    /**
     * Connect to @p host:@p port (IPv4 dotted quad or "localhost").
     * @return false with lastError() set on failure.
     */
    bool connect(const std::string &host, std::uint16_t port);

    /**
     * Request an explicit SO_SNDBUF for the next connect() (0 keeps
     * the kernel default). Tests use a tiny value to force the
     * send-buffer-full path in submitBatch(); it has no effect on an
     * already-open connection.
     */
    void setSendBufferBytes(int bytes) { sndbuf_bytes_ = bytes; }

    /** Close the connection (idempotent). */
    void disconnect();

    /** True while the socket is open. */
    bool connected() const { return sock_.fd >= 0; }

    /** The last transport error seen by any call. */
    const std::string &lastError() const { return error_; }

    /** Send one request and block for its response. */
    Result submit(const ServeRequest &req);

    /**
     * Pipeline all of @p reqs, then collect every response; the
     * returned vector is in request order regardless of the order
     * responses arrived in. After a transport failure the remaining
     * results carry transportOk = false.
     */
    std::vector<Result> submitBatch(const std::vector<ServeRequest>
                                        &reqs);

    /**
     * Request the server's merged obs/ metrics snapshot
     * (NetServer::metricsSnapshot() over the wire): wire-level
     * counters plus every shard's registry, histograms merged
     * exactly bucket-by-bucket.
     */
    bool metrics(MetricsSnapshot *out);

    /**
     * Request the server's committed request traces (the TRACES
     * frame). Against a NetServer this is its trace rings; against a
     * gateway it is the stitchable cross-tier set — the gateway's
     * own traces plus a scatter-gather over every routable backend.
     * @p totalCommitted receives the commit counter (≥ out->size());
     * either out-param may be null.
     */
    bool traces(std::vector<RequestTrace> *out,
                std::uint64_t *totalCommitted);

    /** PING round-trip. */
    bool ping();

    /**
     * Golden-model cross-check of a wire response against the host
     * oracle for @p req — bit-exact, the same check the serving
     * layer applies (integer workloads; trisolve wants unit-diagonal
     * systems so every intermediate is exact).
     */
    static bool matchesOracle(const ServeRequest &req,
                              const WireResponse &resp);

  private:
    /** submitBatch() over @p n borrowed requests, so that submit()
     *  sends its one request without copying it. */
    std::vector<Result> submitEach(const ServeRequest *const *reqs,
                                   std::size_t n);
    /** Send @p request and block for the reply, which must be a
     *  @p type frame on tag @p tag. */
    bool roundTrip(std::vector<std::uint8_t> request, std::uint64_t tag,
                   FrameType type, Frame *reply);
    /** Block until a frame arrives, sending queued output as the
     *  socket takes it. @return false (disconnected unless never
     *  connected) on a transport failure. */
    bool nextFrame(Frame *out);
    bool fail(const std::string &message);
    /** disconnect(), then fail(). */
    bool drop(const std::string &message);

    FramedSocket sock_;
    /** The buffer SUBMITs are encoded into, reused from request to
     *  request: queued as a shared segment, it is free again once the
     *  socket has sent it (use_count() == 1). A SUBMIT encoded while
     *  it is still queued (a pipelined batch) gets a buffer of its
     *  own. */
    std::shared_ptr<std::vector<std::uint8_t>> submit_frame_ =
        std::make_shared<std::vector<std::uint8_t>>();
    int sndbuf_bytes_ = 0;
    std::uint64_t next_tag_ = 1;
    std::string error_;
};

} // namespace sap

#endif // SAP_NET_CLIENT_HH
