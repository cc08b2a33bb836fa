/**
 * @file
 * Front-door behaviour written once and run through both doors: a
 * NetServer alone, and a Gateway in front of one NetServer. Both
 * tiers sit on the same connection core (net/front_door.hh), so the
 * half-close, backpressure, lifecycle and malformed-frame contracts
 * must hold at either door; each case here is called from a
 * TEST(NetServer, …) / TEST_F(NetServerMalformed, …) in
 * test_net_server.cc and from its TEST(Gateway, …) /
 * TEST_F(GatewayMalformed, …) twin in test_gateway.cc.
 *
 * The one per-door difference is the protocol-error counter:
 * net_protocol_errors_total on a NetServer, gateway_errors_total on
 * a gateway (Door::protocolErrors()).
 */

#ifndef SAP_TESTS_FRONT_DOOR_CASES_HH
#define SAP_TESTS_FRONT_DOOR_CASES_HH

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mat/generate.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "net/server.hh"

namespace sap {
namespace door_cases {

inline ServeRequest
matVecRequest(std::uint64_t seed, Index n = 6, Index w = 3)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(n, n, seed),
                                  randomIntVec(n, seed + 1),
                                  randomIntVec(n, seed + 2), w);
    return req;
}

inline ServeRequest
matMulRequest(std::uint64_t seed, Index n = 6, Index w = 3)
{
    ServeRequest req;
    req.engine = "hex";
    req.plan = EnginePlan::matMul(randomIntDense(n, n, seed),
                                  randomIntDense(n, n, seed + 1),
                                  randomIntDense(n, n, seed + 2), w);
    return req;
}

/**
 * A raw loopback connection for crafting arbitrary (including
 * malformed) byte streams, below the NetClient abstraction.
 */
class RawConn
{
  public:
    explicit RawConn(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~RawConn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    RawConn(const RawConn &) = delete;
    RawConn &operator=(const RawConn &) = delete;

    bool ok() const { return fd_ >= 0; }

    /** Half-close: no more writes, reads stay open. */
    void shutdownWrite() { ::shutdown(fd_, SHUT_WR); }

    void
    send(const std::vector<std::uint8_t> &bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::send(fd_, bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return;
            off += static_cast<std::size_t>(n);
        }
    }

    /** Block for one frame; false on close/garbage. */
    bool
    readFrame(Frame *out)
    {
        std::uint8_t buf[4096];
        for (;;) {
            std::string err;
            FrameDecoder::Result res = decoder_.next(out, &err);
            if (res == FrameDecoder::Result::Ok)
                return true;
            if (res == FrameDecoder::Result::Malformed)
                return false;
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0)
                return false;
            decoder_.feed(buf, static_cast<std::size_t>(n));
        }
    }

    /** True when the peer closed the connection (EOF). */
    bool
    awaitClose()
    {
        std::uint8_t buf[4096];
        for (;;) {
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n == 0)
                return true;
            if (n < 0)
                return false;
            decoder_.feed(buf, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    FrameDecoder decoder_;
};

/**
 * One front door under test. The NetServer (alone, or the gateway's
 * only backend) runs 2 shards × 2 workers; the gateway is built on
 * the first start(), once the backend's port is known.
 */
class Door
{
  public:
    /** A NetServer alone. */
    static Door
    server(std::size_t max_queued_output =
               NetServer::Options().maxQueuedOutputBytes)
    {
        Door door;
        NetServer::Options opts;
        opts.cluster.shards = 2;
        opts.cluster.threadsPerShard = 2;
        opts.maxQueuedOutputBytes = max_queued_output;
        door.backend = std::make_unique<NetServer>(opts);
        return door;
    }

    /** A Gateway in front of one NetServer; both doors get
     *  @p max_queued_output. */
    static Door
    gateway(std::size_t max_queued_output =
                NetServer::Options().maxQueuedOutputBytes)
    {
        Door door = server(max_queued_output);
        door.via_gateway_ = true;
        door.gateway_opts_.maxQueuedOutputBytes = max_queued_output;
        door.gateway_opts_.healthzIntervalMs = 0;
        return door;
    }

    /** Start the door; a gateway also waits until its backend is
     *  routable, so the first request does not race the PING. */
    bool
    start()
    {
        if (!via_gateway_)
            return backend->start();
        if (!front) {
            if (!backend->start())
                return false;
            gateway_opts_.backends = {{"127.0.0.1", backend->port(), 0}};
            front = std::make_unique<Gateway>(gateway_opts_);
        }
        if (!front->start())
            return false;
        for (int i = 0; i < 1000 && front->routableBackends() == 0; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return front->routableBackends() == 1;
    }

    /** Stop the door (a gateway door leaves its backend running). */
    void
    stop()
    {
        if (front)
            front->stop();
        else
            backend->stop();
    }

    std::uint16_t port() const
    {
        return front ? front->port() : backend->port();
    }

    const std::string &error() const
    {
        return front ? front->error() : backend->error();
    }

    /** ERROR frames the door originated. */
    std::uint64_t
    protocolErrors() const
    {
        return front ? front->metricsSnapshot()
                           .counters["gateway_errors_total"]
                     : backend->metricsSnapshot()
                           .counters["net_protocol_errors_total"];
    }

    /** Declared before front: the gateway stops first. */
    std::unique_ptr<NetServer> backend;
    std::unique_ptr<Gateway> front;

  private:
    bool via_gateway_ = false;
    Gateway::Options gateway_opts_;
};

/** The control client's check after each abuse: still served,
 *  bit-identical to the oracle. */
inline void
expectStillServing(NetClient &control)
{
    ServeRequest req = matVecRequest(31337);
    NetClient::Result r = control.submit(req);
    ASSERT_TRUE(r.transportOk) << r.transportError;
    ASSERT_TRUE(r.response.ok) << r.response.error;
    EXPECT_TRUE(NetClient::matchesOracle(req, r.response));
}

/**
 * Fixture driving a healthy control client alongside each
 * malformed-input connection: after every abuse, the control client
 * must still be served correctly.
 */
class MalformedFixture : public ::testing::Test
{
  protected:
    explicit MalformedFixture(Door d) : door(std::move(d)) {}

    void
    SetUp() override
    {
        ASSERT_TRUE(door.start()) << door.error();
        ASSERT_TRUE(control.connect("127.0.0.1", door.port()))
            << control.lastError();
    }

    void expectServerStillHealthy() { expectStillServing(control); }

    Door door;
    NetClient control;
};

//---------------------------------------------------------------------
// Connection lifecycle
//---------------------------------------------------------------------

inline void
halfClosedClientStillGetsEveryResponse(Door &door)
{
    // A standards-following client may pipeline its SUBMITs,
    // shutdown its write side, and then read to EOF: the door must
    // deliver every owed response before closing, not drop the
    // in-flight ones with the read side. A METRICS and a TRACES
    // request ride among the SUBMITs and are owed a reply too.
    ASSERT_TRUE(door.start()) << door.error();

    RawConn conn(door.port());
    ASSERT_TRUE(conn.ok());
    const int kRequests = 6;
    const std::uint64_t kMetricsTag = 100, kTracesTag = 101;
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < kRequests; ++i) {
        reqs.push_back(matVecRequest(7000 + i));
        conn.send(buildSubmitFrame(static_cast<std::uint64_t>(i),
                                   reqs.back()));
        if (i == 2)
            conn.send(buildMetricsRequestFrame(kMetricsTag));
        if (i == 4)
            conn.send(buildTracesRequestFrame(kTracesTag));
    }
    conn.shutdownWrite();

    std::vector<bool> got(kRequests, false);
    bool got_metrics = false, got_traces = false;
    for (int i = 0; i < kRequests + 2; ++i) {
        Frame frame;
        ASSERT_TRUE(conn.readFrame(&frame)) << "reply " << i;
        std::string err;
        if (frame.header.tag == kMetricsTag) {
            ASSERT_EQ(frame.header.type,
                      static_cast<std::uint16_t>(FrameType::Metrics));
            MetricsSnapshot snap;
            EXPECT_TRUE(decodeMetrics(frame.payload, &snap, &err)) << err;
            EXPECT_FALSE(std::exchange(got_metrics, true));
            continue;
        }
        if (frame.header.tag == kTracesTag) {
            ASSERT_EQ(frame.header.type,
                      static_cast<std::uint16_t>(FrameType::Traces));
            std::vector<RequestTrace> traces;
            std::uint64_t total = 0;
            EXPECT_TRUE(decodeTraces(frame.payload, &traces, &total, &err))
                << err;
            EXPECT_FALSE(std::exchange(got_traces, true));
            continue;
        }
        ASSERT_EQ(frame.header.type,
                  static_cast<std::uint16_t>(FrameType::Response));
        ASSERT_LT(frame.header.tag,
                  static_cast<std::uint64_t>(kRequests));
        WireResponse resp;
        ASSERT_TRUE(decodeResponse(frame.payload, &resp, &err)) << err;
        EXPECT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(NetClient::matchesOracle(
            reqs[static_cast<std::size_t>(frame.header.tag)], resp));
        got[static_cast<std::size_t>(frame.header.tag)] = true;
    }
    for (int i = 0; i < kRequests; ++i)
        EXPECT_TRUE(got[static_cast<std::size_t>(i)]) << i;
    EXPECT_TRUE(got_metrics);
    EXPECT_TRUE(got_traces);
    // After the last owed reply the door closes the connection.
    EXPECT_TRUE(conn.awaitClose());
}

/** Run on a door built with maxQueuedOutputBytes = 16 KiB. */
inline void
pipelinedBatchSurvivesBackpressure(Door &door)
{
    // Regression: submitBatch() used to write the whole pipeline
    // before reading anything. With the door's per-connection output
    // cap tripped (it stops reading clients whose pending responses
    // exceed maxQueuedOutputBytes) and a deliberately tiny client
    // send buffer, that wedges both sides forever: the door waits for
    // the client to drain responses, the client waits for the socket
    // to accept more SUBMIT bytes. The fixed client interleaves sends
    // with reads, so this completes instead of deadlocking (a hang
    // here fails via the ctest timeout).
    ASSERT_TRUE(door.start()) << door.error();

    NetClient client;
    client.setSendBufferBytes(4096);
    ASSERT_TRUE(client.connect("127.0.0.1", door.port()))
        << client.lastError();

    // ~40 matmuls at n=16: a few hundred KiB of requests and well
    // over the 16 KiB response cap, so backpressure engages while
    // most of the pipeline is still unsent.
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 40; ++i)
        reqs.push_back(matMulRequest(9000 + i, /*n=*/16));
    std::vector<NetClient::Result> results = client.submitBatch(reqs);

    ASSERT_EQ(results.size(), reqs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].transportOk)
            << i << ": " << results[i].transportError;
        ASSERT_TRUE(results[i].response.ok)
            << i << ": " << results[i].response.error;
        EXPECT_TRUE(
            NetClient::matchesOracle(reqs[i], results[i].response))
            << i;
    }
}

inline void
restartAfterStopIsRefused(Door &door)
{
    ASSERT_TRUE(door.start()) << door.error();
    door.stop();
    EXPECT_FALSE(door.start());
    EXPECT_NE(door.error().find("restarted"), std::string::npos)
        << door.error();
}

inline void
stopWhileClientsConnectedIsClean(Door &door)
{
    ASSERT_TRUE(door.start()) << door.error();
    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", door.port()));
    NetClient::Result r = client.submit(matVecRequest(1));
    ASSERT_TRUE(r.transportOk && r.response.ok);
    door.stop();
    // The socket is gone; the client sees a transport failure, not a
    // hang.
    r = client.submit(matVecRequest(2));
    EXPECT_FALSE(r.transportOk);
}

//---------------------------------------------------------------------
// Frame-level garbage: one ERROR frame, then a close
//---------------------------------------------------------------------

/** Send @p bytes on a fresh connection; expect one ERROR frame whose
 *  message contains @p needle, then the door's close. */
inline void
expectErrorThenClose(Door &door, const std::vector<std::uint8_t> &bytes,
                     const std::string &needle)
{
    RawConn conn(door.port());
    ASSERT_TRUE(conn.ok());
    conn.send(bytes);

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    std::string message, err;
    ASSERT_TRUE(decodeError(frame.payload, &message, &err));
    EXPECT_NE(message.find(needle), std::string::npos) << message;
    // Frame-level: the stream cannot re-sync, so the door closes.
    EXPECT_TRUE(conn.awaitClose());
}

inline void
badMagicGetsErrorThenClose(Door &door, NetClient &control)
{
    std::vector<std::uint8_t> bytes = buildPingFrame(1);
    bytes[0] ^= 0xFF;
    expectErrorThenClose(door, bytes, "magic");
    expectStillServing(control);
}

inline void
badVersionGetsErrorThenClose(Door &door, NetClient &control)
{
    std::vector<std::uint8_t> bytes = buildPingFrame(1);
    bytes[4] = 0x42;
    expectErrorThenClose(door, bytes, "version");
    expectStillServing(control);
}

inline void
oversizedLengthPrefixGetsErrorThenClose(Door &door, NetClient &control)
{
    WireWriter w;
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(FrameType::Submit));
    w.u64(9);
    w.u32(0xF0000000u); // 3.75 GiB "payload"
    expectErrorThenClose(door, w.take(), "cap");
    expectStillServing(control);
}

inline void
midFrameDisconnectLeavesServerHealthy(Door &door, NetClient &control)
{
    {
        RawConn conn(door.port());
        ASSERT_TRUE(conn.ok());
        ServeRequest req = matVecRequest(7);
        std::vector<std::uint8_t> bytes = buildSubmitFrame(51, req);
        bytes.resize(bytes.size() / 3); // drop mid-frame
        conn.send(bytes);
        // Destructor closes the socket with a frame half-sent.
    }
    expectStillServing(control);
    EXPECT_EQ(door.protocolErrors(), 0u);
}

inline void
garbageFloodDoesNotStarveOtherClients(Door &door, NetClient &control)
{
    expectErrorThenClose(door, std::vector<std::uint8_t>(4096, 0xAB), "");
    expectStillServing(control);
    EXPECT_GE(door.protocolErrors(), 1u);
}

} // namespace door_cases
} // namespace sap

#endif // SAP_TESTS_FRONT_DOOR_CASES_HH
