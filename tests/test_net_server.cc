/**
 * @file
 * Loopback integration tests for the TCP front end: every problem
 * kind served over the wire bit-identical to the host oracle,
 * multi-client concurrency, the STATS and PING round-trips, a
 * FORWARD digest taken as a routing hint only, and the
 * malformed-frame suite — garbage on a connection must earn an ERROR
 * frame and leave the server (and other connections) healthy. The
 * front-door cases shared with the gateway (half-close,
 * backpressure, lifecycle, frame-level garbage) have their bodies in
 * tests/front_door_cases.hh.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "mat/generate.hh"
#include "mat/ops.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "tests/front_door_cases.hh"
#include "tests/fuzz_corpus.hh"
#include "tests/wire_oracle.hh"

namespace sap {
namespace {

NetServer::Options
smallServerOptions()
{
    NetServer::Options opts;
    opts.cluster.shards = 2;
    opts.cluster.threadsPerShard = 2;
    return opts;
}

ServeRequest
matVecRequest(std::uint64_t seed, Index n = 6, Index w = 3)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(n, n, seed),
                                  randomIntVec(n, seed + 1),
                                  randomIntVec(n, seed + 2), w);
    return req;
}

ServeRequest
matMulRequest(std::uint64_t seed, Index n = 6, Index w = 3)
{
    ServeRequest req;
    req.engine = "hex";
    req.plan = EnginePlan::matMul(randomIntDense(n, n, seed),
                                  randomIntDense(n, n, seed + 1),
                                  randomIntDense(n, n, seed + 2), w);
    return req;
}

ServeRequest
triSolveRequest(std::uint64_t seed, Index n = 6, Index w = 3)
{
    ServeRequest req;
    req.engine = "tri";
    req.plan = EnginePlan::triSolve(randomUnitLowerTriangular(n, seed),
                                    randomIntVec(n, seed + 1), w);
    return req;
}

using door_cases::Door;
using door_cases::RawConn;

//---------------------------------------------------------------------
// Happy paths
//---------------------------------------------------------------------

TEST(NetServer, ServesEveryKindBitIdenticalOverLoopback)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()))
        << client.lastError();

    std::vector<ServeRequest> reqs = {
        matVecRequest(100), matMulRequest(200), triSolveRequest(300)};
    std::vector<NetClient::Result> results = client.submitBatch(reqs);
    ASSERT_EQ(results.size(), reqs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].transportOk)
            << results[i].transportError;
        ASSERT_TRUE(results[i].response.ok)
            << results[i].response.error;
        EXPECT_TRUE(
            NetClient::matchesOracle(reqs[i], results[i].response))
            << "kind " << static_cast<int>(reqs[i].plan.kind);
    }
}

TEST(NetServer, RepeatedMatrixHitsThePlanCacheOverTheWire)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    ServeRequest req = matVecRequest(42);
    NetClient::Result first = client.submit(req);
    ASSERT_TRUE(first.transportOk && first.response.ok);
    EXPECT_FALSE(first.response.cacheHit);

    req.plan.x = randomIntVec(req.plan.a.cols(), 4242);
    NetClient::Result second = client.submit(req);
    ASSERT_TRUE(second.transportOk && second.response.ok);
    EXPECT_TRUE(second.response.cacheHit);
    EXPECT_TRUE(NetClient::matchesOracle(req, second.response));
}

TEST(NetServer, ForwardDigestIsAHintNeverAnAnswer)
{
    // A FORWARD's digest routes the request and keys the plan cache,
    // but the cache confirms every match against the matrices: two
    // different matrices sent under one made-up digest each get a
    // plan of their own and a bit-exact answer, and the mismatch is
    // counted as a collision.
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());

    const Digest made_up = 0x5eed5eed5eed5eedULL;
    const ServeRequest reqs[] = {matVecRequest(71), matVecRequest(72)};
    ASSERT_FALSE(reqs[0].plan.a == reqs[1].plan.a);
    for (std::uint64_t tag = 1; tag <= 2; ++tag) {
        SCOPED_TRACE("forward " + std::to_string(tag));
        const ServeRequest &req = reqs[tag - 1];
        conn.send(wire_oracle::buildForwardFrame(tag, made_up,
                                                 encodeSubmit(req)));
        Frame frame;
        ASSERT_TRUE(conn.readFrame(&frame));
        ASSERT_EQ(frame.header.type,
                  static_cast<std::uint16_t>(FrameType::Response));
        EXPECT_EQ(frame.header.tag, tag);
        WireResponse resp;
        std::string err;
        ASSERT_TRUE(decodeResponse(frame.payload, &resp, &err)) << err;
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_FALSE(resp.cacheHit);
        EXPECT_TRUE(NetClient::matchesOracle(req, resp));
    }

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    MetricsSnapshot snap;
    ASSERT_TRUE(client.metrics(&snap)) << client.lastError();
    EXPECT_GE(snap.counters["plan_cache_collisions_total"], 1u);
    EXPECT_EQ(snap.counters["serve_requests_total"], 2u);
}

TEST(NetServer, PingAndStatsRoundTrip)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    EXPECT_TRUE(client.ping()) << client.lastError();

    // Serve a few requests, then check the aggregated per-engine
    // breakdown, which METRICS carries as labelled series.
    for (int i = 0; i < 3; ++i) {
        NetClient::Result r = client.submit(matVecRequest(500 + i));
        ASSERT_TRUE(r.transportOk && r.response.ok);
    }
    MetricsSnapshot snap;
    ASSERT_TRUE(client.metrics(&snap)) << client.lastError();
    EXPECT_EQ(snap.counters["serve_requests_total"], 3u);
    EXPECT_EQ(snap.counters["serve_failures_total"], 0u);
    const MetricLabels labels =
        engineLabels("linear", ProblemKind::MatVec, ExecMode::Simulate);
    EXPECT_EQ(snap.counters[seriesKey("serve_engine_requests_total",
                                      labels)],
              3u);
    const HistogramSnapshot &lat =
        snap.histograms[seriesKey("serve_engine_latency_micros", labels)];
    EXPECT_EQ(lat.count, 3u);
    EXPECT_GT(lat.quantile(0.5), 0.0);
}

TEST(NetServer, MetricsFrameMergesEveryLayerOverTheWire)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    constexpr int kRequests = 5;
    for (int i = 0; i < kRequests; ++i) {
        NetClient::Result r = client.submit(matVecRequest(900 + i));
        ASSERT_TRUE(r.transportOk && r.response.ok);
    }

    MetricsSnapshot snap;
    ASSERT_TRUE(client.metrics(&snap)) << client.lastError();

    // Shard-side counters, merged exactly across both shards.
    EXPECT_EQ(snap.counters["serve_requests_total"],
              static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(snap.counters["serve_failures_total"], 0u);
    EXPECT_EQ(snap.counters["plan_cache_hits_total"] +
                  snap.counters["plan_cache_misses_total"],
              static_cast<std::uint64_t>(kRequests));

    // Wire-level counters from the server itself.  The METRICS
    // snapshot is taken while its own request is in flight, so that
    // frame counts as received but its response is not yet sent.
    EXPECT_EQ(snap.counters["net_frames_received_total"],
              static_cast<std::uint64_t>(kRequests) + 1);
    EXPECT_EQ(snap.counters["net_responses_sent_total"],
              static_cast<std::uint64_t>(kRequests));
    EXPECT_GT(snap.counters["net_bytes_received_total"], 0u);
    EXPECT_GT(snap.counters["net_bytes_sent_total"], 0u);
    EXPECT_EQ(snap.gauges["net_connections_live"].value, 1.0);

    // Latency histogram carries every request and sane quantiles.
    ASSERT_TRUE(snap.histograms.count("serve_latency_micros"));
    const HistogramSnapshot &lat =
        snap.histograms["serve_latency_micros"];
    EXPECT_EQ(lat.count, static_cast<std::uint64_t>(kRequests));
    EXPECT_GT(lat.quantile(0.5), 0.0);
    EXPECT_LE(lat.quantile(0.5), lat.max);
}

TEST(NetServer, PingEchoesItsPayloadVerbatim)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    std::vector<std::uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x00};
    conn.send(buildFrame(FrameType::Ping, 77, payload));

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Ping));
    EXPECT_EQ(frame.header.tag, 77u);
    EXPECT_EQ(frame.payload, payload);
}

TEST(NetServer, CrossCheckFlagTravelsTheWire)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ServeRequest req = matVecRequest(77);
    req.crossCheck = true;
    NetClient::Result r = client.submit(req);
    ASSERT_TRUE(r.transportOk && r.response.ok);
    EXPECT_TRUE(r.response.crossCheckOk);
}

TEST(NetServer, ExecutionModeTravelsTheWire)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    ServeRequest req = matVecRequest(610);
    NetClient::Result sim = client.submit(req);
    ASSERT_TRUE(sim.transportOk && sim.response.ok)
        << sim.response.error;

    // Fast mode: bit-identical result, formula-identical cycles.
    req.plan.mode = ExecMode::Fast;
    NetClient::Result fast = client.submit(req);
    ASSERT_TRUE(fast.transportOk) << fast.transportError;
    ASSERT_TRUE(fast.response.ok) << fast.response.error;
    EXPECT_TRUE(fast.response.y == sim.response.y);
    EXPECT_EQ(fast.response.simCycles, sim.response.simCycles);
    EXPECT_TRUE(NetClient::matchesOracle(req, fast.response));

    // Validate mode: both paths run and diff server-side.
    req.plan.mode = ExecMode::Validate;
    NetClient::Result val = client.submit(req);
    ASSERT_TRUE(val.transportOk) << val.transportError;
    ASSERT_TRUE(val.response.ok) << val.response.error;
    EXPECT_TRUE(val.response.y == sim.response.y);

    // One labelled series per execution mode, same engine.
    MetricsSnapshot snap;
    ASSERT_TRUE(client.metrics(&snap)) << client.lastError();
    for (ExecMode mode :
         {ExecMode::Simulate, ExecMode::Fast, ExecMode::Validate})
        EXPECT_EQ(snap.counters[seriesKey(
                      "serve_engine_requests_total",
                      engineLabels("linear", ProblemKind::MatVec, mode))],
                  1u)
            << execModeName(mode);
}

TEST(NetServer, ApplicationErrorsComeBackAsFailedResponses)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    // Unknown engine: decodes fine, fails in the shard.
    ServeRequest req = matVecRequest(900);
    req.engine = "warp-drive";
    NetClient::Result r = client.submit(req);
    ASSERT_TRUE(r.transportOk) << r.transportError;
    EXPECT_FALSE(r.response.ok);
    EXPECT_NE(r.response.error.find("unknown engine"),
              std::string::npos)
        << r.response.error;

    // Shape mismatch: also a per-request failure.
    ServeRequest bad = matVecRequest(901);
    bad.plan.x = randomIntVec(bad.plan.a.cols() + 1, 902);
    r = client.submit(bad);
    ASSERT_TRUE(r.transportOk) << r.transportError;
    EXPECT_FALSE(r.response.ok);

    // The connection keeps serving after both failures.
    ServeRequest good = matVecRequest(903);
    r = client.submit(good);
    ASSERT_TRUE(r.transportOk && r.response.ok);
    EXPECT_TRUE(NetClient::matchesOracle(good, r.response));
}

TEST(NetServer, ManyClientsManyKindsConcurrently)
{
    NetServer::Options opts = smallServerOptions();
    opts.cluster.shards = 4;
    NetServer server(opts);
    ASSERT_TRUE(server.start()) << server.error();

    const int kClients = 4;
    const int kRounds = 5;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            NetClient client;
            if (!client.connect("127.0.0.1", server.port())) {
                failures.fetch_add(1);
                return;
            }
            for (int i = 0; i < kRounds; ++i) {
                std::uint64_t seed =
                    static_cast<std::uint64_t>(1000 + c * 100 + i);
                std::vector<ServeRequest> reqs = {
                    matVecRequest(seed), matMulRequest(seed + 40),
                    triSolveRequest(seed + 80)};
                std::vector<NetClient::Result> results =
                    client.submitBatch(reqs);
                for (std::size_t k = 0; k < results.size(); ++k) {
                    if (!results[k].transportOk ||
                        !results[k].response.ok ||
                        !NetClient::matchesOracle(
                            reqs[k], results[k].response))
                        failures.fetch_add(1);
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    MetricsSnapshot net = server.metricsSnapshot();
    EXPECT_EQ(net.counters["net_connections_accepted_total"],
              static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(net.counters["net_responses_sent_total"],
              static_cast<std::uint64_t>(kClients * kRounds * 3));
    EXPECT_EQ(net.counters["net_protocol_errors_total"], 0u);
}

// The front-door cases below run through both doors; their bodies
// live in tests/front_door_cases.hh, the gateway twins in
// test_gateway.cc.

TEST(NetServer, HalfClosedClientStillGetsEveryResponse)
{
    Door door = Door::server();
    door_cases::halfClosedClientStillGetsEveryResponse(door);
}

TEST(NetServer, PipelinedBatchSurvivesServerBackpressure)
{
    Door door = Door::server(/*max_queued_output=*/16u << 10);
    door_cases::pipelinedBatchSurvivesBackpressure(door);
}

TEST(NetServer, RestartAfterStopIsRefused)
{
    Door door = Door::server();
    door_cases::restartAfterStopIsRefused(door);
}

TEST(NetServer, StopWhileClientsConnectedIsClean)
{
    Door door = Door::server();
    door_cases::stopWhileClientsConnectedIsClean(door);
}

TEST(NetServer, StopAnswersEveryAcceptedRequest)
{
    // The NetServer's stop contract (the gateway's is the opposite,
    // see test_gateway.cc): every request it has accepted is served
    // and its response flushed before the connection closes.
    NetServer::Options opts = smallServerOptions();
    opts.cluster.shards = 1;
    opts.cluster.threadsPerShard = 1;
    NetServer server(opts);
    ASSERT_TRUE(server.start()) << server.error();

    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    const int kRequests = 8;
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < kRequests; ++i) {
        // w = 1 keeps each simulated request slow enough that most
        // are still queued when stop() begins.
        reqs.push_back(matVecRequest(8000 + i, 96, 1));
        conn.send(buildSubmitFrame(static_cast<std::uint64_t>(i),
                                   reqs.back()));
    }
    while (server.metricsSnapshot().counters["net_frames_received_total"] <
           static_cast<std::uint64_t>(kRequests))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.stop();

    std::vector<bool> got(kRequests, false);
    for (int i = 0; i < kRequests; ++i) {
        Frame frame;
        ASSERT_TRUE(conn.readFrame(&frame)) << "response " << i;
        ASSERT_EQ(frame.header.type,
                  static_cast<std::uint16_t>(FrameType::Response));
        ASSERT_LT(frame.header.tag,
                  static_cast<std::uint64_t>(kRequests));
        WireResponse resp;
        std::string err;
        ASSERT_TRUE(decodeResponse(frame.payload, &resp, &err)) << err;
        EXPECT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(NetClient::matchesOracle(
            reqs[static_cast<std::size_t>(frame.header.tag)], resp));
        got[static_cast<std::size_t>(frame.header.tag)] = true;
    }
    for (int i = 0; i < kRequests; ++i)
        EXPECT_TRUE(got[static_cast<std::size_t>(i)]) << i;
    EXPECT_TRUE(conn.awaitClose());
}

//---------------------------------------------------------------------
// Malformed-frame suite: ERROR frames, healthy server
//---------------------------------------------------------------------

/** The shared malformed-input fixture (tests/front_door_cases.hh)
 *  on a NetServer door. */
class NetServerMalformed : public door_cases::MalformedFixture
{
  protected:
    NetServerMalformed() : MalformedFixture(Door::server()) {}

    NetServer *const server = door.backend.get();
};

TEST_F(NetServerMalformed, BadMagicGetsErrorThenClose)
{
    door_cases::badMagicGetsErrorThenClose(door, control);
}

TEST_F(NetServerMalformed, BadVersionGetsErrorThenClose)
{
    door_cases::badVersionGetsErrorThenClose(door, control);
}

TEST_F(NetServerMalformed, OversizedLengthPrefixGetsErrorThenClose)
{
    door_cases::oversizedLengthPrefixGetsErrorThenClose(door, control);
}

TEST_F(NetServerMalformed, TruncatedSubmitPayloadKeepsConnection)
{
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    // A syntactically framed SUBMIT whose payload is cut short:
    // payload-level, so the connection survives.
    ServeRequest req = matVecRequest(5);
    std::vector<std::uint8_t> payload = encodeSubmit(req);
    payload.resize(payload.size() / 2);
    conn.send(buildFrame(FrameType::Submit, 11, payload));

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_EQ(frame.header.tag, 11u);

    // Same connection serves a well-formed request afterwards.
    conn.send(buildSubmitFrame(12, req));
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Response));
    EXPECT_EQ(frame.header.tag, 12u);
    WireResponse resp;
    std::string err;
    ASSERT_TRUE(decodeResponse(frame.payload, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
    EXPECT_TRUE(NetClient::matchesOracle(req, resp));
    expectServerStillHealthy();
}

TEST_F(NetServerMalformed, UnknownProblemKindKeepsConnection)
{
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    WireWriter w;
    w.str("linear");
    w.u8(42); // no such kind
    w.i64(3);
    w.u8(0);
    conn.send(buildFrame(FrameType::Submit, 21, w.take()));

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_EQ(frame.header.tag, 21u);
    std::string message, err;
    ASSERT_TRUE(decodeError(frame.payload, &message, &err));
    EXPECT_NE(message.find("unknown problem kind"), std::string::npos)
        << message;

    ServeRequest req = matVecRequest(6);
    conn.send(buildSubmitFrame(22, req));
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Response));
    expectServerStillHealthy();
}

TEST_F(NetServerMalformed, ZeroDimensionMatrixKeepsConnection)
{
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    WireWriter w;
    w.str("linear");
    w.u8(0); // MatVec
    w.i64(3);
    w.u8(0);
    w.i64(0); // A rows = 0
    w.i64(4); // A cols
    w.i64(4); // x length
    for (int i = 0; i < 4; ++i)
        w.f64(1.0);
    w.i64(0); // b length
    conn.send(buildFrame(FrameType::Submit, 31, w.take()));

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_EQ(frame.header.tag, 31u);
    std::string message, err;
    ASSERT_TRUE(decodeError(frame.payload, &message, &err));
    EXPECT_NE(message.find("zero-dimension"), std::string::npos)
        << message;
    expectServerStillHealthy();
}

TEST_F(NetServerMalformed, RecordTraceRequestIsRejectedNotDropped)
{
    // RESPONSE frames carry no trace, so a SUBMIT asking for one is
    // refused with an explicit error instead of silently serving a
    // traceless result (the flags byte carries the bit precisely so
    // the server can catch this).
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    ServeRequest req = matVecRequest(8);
    req.plan.recordTrace = true;
    conn.send(buildSubmitFrame(61, req));

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_EQ(frame.header.tag, 61u);
    std::string message, err;
    ASSERT_TRUE(decodeError(frame.payload, &message, &err));
    EXPECT_NE(message.find("no trace"), std::string::npos) << message;

    // Payload-level: the same connection keeps serving.
    req.plan.recordTrace = false;
    conn.send(buildSubmitFrame(62, req));
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Response));
    EXPECT_EQ(frame.header.tag, 62u);
    expectServerStillHealthy();
}

TEST_F(NetServerMalformed, UnknownFrameTypeKeepsConnection)
{
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    conn.send(buildFrame(static_cast<FrameType>(200), 41, {9, 9}));

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_EQ(frame.header.tag, 41u);

    conn.send(buildPingFrame(42));
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Ping));
    EXPECT_EQ(frame.header.tag, 42u);
    expectServerStillHealthy();
}

TEST_F(NetServerMalformed, MidFrameDisconnectLeavesServerHealthy)
{
    door_cases::midFrameDisconnectLeavesServerHealthy(door, control);
}

TEST_F(NetServerMalformed, GarbageFloodDoesNotStarveOtherClients)
{
    door_cases::garbageFloodDoesNotStarveOtherClients(door, control);
}

TEST_F(NetServerMalformed, ReservedStatsFrameTypeEarnsErrorThenServes)
{
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    // Frame type 3 (the retired STATS request, tag 9), byte for byte
    // as an old monitoring client sends it.
    conn.send(fuzz::loadHexSeed(std::string(SAP_TEST_DATA_DIR) + "/fuzz",
                                "stats_request.hex"));

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_EQ(frame.header.tag, 9u);
    std::string message, err;
    ASSERT_TRUE(decodeError(frame.payload, &message, &err)) << err;
    EXPECT_NE(message.find("type 3"), std::string::npos) << message;

    // Payload-level: the same connection serves a SUBMIT next.
    ServeRequest req = matVecRequest(4242);
    conn.send(buildSubmitFrame(10, req));
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Response));
    EXPECT_EQ(frame.header.tag, 10u);
    WireResponse resp;
    ASSERT_TRUE(decodeResponse(frame.payload, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_TRUE(NetClient::matchesOracle(req, resp));
    EXPECT_GE(
        server->metricsSnapshot().counters["net_protocol_errors_total"],
        1u);
}

} // namespace
} // namespace sap
