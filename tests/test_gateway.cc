/**
 * @file
 * Chaos and routing tests for the gateway tier (net/gateway.hh): an
 * unmodified NetClient served correctly through the front door,
 * digest-sticky routing into per-backend plan caches, scatter-gather
 * snapshots, and — the point of the tier — fault injection: a
 * backend killed mid-stream with unacknowledged SUBMITs must cost no
 * client an answer. Every request ends in a correct RESPONSE
 * (post-failover, oracle-checked) or a clean ERROR frame; a tag is
 * never dropped and never answered twice (a duplicate would surface
 * as NetClient's unknown-tag protocol violation and fail the run).
 *
 * The injected faults come from FlakyBackend, an in-test backend
 * that speaks just enough of the wire protocol to become routable
 * (it answers PINGs), absorbs FORWARDs without ever answering them,
 * and drops dead — connection and listener both — after a
 * configured number of absorbed requests. That models the worst
 * failure shape: a backend that took work, acknowledged nothing,
 * and vanished.
 *
 * The gateway also runs the NetServer suite's front-door cases
 * (tests/front_door_cases.hh: half-close, backpressure, lifecycle,
 * frame-level garbage), since both tiers share one connection core,
 * and the last test pins each tier's exported series keys.
 *
 * Everything here runs under TSan in CI; cross-thread test state is
 * atomics only.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/byte_order.hh"
#include "mat/generate.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "net/server.hh"
#include "serve/plan_cache.hh"

#include "flaky_backend.hh"
#include "tests/front_door_cases.hh"
#include "tests/fuzz_corpus.hh"
#include "tests/wire_oracle.hh"

namespace sap {
namespace {

/** One counter of the gateway's own registry (0 until registered). */
std::uint64_t
gatewayCounter(const Gateway &gw, const std::string &name)
{
    return gw.metricsSnapshot().counters[name];
}

NetServer::Options
backendOptions()
{
    NetServer::Options opts;
    opts.cluster.shards = 2;
    opts.cluster.threadsPerShard = 2;
    return opts;
}

Gateway::Options
gatewayOptions(std::vector<Gateway::BackendAddr> backends)
{
    Gateway::Options opts;
    opts.backends = std::move(backends);
    // Test-speed timings: fast pings and reconnects so failure
    // detection fits in a test, not a deployment.
    opts.pingIntervalMs = 25;
    opts.pingMissLimit = 4;
    opts.reconnectIntervalMs = 50;
    opts.healthzIntervalMs = 0; // probed-plane tests opt back in
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
matMulRequest(std::uint64_t seed, Index n = 5, Index w = 3)
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

/** Spin (with sleeps) until @p pred or @p timeout_ms elapses. */
template <typename Pred>
bool
waitUntil(Pred pred, int timeout_ms = 5000)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
}

// FlakyBackend now lives in flaky_backend.hh, shared with the
// trace-propagation suite.

using door_cases::Door;
using door_cases::RawConn;

/** Find a loopback port that is currently free (bind 0, read, close).
 *  Races are possible in principle; in the test container they are
 *  not a practical concern. */
std::uint16_t
freeLoopbackPort()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr));
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    std::uint16_t port = ntohs(addr.sin_port);
    ::close(fd);
    return port;
}

//----------------------------------------------------------------------
// Routing correctness through a healthy gateway.
//----------------------------------------------------------------------

TEST(Gateway, ServesEveryKindThroughTheFrontDoor)
{
    NetServer a(backendOptions()), b(backendOptions());
    ASSERT_TRUE(a.start()) << a.error();
    ASSERT_TRUE(b.start()) << b.error();

    Gateway gw(gatewayOptions(
        {{"127.0.0.1", a.port(), 0}, {"127.0.0.1", b.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 2; }))
        << "backends never became routable";

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()))
        << client.lastError();

    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 4; ++i) {
        reqs.push_back(matVecRequest(1000 + 10 * i));
        reqs.push_back(matMulRequest(2000 + 10 * i));
        reqs.push_back(triSolveRequest(3000 + 10 * i));
    }
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

    MetricsSnapshot gs = gw.metricsSnapshot();
    EXPECT_GE(gs.counters["gateway_requests_total"], reqs.size());
    EXPECT_GE(gs.counters["gateway_responses_relayed_total"],
              reqs.size());
    EXPECT_EQ(gs.counters["gateway_failovers_total"], 0u);

    // Both backends must actually carry traffic — the ring spreads
    // 12 distinct digests over 2 backends, so a backend with zero
    // requests means routing collapsed to one leg.
    MetricsSnapshot sa, sb;
    NetClient ca, cb;
    ASSERT_TRUE(ca.connect("127.0.0.1", a.port()));
    ASSERT_TRUE(cb.connect("127.0.0.1", b.port()));
    ASSERT_TRUE(ca.metrics(&sa));
    ASSERT_TRUE(cb.metrics(&sb));
    const std::uint64_t served_a = sa.counters["serve_requests_total"];
    const std::uint64_t served_b = sb.counters["serve_requests_total"];
    EXPECT_GT(served_a, 0u);
    EXPECT_GT(served_b, 0u);
    EXPECT_EQ(served_a + served_b, reqs.size());
}

TEST(Gateway, StatsAndMetricsScatterGatherAcrossBackends)
{
    NetServer a(backendOptions()), b(backendOptions());
    ASSERT_TRUE(a.start()) << a.error();
    ASSERT_TRUE(b.start()) << b.error();
    Gateway gw(gatewayOptions(
        {{"127.0.0.1", a.port(), 0}, {"127.0.0.1", b.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 2; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 8; ++i)
        reqs.push_back(matVecRequest(4000 + 10 * i));
    for (const NetClient::Result &r : client.submitBatch(reqs)) {
        ASSERT_TRUE(r.transportOk) << r.transportError;
        ASSERT_TRUE(r.response.ok) << r.response.error;
    }

    // METRICS through the gateway = the merge of both backends'
    // registries: the serving counter and its per-engine breakdown
    // must each cover every request exactly once.
    MetricsSnapshot snap;
    ASSERT_TRUE(client.metrics(&snap)) << client.lastError();
    EXPECT_EQ(snap.counters["serve_requests_total"], reqs.size());
    const MetricLabels labels =
        engineLabels("linear", ProblemKind::MatVec, ExecMode::Simulate);
    EXPECT_EQ(snap.counters[seriesKey("serve_engine_requests_total",
                                      labels)],
              reqs.size());
    EXPECT_EQ(snap.histograms[seriesKey("serve_engine_latency_micros",
                                        labels)]
                  .count,
              reqs.size());
    auto it = snap.counters.find("net_frames_received_total");
    ASSERT_NE(it, snap.counters.end())
        << "merged metrics carry no net-layer counters";
    EXPECT_GE(it->second, reqs.size());

    // PING is answered at the gateway itself.
    EXPECT_TRUE(client.ping()) << client.lastError();
}

TEST(Gateway, RoutingIsDigestStickyIntoBackendPlanCaches)
{
    NetServer a(backendOptions()), b(backendOptions());
    ASSERT_TRUE(a.start()) << a.error();
    ASSERT_TRUE(b.start()) << b.error();
    Gateway gw(gatewayOptions(
        {{"127.0.0.1", a.port(), 0}, {"127.0.0.1", b.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 2; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));

    // Same matrix (= same plan digest), fresh vector: the second
    // submit must land on the same backend — and there, in its plan
    // cache. Ten distinct matrices so both ring legs participate.
    for (int i = 0; i < 10; ++i) {
        ServeRequest req = matVecRequest(5000 + 100 * i);
        NetClient::Result first = client.submit(req);
        ASSERT_TRUE(first.transportOk && first.response.ok)
            << first.transportError << first.response.error;
        EXPECT_FALSE(first.response.cacheHit) << i;

        req.plan.x = randomIntVec(req.plan.a.cols(), 6000 + i);
        NetClient::Result second = client.submit(req);
        ASSERT_TRUE(second.transportOk && second.response.ok);
        EXPECT_TRUE(second.response.cacheHit)
            << i << ": resubmit missed the plan cache — digest "
                    "routing is not sticky";
        EXPECT_TRUE(NetClient::matchesOracle(req, second.response));
    }
}

TEST(Gateway, UnexpectedFrameEarnsErrorAndConnectionSurvives)
{
    NetServer a(backendOptions());
    ASSERT_TRUE(a.start()) << a.error();
    Gateway gw(gatewayOptions({{"127.0.0.1", a.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; }));

    // A RESPONSE frame from a client is nonsense at the gateway: it
    // must earn a payload-level ERROR on the same tag — and the
    // connection must keep serving afterwards.
    RawConn raw(gw.port());
    ASSERT_TRUE(raw.ok());
    WireResponse bogus;
    bogus.ok = true;
    raw.send(buildResponseFrame(77, bogus));
    Frame frame;
    ASSERT_TRUE(raw.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_EQ(frame.header.tag, 77u);
    std::string message, err;
    ASSERT_TRUE(decodeError(frame.payload, &message, &err)) << err;
    EXPECT_NE(message.find("unexpected"), std::string::npos)
        << message;

    // Still alive: a PING on the same connection echoes.
    raw.send(buildPingFrame(78));
    ASSERT_TRUE(raw.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Ping));
    EXPECT_EQ(frame.header.tag, 78u);
}

TEST(Gateway, ReservedStatsFrameTypeEarnsErrorThenServes)
{
    NetServer a(backendOptions());
    ASSERT_TRUE(a.start()) << a.error();
    Gateway gw(gatewayOptions({{"127.0.0.1", a.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; }));

    // Frame type 3 (the retired STATS request, tag 9), byte for byte
    // as an old monitoring client sends it: answered at the gateway
    // with an ERROR, never gathered from the backends.
    RawConn raw(gw.port());
    ASSERT_TRUE(raw.ok());
    raw.send(fuzz::loadHexSeed(std::string(SAP_TEST_DATA_DIR) + "/fuzz",
                               "stats_request.hex"));
    Frame frame;
    ASSERT_TRUE(raw.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_EQ(frame.header.tag, 9u);
    std::string message, err;
    ASSERT_TRUE(decodeError(frame.payload, &message, &err)) << err;
    EXPECT_NE(message.find("type 3"), std::string::npos) << message;

    // The same connection routes a SUBMIT next.
    ServeRequest req = matVecRequest(7100);
    raw.send(buildSubmitFrame(10, req));
    ASSERT_TRUE(raw.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Response));
    EXPECT_EQ(frame.header.tag, 10u);
    WireResponse resp;
    ASSERT_TRUE(decodeResponse(frame.payload, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_TRUE(NetClient::matchesOracle(req, resp));
    EXPECT_GE(gatewayCounter(gw, "gateway_errors_total"), 1u);
}

TEST(Gateway, MalformedSubmitNeverReachesABackend)
{
    // The gateway validates SUBMITs with the scanner alone; what it
    // rejects must be exactly what a backend's decoder would reject,
    // with the same text, and nothing it rejects may be forwarded.
    NetServer a(backendOptions());
    ASSERT_TRUE(a.start()) << a.error();
    Gateway::Options gopts = gatewayOptions({{"127.0.0.1", a.port(), 0}});
    // Only the connect-time PING: later pings would move the
    // backend's frame counter this test watches.
    gopts.pingIntervalMs = 60000;
    Gateway gw(gopts);
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; }));

    ServeRequest req = matVecRequest(7300, 8, 3);
    const std::vector<std::uint8_t> good = encodeSubmit(req);
    // Layout: str "linear" (4 + 6), kind u8, w i64, flags u8, then A.
    const std::size_t flags_at = 4 + 6 + 1 + 8;
    const std::size_t a_at = flags_at + 1;
    std::vector<std::uint8_t> truncated(
        good.begin(),
        good.begin() + static_cast<std::ptrdiff_t>(a_at + 16 + 8 * 5));
    std::vector<std::uint8_t> reserved = good;
    reserved[flags_at] |= 0x80;
    std::vector<std::uint8_t> trailing = good;
    trailing.push_back(0);

    struct Bad
    {
        std::vector<std::uint8_t> frame;
        std::string expected;
    };
    std::vector<Bad> bad;
    std::uint64_t tag = 100;
    for (const auto *payload : {&truncated, &reserved, &trailing}) {
        ServeRequest out;
        std::string err;
        ASSERT_FALSE(decodeSubmit(*payload, &out, &err));
        bad.push_back(
            {buildFrame(FrameType::Submit, tag++, *payload), err});
    }
    {
        // A tier-up FORWARD whose embedded SUBMIT is truncated.
        std::vector<std::uint8_t> frame =
            wire_oracle::buildForwardFrame(tag++, 42, truncated);
        std::vector<std::uint8_t> forward(
            frame.begin() + kFrameHeaderBytes, frame.end());
        Digest digest = 0;
        ServeRequest out;
        std::string err;
        ASSERT_FALSE(decodeForward(forward, &digest, &out, &err));
        bad.push_back({std::move(frame), err});
    }

    const std::uint64_t frames_before =
        a.metricsSnapshot().counters["net_frames_received_total"];
    RawConn raw(gw.port());
    ASSERT_TRUE(raw.ok());
    std::vector<std::string> gateway_errors;
    for (const Bad &b : bad) {
        const std::uint64_t sent_tag = 100 + gateway_errors.size();
        raw.send(b.frame);
        Frame frame;
        ASSERT_TRUE(raw.readFrame(&frame));
        EXPECT_EQ(frame.header.type,
                  static_cast<std::uint16_t>(FrameType::Error));
        EXPECT_EQ(frame.header.tag, sent_tag);
        std::string message, err;
        ASSERT_TRUE(decodeError(frame.payload, &message, &err)) << err;
        EXPECT_EQ(message, b.expected);
        gateway_errors.push_back(message);
    }
    EXPECT_EQ(a.metricsSnapshot().counters["net_frames_received_total"],
              frames_before)
        << "a malformed SUBMIT reached the backend";

    // The same connection routes a valid SUBMIT next.
    raw.send(buildSubmitFrame(200, req));
    Frame frame;
    ASSERT_TRUE(raw.readFrame(&frame));
    ASSERT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Response));
    EXPECT_EQ(frame.header.tag, 200u);
    WireResponse resp;
    std::string err;
    ASSERT_TRUE(decodeResponse(frame.payload, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_TRUE(NetClient::matchesOracle(req, resp));

    // And a NetServer answers the same bad frames with the same text.
    RawConn direct(a.port());
    ASSERT_TRUE(direct.ok());
    for (std::size_t i = 0; i < bad.size(); ++i) {
        direct.send(bad[i].frame);
        ASSERT_TRUE(direct.readFrame(&frame));
        EXPECT_EQ(frame.header.type,
                  static_cast<std::uint16_t>(FrameType::Error));
        std::string message;
        ASSERT_TRUE(decodeError(frame.payload, &message, &err)) << err;
        EXPECT_EQ(message, gateway_errors[i]) << i;
    }
}

//----------------------------------------------------------------------
// Fault injection.
//----------------------------------------------------------------------

TEST(Gateway, NoRoutableBackendYieldsCleanErrorNotAHang)
{
    // The only configured backend does not exist.
    Gateway gw(gatewayOptions({{"127.0.0.1", freeLoopbackPort(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    EXPECT_EQ(gw.routableBackends(), 0u);

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    NetClient::Result r = client.submit(matVecRequest(7200));
    ASSERT_TRUE(r.transportOk) << r.transportError;
    EXPECT_FALSE(r.response.ok);
    EXPECT_NE(r.response.error.find("no routable backend"),
              std::string::npos)
        << r.response.error;
    EXPECT_GE(gatewayCounter(gw, "gateway_errors_total"), 1u);
}

TEST(Gateway, FailoverMidStreamLosesNoClientAndNoTag)
{
    // One honest backend, one flaky one that dies after absorbing 3
    // unacknowledged FORWARDs. Several client threads stream fresh
    // requests through the gateway the whole time. The contract:
    // every submit ends in a correct oracle-checked RESPONSE (the
    // in-flight ones via failover to the survivor) — never a hang,
    // never a dropped tag, and never a duplicate (a duplicated tag
    // would make NetClient::submitBatch fail the stream with an
    // unknown-tag protocol violation).
    NetServer honest(backendOptions());
    ASSERT_TRUE(honest.start()) << honest.error();
    FlakyBackend flaky(/*kill_after=*/3);

    Gateway gw(gatewayOptions({{"127.0.0.1", honest.port(), 0},
                               {"127.0.0.1", flaky.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 2; }))
        << "flaky backend never became routable";

    const int kThreads = 3;
    std::atomic<std::uint64_t> next_seed{10000};
    std::atomic<bool> done{false};
    std::atomic<int> served{0}, errored{0}, violations{0};

    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&] {
            NetClient client;
            if (!client.connect("127.0.0.1", gw.port())) {
                violations.fetch_add(1);
                return;
            }
            while (!done.load()) {
                std::vector<ServeRequest> reqs;
                for (int i = 0; i < 4; ++i)
                    reqs.push_back(matVecRequest(
                        next_seed.fetch_add(100)));
                std::vector<NetClient::Result> results =
                    client.submitBatch(reqs);
                for (std::size_t i = 0; i < results.size(); ++i) {
                    const NetClient::Result &r = results[i];
                    if (!r.transportOk) {
                        // Transport failures (incl. duplicate-tag
                        // protocol violations) are test failures.
                        violations.fetch_add(1);
                        return;
                    }
                    if (!r.response.ok) {
                        // A clean ERROR is permitted by the
                        // contract (resubmit budget); with one
                        // failover and budget 2 it should not
                        // actually happen — counted, asserted 0
                        // below.
                        errored.fetch_add(1);
                    } else if (!NetClient::matchesOracle(
                                   reqs[i], r.response)) {
                        violations.fetch_add(1);
                    } else {
                        served.fetch_add(1);
                    }
                }
            }
        });
    }

    // Run until the gateway has seen the backend die and failed
    // over, then a little longer to prove the survivor carries the
    // full stream.
    EXPECT_TRUE(waitUntil(
        [&] {
            return gatewayCounter(gw, "gateway_failovers_total") >= 1;
        },
        20000))
        << "flaky backend never died (absorbed "
        << flaky.forwardsAbsorbed() << " forwards)";
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    done.store(true);
    for (std::thread &t : clients)
        t.join();

    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(errored.load(), 0)
        << "a request burned its whole resubmit budget on one "
           "failover";
    EXPECT_GT(served.load(), 0);
    EXPECT_TRUE(flaky.dead());

    EXPECT_GE(gatewayCounter(gw, "gateway_failovers_total"), 1u);
    EXPECT_GE(gatewayCounter(gw, "gateway_resubmits_total"), 1u)
        << "the absorbed FORWARDs were not migrated";
    EXPECT_EQ(gw.routableBackends(), 1u);

    // And the tier keeps serving new work after the chaos.
    NetClient after;
    ASSERT_TRUE(after.connect("127.0.0.1", gw.port()));
    ServeRequest req = matVecRequest(999999);
    NetClient::Result r = after.submit(req);
    ASSERT_TRUE(r.transportOk && r.response.ok)
        << r.transportError << r.response.error;
    EXPECT_TRUE(NetClient::matchesOracle(req, r.response));
}

TEST(Gateway, LastBackendDyingFailsInflightCleanly)
{
    // The flaky backend is the ONLY backend: when it dies holding
    // unacknowledged SUBMITs there is nowhere to fail over to, so
    // every in-flight request must come back as a prompt, clean
    // ERROR — the client must never hang on a dead backend.
    FlakyBackend flaky(/*kill_after=*/1);
    Gateway gw(gatewayOptions({{"127.0.0.1", flaky.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 4; ++i)
        reqs.push_back(matVecRequest(20000 + 100 * i));
    std::vector<NetClient::Result> results = client.submitBatch(reqs);

    ASSERT_EQ(results.size(), reqs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].transportOk)
            << i << ": " << results[i].transportError;
        EXPECT_FALSE(results[i].response.ok) << i;
        EXPECT_FALSE(results[i].response.error.empty()) << i;
    }
    EXPECT_TRUE(flaky.dead());
    EXPECT_GE(gatewayCounter(gw, "gateway_failovers_total"), 1u);
    EXPECT_GE(gatewayCounter(gw, "gateway_errors_total"), reqs.size());
}

//----------------------------------------------------------------------
// What the gateway puts on the wire.
//----------------------------------------------------------------------

/** The FORWARD of @p req the gateway must have sent as @p sent (its
 *  tag is the gateway's own): the byte-wise oracle's one-buffer
 *  frame, trace context included when @p ctx is set. */
bool
isForwardOf(const std::vector<std::uint8_t> &sent, const ServeRequest &req,
            const TraceContext *ctx)
{
    return sent.size() >= kFrameHeaderBytes &&
           sent == wire_oracle::buildForwardFrame(
                       loadLe64(sent.data() + 8),
                       planDigest(req.engine, req.plan), encodeSubmit(req),
                       ctx);
}

TEST(Gateway, ForwardBytesOnTheWireMatchTheOracle)
{
    // The gateway sends a FORWARD as a head and then the client's
    // SUBMIT payload, shared with the backend's output queue. On the
    // wire that must be exactly the oracle's frame, with and without
    // a trace context, whatever size the client's reused SUBMIT
    // buffer had before.
    RecordingBackend backend(RecordingBackend::OnForward::Record);
    Gateway gw(gatewayOptions({{"127.0.0.1", backend.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; }));
    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));

    std::size_t sent = 0;
    for (bool traced : {false, true, false}) {
        SCOPED_TRACE(traced ? "traced" : "untraced");
        ServeRequest req = matVecRequest(30000 + 100 * sent, 64, 8);
        if (traced) {
            req.traceContext.traceIdHi = 0x0123456789abcdefULL;
            req.traceContext.traceIdLo = 0x1122334455667788ULL;
            req.traceContext.sampled = true;
            req.traceContext.originNanos = 12345;
        }
        NetClient::Result r = client.submit(req);
        ASSERT_TRUE(r.transportOk) << r.transportError;
        EXPECT_EQ(r.response.error, "recorded");
        const std::vector<std::vector<std::uint8_t>> forwards =
            backend.forwards();
        ASSERT_EQ(forwards.size(), ++sent);
        EXPECT_TRUE(isForwardOf(forwards.back(), req,
                                traced ? &req.traceContext : nullptr));
    }
}

TEST(Gateway, ResubmitAfterADeathMidFrameSendsTheSameBytes)
{
    // Backend 0 reads only the head of a 2.1 MB FORWARD and dies, so
    // the payload — shared by the in-flight entry and backend 0's
    // output queue — is mostly still queued when the connection
    // drops. The resubmission to backend 1 must carry the same bytes,
    // and the shared buffer must outlive neither owner (ASan).
    RecordingBackend dying(RecordingBackend::OnForward::DieMidFrame);
    RecordingBackend recorder(RecordingBackend::OnForward::Record);
    Gateway gw(gatewayOptions({{"127.0.0.1", dying.port(), 0},
                               {"127.0.0.1", recorder.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 2; }));

    // A 512² request that backend 0 owns while both are routable.
    const ConsistentHashRouter ring(2);
    ServeRequest req;
    for (std::uint64_t seed = 40000;; seed += 100) {
        req = matVecRequest(seed, 512, 32);
        if (ring.shardFor(planDigest(req.engine, req.plan)) == 0)
            break;
    }
    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    NetClient::Result r = client.submit(req);
    ASSERT_TRUE(r.transportOk) << r.transportError;
    EXPECT_EQ(r.response.error, "recorded");
    EXPECT_TRUE(dying.dead());
    EXPECT_EQ(gatewayCounter(gw, "gateway_resubmits_total"), 1u);
    const std::vector<std::vector<std::uint8_t>> forwards =
        recorder.forwards();
    ASSERT_EQ(forwards.size(), 1u);
    EXPECT_GT(forwards[0].size(), std::size_t{2} << 20);
    EXPECT_TRUE(isForwardOf(forwards[0], req, nullptr));
}

TEST(Gateway, DeadBackendRejoinsTheRingOnRecovery)
{
    std::uint16_t port = freeLoopbackPort();
    NetServer::Options opts = backendOptions();
    opts.port = port;
    auto server = std::make_unique<NetServer>(opts);
    ASSERT_TRUE(server->start()) << server->error();

    Gateway gw(gatewayOptions({{"127.0.0.1", port, 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    NetClient::Result r = client.submit(matVecRequest(30000));
    ASSERT_TRUE(r.transportOk && r.response.ok);

    // Kill the backend; the gateway must pull it from the ring and
    // answer new work with a clean ERROR.
    server->stop();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 0; }))
        << "gateway never noticed the backend die";
    r = client.submit(matVecRequest(30100));
    ASSERT_TRUE(r.transportOk) << r.transportError;
    EXPECT_FALSE(r.response.ok);

    // Revive it on the same port; the reconnect loop must bring it
    // back into the ring and traffic must flow again.
    server = std::make_unique<NetServer>(opts);
    ASSERT_TRUE(server->start()) << server->error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; },
                          10000))
        << "backend never rejoined after recovery";
    ServeRequest req = matVecRequest(30200);
    r = client.submit(req);
    ASSERT_TRUE(r.transportOk && r.response.ok)
        << r.transportError << r.response.error;
    EXPECT_TRUE(NetClient::matchesOracle(req, r.response));
}

//----------------------------------------------------------------------
// The /healthz probe plane.
//----------------------------------------------------------------------

TEST(Gateway, HealthzProbeAnswersAgainstARealAdminPlane)
{
    NetServer::Options opts = backendOptions();
    opts.adminEnabled = true;
    NetServer server(opts);
    ASSERT_TRUE(server.start()) << server.error();

    EXPECT_TRUE(probeHealthz("127.0.0.1", server.adminPort(), 1000));
    // Nothing listens on a freshly-freed port: probe must fail fast,
    // not hang.
    EXPECT_FALSE(probeHealthz("127.0.0.1", freeLoopbackPort(), 1000));
}

TEST(Gateway, FailingHealthzProbePullsBackendFromRing)
{
    // The backend's data plane is perfectly healthy — TCP connects,
    // PINGs answer — but its configured admin port is dead. The
    // prober must veto routability: that is how an operator drains a
    // backend (flip /healthz to 503) without killing its socket.
    NetServer server(backendOptions());
    ASSERT_TRUE(server.start()) << server.error();

    std::vector<Gateway::BackendAddr> addrs = {
        {"127.0.0.1", server.port(), freeLoopbackPort()}};
    Gateway::Options gopts = gatewayOptions(std::move(addrs));
    gopts.healthzIntervalMs = 50;
    Gateway gw(gopts);
    ASSERT_TRUE(gw.start()) << gw.error();

    // The backend may be routable for an instant before the first
    // probe lands; it must settle at 0 and stay there.
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 0; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(gw.routableBackends(), 0u);

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    NetClient::Result r = client.submit(matVecRequest(40000));
    ASSERT_TRUE(r.transportOk) << r.transportError;
    EXPECT_FALSE(r.response.ok);
    EXPECT_NE(r.response.error.find("no routable backend"),
              std::string::npos);
}

TEST(Gateway, GatewayMetricsExposeRoutingAndFailure)
{
    NetServer honest(backendOptions());
    ASSERT_TRUE(honest.start()) << honest.error();
    FlakyBackend flaky(/*kill_after=*/1);
    Gateway gw(gatewayOptions({{"127.0.0.1", honest.port(), 0},
                               {"127.0.0.1", flaky.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 2; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    // Stream until the flaky backend has died and failed over.
    std::uint64_t seed = 50000;
    ASSERT_TRUE(waitUntil(
        [&] {
            std::vector<ServeRequest> reqs;
            for (int i = 0; i < 4; ++i)
                reqs.push_back(matVecRequest(seed += 100));
            for (const NetClient::Result &r :
                 client.submitBatch(reqs)) {
                EXPECT_TRUE(r.transportOk) << r.transportError;
            }
            return gatewayCounter(gw, "gateway_failovers_total") >= 1;
        },
        20000));

    MetricsSnapshot snap = gw.metricsSnapshot();
    auto counter = [&](const std::string &name) -> long {
        auto it = snap.counters.find(name);
        return it == snap.counters.end()
                   ? -1
                   : static_cast<long>(it->second);
    };
    EXPECT_GT(counter("gateway_requests_total"), 0);
    EXPECT_GT(counter("gateway_responses_relayed_total"), 0);
    EXPECT_GE(counter("gateway_failovers_total"), 1);
    auto hist = snap.histograms.find("gateway_route_micros");
    ASSERT_NE(hist, snap.histograms.end())
        << "route latency histogram missing";
    EXPECT_GT(hist->second.count, 0u);
    // One labelled in-flight gauge per backend.
    for (const char *backend : {"0", "1"})
        EXPECT_EQ(snap.gauges.count(seriesKey("gateway_backend_inflight",
                                              {{"backend", backend}})),
                  1u)
            << backend;
}

//----------------------------------------------------------------------
// Front-door behaviour, shared with NetServer (the bodies live in
// tests/front_door_cases.hh): a gateway in front of one NetServer.
//----------------------------------------------------------------------

TEST(Gateway, HalfClosedClientStillGetsEveryResponse)
{
    Door door = Door::gateway();
    door_cases::halfClosedClientStillGetsEveryResponse(door);
}

TEST(Gateway, PipelinedBatchSurvivesServerBackpressure)
{
    Door door = Door::gateway(/*max_queued_output=*/16u << 10);
    door_cases::pipelinedBatchSurvivesBackpressure(door);
}

TEST(Gateway, RestartAfterStopIsRefused)
{
    Door door = Door::gateway();
    door_cases::restartAfterStopIsRefused(door);
}

TEST(Gateway, StopWhileClientsConnectedIsClean)
{
    Door door = Door::gateway();
    door_cases::stopWhileClientsConnectedIsClean(door);
}

TEST(Gateway, StopDropsInFlightWork)
{
    // The gateway's stop contract (NetServer's is the opposite, see
    // test_net_server.cc): in-flight requests die with their
    // connections. The backend absorbs the FORWARD and never
    // answers, so a stop() that waited for it would hang here.
    FlakyBackend mute(/*kill_after=*/0);
    Gateway gw(gatewayOptions({{"127.0.0.1", mute.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; }));

    RawConn conn(gw.port());
    ASSERT_TRUE(conn.ok());
    conn.send(buildSubmitFrame(1, matVecRequest(81000)));
    ASSERT_TRUE(waitUntil([&] { return mute.forwardsAbsorbed() == 1; }));
    gw.stop();

    // The client sees the connection close, with no reply.
    EXPECT_TRUE(conn.awaitClose());
    Frame frame;
    EXPECT_FALSE(conn.readFrame(&frame));
}

/** The shared malformed-input fixture on a gateway door. */
class GatewayMalformed : public door_cases::MalformedFixture
{
  protected:
    GatewayMalformed() : MalformedFixture(Door::gateway()) {}
};

TEST_F(GatewayMalformed, BadMagicGetsErrorThenClose)
{
    door_cases::badMagicGetsErrorThenClose(door, control);
}

TEST_F(GatewayMalformed, BadVersionGetsErrorThenClose)
{
    door_cases::badVersionGetsErrorThenClose(door, control);
}

TEST_F(GatewayMalformed, OversizedLengthPrefixGetsErrorThenClose)
{
    door_cases::oversizedLengthPrefixGetsErrorThenClose(door, control);
}

TEST_F(GatewayMalformed, MidFrameDisconnectLeavesServerHealthy)
{
    door_cases::midFrameDisconnectLeavesServerHealthy(door, control);
}

TEST_F(GatewayMalformed, GarbageFloodDoesNotStarveOtherClients)
{
    door_cases::garbageFloodDoesNotStarveOtherClients(door, control);
}

//----------------------------------------------------------------------
// The metric vocabulary of both tiers.
//----------------------------------------------------------------------

/** Every series key of @p snap, prefixed by its kind, sorted. */
std::vector<std::string>
seriesKeys(const MetricsSnapshot &snap)
{
    std::vector<std::string> keys;
    for (const auto &entry : snap.counters)
        keys.push_back("counter " + entry.first);
    for (const auto &entry : snap.gauges)
        keys.push_back("gauge " + entry.first);
    for (const auto &entry : snap.histograms)
        keys.push_back("histogram " + entry.first);
    return keys;
}

/** @p lines as C++ string literals, one per line, ready to paste
 *  over a pin below when a series is added on purpose. */
std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &line : lines) {
        out += "        \"";
        for (char c : line)
            out += c == '"' ? std::string("\\\"") : std::string(1, c);
        out += "\",\n";
    }
    return out;
}

TEST(Gateway, EachTierExportsThePinnedSeriesKeys)
{
    // A fixed traffic script through a gateway in front of one
    // NetServer, tracing off. Each tier's exported series keys are
    // pinned: moving the counting between layers must not add,
    // rename or drop a series (and the gateway's registry must not
    // grow net_* series, which its METRICS gather would then count
    // twice).
    NetServer backend(backendOptions());
    ASSERT_TRUE(backend.start()) << backend.error();
    Gateway gw(gatewayOptions({{"127.0.0.1", backend.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    EXPECT_TRUE(client.ping()) << client.lastError();
    ServeRequest fast = matVecRequest(80000);
    fast.plan.mode = ExecMode::Fast;
    std::vector<ServeRequest> reqs = {matVecRequest(80100),
                                      matMulRequest(80200),
                                      triSolveRequest(80300), fast};
    for (const NetClient::Result &r : client.submitBatch(reqs)) {
        ASSERT_TRUE(r.transportOk) << r.transportError;
        EXPECT_TRUE(r.response.ok) << r.response.error;
    }
    ServeRequest unknown = matVecRequest(80400);
    unknown.engine = "warp-drive"; // served as a failed response
    EXPECT_FALSE(client.submit(unknown).response.ok);
    RawConn raw(gw.port()); // a payload-level ERROR at the gateway
    ASSERT_TRUE(raw.ok());
    raw.send(buildFrame(FrameType::Submit, 5, {1, 2, 3}));
    Frame frame;
    ASSERT_TRUE(raw.readFrame(&frame));
    MetricsSnapshot merged;
    ASSERT_TRUE(client.metrics(&merged)) << client.lastError();

    // Change a pin only when a series is added, renamed or dropped
    // on purpose.
    const std::vector<std::string> backend_keys = {
        "counter net_bytes_received_total",
        "counter net_bytes_sent_total",
        "counter net_connections_accepted_total",
        "counter net_frames_received_total",
        "counter net_protocol_errors_total",
        "counter net_responses_sent_total",
        "counter plan_cache_collisions_total",
        "counter plan_cache_evictions_total",
        "counter plan_cache_hits_total",
        "counter plan_cache_misses_total",
        "counter serve_cross_check_failures_total",
        "counter serve_engine_cache_hits_total{engine=\"hex\",kind=\"matmul\",mode=\"simulate\"}",
        "counter serve_engine_cache_hits_total{engine=\"linear\",kind=\"matvec\",mode=\"fast\"}",
        "counter serve_engine_cache_hits_total{engine=\"linear\",kind=\"matvec\",mode=\"simulate\"}",
        "counter serve_engine_cache_hits_total{engine=\"tri\",kind=\"trisolve\",mode=\"simulate\"}",
        "counter serve_engine_requests_total{engine=\"hex\",kind=\"matmul\",mode=\"simulate\"}",
        "counter serve_engine_requests_total{engine=\"linear\",kind=\"matvec\",mode=\"fast\"}",
        "counter serve_engine_requests_total{engine=\"linear\",kind=\"matvec\",mode=\"simulate\"}",
        "counter serve_engine_requests_total{engine=\"tri\",kind=\"trisolve\",mode=\"simulate\"}",
        "counter serve_engine_sim_cycles_total{engine=\"hex\",kind=\"matmul\",mode=\"simulate\"}",
        "counter serve_engine_sim_cycles_total{engine=\"linear\",kind=\"matvec\",mode=\"fast\"}",
        "counter serve_engine_sim_cycles_total{engine=\"linear\",kind=\"matvec\",mode=\"simulate\"}",
        "counter serve_engine_sim_cycles_total{engine=\"tri\",kind=\"trisolve\",mode=\"simulate\"}",
        "counter serve_engine_skeleton_hits_total{engine=\"hex\",kind=\"matmul\",mode=\"simulate\"}",
        "counter serve_engine_skeleton_hits_total{engine=\"linear\",kind=\"matvec\",mode=\"fast\"}",
        "counter serve_engine_skeleton_hits_total{engine=\"linear\",kind=\"matvec\",mode=\"simulate\"}",
        "counter serve_engine_skeleton_hits_total{engine=\"tri\",kind=\"trisolve\",mode=\"simulate\"}",
        "counter serve_failures_total",
        "counter serve_requests_total",
        "gauge net_connections_live",
        "gauge serve_cycles_formula_drift",
        "gauge serve_queue_depth",
        "histogram serve_engine_latency_micros{engine=\"hex\",kind=\"matmul\",mode=\"simulate\"}",
        "histogram serve_engine_latency_micros{engine=\"linear\",kind=\"matvec\",mode=\"fast\"}",
        "histogram serve_engine_latency_micros{engine=\"linear\",kind=\"matvec\",mode=\"simulate\"}",
        "histogram serve_engine_latency_micros{engine=\"tri\",kind=\"trisolve\",mode=\"simulate\"}",
        "histogram serve_latency_micros",
        "histogram serve_queue_wait_micros",
    };
    const std::vector<std::string> gateway_keys = {
        "counter gateway_errors_total",
        "counter gateway_failovers_total",
        "counter gateway_requests_total",
        "counter gateway_responses_relayed_total",
        "counter gateway_resubmits_total",
        "gauge gateway_backend_inflight{backend=\"0\"}",
        "gauge gateway_backends_routable",
        "gauge gateway_clients_live",
        "histogram gateway_route_micros",
    };
    const std::vector<std::string> got_backend =
        seriesKeys(backend.metricsSnapshot());
    const std::vector<std::string> got_gateway =
        seriesKeys(gw.metricsSnapshot());
    EXPECT_EQ(got_backend, backend_keys) << joinLines(got_backend);
    EXPECT_EQ(got_gateway, gateway_keys) << joinLines(got_gateway);
}

} // namespace
} // namespace sap
