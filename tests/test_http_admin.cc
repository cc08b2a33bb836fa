/**
 * @file
 * Admin-plane tests: the HTTP request parser driven directly
 * (bounds and strictness), the health state machine's transitions
 * and hysteresis, the flight recorder's interval math and bounded
 * rings, and loopback coverage of every endpoint — responses parsed
 * strictly (status line, Content-Type, Content-Length vs body),
 * /metrics validated by the exposition-format checker, JSON
 * endpoints by the strict JSON checker — through both doors, a
 * NetServer and a Gateway, which share one admin plane — /healthz
 * flipping 200→503
 * under induced queue saturation and recovering, and the
 * malformed/oversized/non-GET suite that must never crash the admin
 * thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/string_util.hh"
#include "checkers.hh"
#include "mat/generate.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "net/server.hh"
#include "obs/health.hh"
#include "obs/http_admin.hh"
#include "obs/timeseries.hh"
#include "tools/tool_common.hh"

namespace sap {
namespace {

//---------------------------------------------------------------------
// Request parsing (no sockets)
//---------------------------------------------------------------------

TEST(HttpParse, AcceptsPlainGet)
{
    HttpRequest req;
    EXPECT_EQ(parseHttpRequest("GET /metrics HTTP/1.1\r\n"
                               "Host: localhost\r\n\r\n",
                               &req),
              HttpParseResult::Ok);
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.path, "/metrics");
    EXPECT_TRUE(req.query.empty());
}

TEST(HttpParse, SplitsQueryPairs)
{
    HttpRequest req;
    ASSERT_EQ(parseHttpRequest(
                  "GET /tracez?format=chrome&raw HTTP/1.0\r\n\r\n",
                  &req),
              HttpParseResult::Ok);
    EXPECT_EQ(req.path, "/tracez");
    EXPECT_EQ(req.query.at("format"), "chrome");
    EXPECT_EQ(req.query.at("raw"), "");
}

TEST(HttpParse, NeedsMoreUntilBlankLine)
{
    HttpRequest req;
    EXPECT_EQ(parseHttpRequest("GET / HTTP/1.1\r\n", &req),
              HttpParseResult::NeedMore);
    EXPECT_EQ(parseHttpRequest("GET / HTTP/1.1\r\nHost: x\r\n", &req),
              HttpParseResult::NeedMore);
}

TEST(HttpParse, HeadIsAllowedOtherMethodsAreNot)
{
    HttpRequest req;
    EXPECT_EQ(parseHttpRequest("HEAD /metrics HTTP/1.1\r\n\r\n", &req),
              HttpParseResult::Ok);
    EXPECT_EQ(req.method, "HEAD");
    EXPECT_EQ(parseHttpRequest("POST /metrics HTTP/1.1\r\n\r\n", &req),
              HttpParseResult::MethodNotAllowed);
    EXPECT_EQ(parseHttpRequest("DELETE /metrics HTTP/1.1\r\n\r\n",
                               &req),
              HttpParseResult::MethodNotAllowed);
}

TEST(HttpParse, RejectsMalformedRequestLines)
{
    HttpRequest req;
    // Not three tokens.
    EXPECT_EQ(parseHttpRequest("GET /metrics\r\n\r\n", &req),
              HttpParseResult::Malformed);
    EXPECT_EQ(parseHttpRequest("GET / a HTTP/1.1\r\n\r\n", &req),
              HttpParseResult::Malformed);
    // Bad version.
    EXPECT_EQ(parseHttpRequest("GET / HTTP/2\r\n\r\n", &req),
              HttpParseResult::Malformed);
    // Target must start with '/'.
    EXPECT_EQ(parseHttpRequest("GET metrics HTTP/1.1\r\n\r\n", &req),
              HttpParseResult::Malformed);
    // Lowercase method token.
    EXPECT_EQ(parseHttpRequest("get / HTTP/1.1\r\n\r\n", &req),
              HttpParseResult::Malformed);
    // Control character in the target.
    EXPECT_EQ(parseHttpRequest("GET /me\ttrics HTTP/1.1\r\n\r\n",
                               &req),
              HttpParseResult::Malformed);
    // Header line without a colon.
    EXPECT_EQ(parseHttpRequest(
                  "GET / HTTP/1.1\r\nnot a header\r\n\r\n", &req),
              HttpParseResult::Malformed);
    // Embedded NUL can never become a valid head.
    EXPECT_EQ(parseHttpRequest(std::string("GE\0T", 4), &req),
              HttpParseResult::Malformed);
}

TEST(HttpParse, ResponseRendering)
{
    HttpResponse resp;
    resp.status = 200;
    resp.contentType = "application/json";
    resp.body = "{\"a\":1}";
    resp.extraHeaders.emplace_back("X-Extra", "yes");

    const std::string wire = renderHttpResponse(resp);
    EXPECT_EQ(wire.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
              std::string::npos);
    EXPECT_NE(wire.find("Content-Length: 7\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
    EXPECT_NE(wire.find("X-Extra: yes\r\n"), std::string::npos);
    EXPECT_EQ(wire.substr(wire.size() - 7), "{\"a\":1}");

    // HEAD: identical headers (including Content-Length), no body.
    const std::string head = renderHttpResponse(resp, true);
    EXPECT_NE(head.find("Content-Length: 7\r\n"), std::string::npos);
    EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");
}

//---------------------------------------------------------------------
// Health state machine
//---------------------------------------------------------------------

HealthInputs
healthyInputs(double now)
{
    HealthInputs in;
    in.serving = true;
    in.queueDepth = 0;
    in.protocolErrors = 0;
    in.p99Micros = 0;
    in.nowSeconds = now;
    return in;
}

TEST(Health, OkWhileServingQuietly)
{
    HealthModel model(HealthThresholds{});
    HealthReport report = model.evaluate(healthyInputs(1.0));
    EXPECT_EQ(report.state, HealthState::Ok);
    EXPECT_TRUE(report.live);
    EXPECT_TRUE(report.ready);
    EXPECT_TRUE(report.reason.empty());
}

TEST(Health, NotServingIsUnhealthyAndNotReady)
{
    HealthModel model(HealthThresholds{});
    HealthInputs in = healthyInputs(1.0);
    in.serving = false;
    HealthReport report = model.evaluate(in);
    EXPECT_EQ(report.state, HealthState::Unhealthy);
    EXPECT_FALSE(report.live);
    EXPECT_FALSE(report.ready);
    EXPECT_NE(report.reason.find("not serving"), std::string::npos);
}

TEST(Health, QueueDepthDrivesDegradedThenUnhealthy)
{
    HealthThresholds t;
    t.degradedQueueDepth = 10;
    t.unhealthyQueueDepth = 100;
    HealthModel model(t);

    HealthInputs in = healthyInputs(1.0);
    in.queueDepth = 50;
    EXPECT_EQ(model.evaluate(in).state, HealthState::Degraded);

    in.nowSeconds = 2.0;
    in.queueDepth = 150;
    HealthReport report = model.evaluate(in);
    EXPECT_EQ(report.state, HealthState::Unhealthy);
    EXPECT_FALSE(report.live);
    EXPECT_NE(report.reason.find("queue depth"), std::string::npos);
}

TEST(Health, HysteresisHoldsUnhealthyUntilFullyRecovered)
{
    HealthThresholds t;
    t.degradedQueueDepth = 10;
    t.unhealthyQueueDepth = 100;
    HealthModel model(t);

    HealthInputs in = healthyInputs(1.0);
    in.queueDepth = 200;
    EXPECT_EQ(model.evaluate(in).state, HealthState::Unhealthy);

    // Below the hard bound but above the soft one: still Unhealthy
    // (no flapping at the boundary).
    in.nowSeconds = 2.0;
    in.queueDepth = 50;
    EXPECT_EQ(model.evaluate(in).state, HealthState::Unhealthy);

    // Fully below the soft bound: recovered.
    in.nowSeconds = 3.0;
    in.queueDepth = 2;
    HealthReport report = model.evaluate(in);
    EXPECT_EQ(report.state, HealthState::Ok);
    EXPECT_TRUE(report.live);
}

TEST(Health, ProtocolErrorRateFromCumulativeCounter)
{
    HealthThresholds t;
    t.degradedProtocolErrorsPerSec = 5;
    t.unhealthyProtocolErrorsPerSec = 50;
    HealthModel model(t);

    HealthInputs in = healthyInputs(1.0);
    in.protocolErrors = 0;
    EXPECT_EQ(model.evaluate(in).state, HealthState::Ok);

    // 100 errors over 1 s = 100/s >= 50: Unhealthy.
    in.nowSeconds = 2.0;
    in.protocolErrors = 100;
    HealthReport report = model.evaluate(in);
    EXPECT_EQ(report.state, HealthState::Unhealthy);
    EXPECT_NEAR(report.protocolErrorsPerSec, 100.0, 1e-9);

    // Counter reset (restart): rate starts over, not a huge wrap.
    in.nowSeconds = 3.0;
    in.protocolErrors = 2;
    report = model.evaluate(in);
    EXPECT_NEAR(report.protocolErrorsPerSec, 0.0, 1e-9);
    EXPECT_EQ(report.state, HealthState::Ok);
}

TEST(Health, P99BudgetIsDegradedOnly)
{
    HealthThresholds t;
    t.p99BudgetMicros = 1000;
    HealthModel model(t);

    HealthInputs in = healthyInputs(1.0);
    in.p99Micros = 5000;
    HealthReport report = model.evaluate(in);
    EXPECT_EQ(report.state, HealthState::Degraded);
    EXPECT_TRUE(report.live); // SLO miss routes away, never kills
    EXPECT_NE(report.reason.find("p99"), std::string::npos);

    // Budget disabled (0): the same p99 is fine.
    HealthModel off(HealthThresholds{});
    EXPECT_EQ(off.evaluate(in).state, HealthState::Ok);
}

//---------------------------------------------------------------------
// Flight recorder
//---------------------------------------------------------------------

MetricsSnapshot
snapshotAt(std::uint64_t requests, double depth, double latencyEach,
           int latencyCount)
{
    MetricsSnapshot snap;
    snap.counters["serve_requests_total"] = requests;
    snap.gauges["serve_queue_depth"] = GaugeValue{depth, GaugeAgg::Sum};
    Histogram h;
    for (int i = 0; i < latencyCount; ++i)
        h.record(latencyEach);
    snap.histograms["serve_latency_micros"] = h.snapshot();
    return snap;
}

TEST(FlightRecorder, DerivesRatesGaugesAndQuantilesPerInterval)
{
    FlightRecorderConfig cfg;
    cfg.intervalSeconds = 1.0;
    cfg.retainSamples = 10;
    FlightRecorder rec([] { return MetricsSnapshot(); }, cfg);

    rec.sample(snapshotAt(0, 0, 0, 0), 10.0);           // baseline
    rec.sample(snapshotAt(100, 4, 200.0, 100), 11.0);   // +100 in 1 s
    rec.sample(snapshotAt(150, 2, 1000.0, 50), 12.0);   // +50 in 1 s

    EXPECT_EQ(rec.samplesTaken(), 3u);
    EXPECT_NEAR(rec.latestValue("serve_requests_total:rate"), 50.0,
                1e-9);
    EXPECT_NEAR(rec.latestValue("serve_queue_depth"), 2.0, 1e-9);
    // Second interval added only ~1000us samples; the interval p99
    // must reflect them, not the cumulative mix.
    EXPECT_GT(rec.latestValue("serve_latency_micros:p99"), 500.0);
    EXPECT_NEAR(rec.latestValue("serve_latency_micros:rate"), 50.0,
                1e-9);
    EXPECT_EQ(rec.latestValue("no_such_series", -1.0), -1.0);

    FlightRecorderSnapshot snap = rec.snapshot();
    EXPECT_EQ(snap.timesSeconds.size(), 2u); // baseline emits nothing
    EXPECT_EQ(snap.timesSeconds.front(), 11.0);
}

TEST(FlightRecorder, RingsStayBounded)
{
    FlightRecorderConfig cfg;
    cfg.intervalSeconds = 1.0;
    cfg.retainSamples = 5;
    FlightRecorder rec([] { return MetricsSnapshot(); }, cfg);

    for (int i = 0; i <= 100; ++i)
        rec.sample(snapshotAt(std::uint64_t(i) * 10, i, 0, 0),
                   100.0 + i);

    FlightRecorderSnapshot snap = rec.snapshot();
    EXPECT_EQ(snap.timesSeconds.size(), 5u);
    // Oldest-first ordering with only the newest retained.
    EXPECT_EQ(snap.timesSeconds.front(), 196.0);
    EXPECT_EQ(snap.timesSeconds.back(), 200.0);
    for (const TimeSeries &ts : snap.series) {
        EXPECT_LE(ts.values.size(), 5u) << ts.name;
        if (ts.name == "serve_requests_total:rate") {
            for (double v : ts.values)
                EXPECT_NEAR(v, 10.0, 1e-9);
        }
    }
}

TEST(FlightRecorder, JsonExportIsStrictlyValid)
{
    FlightRecorderConfig cfg;
    cfg.retainSamples = 4;
    FlightRecorder rec([] { return MetricsSnapshot(); }, cfg);
    rec.sample(snapshotAt(0, 0, 0, 0), 1.0);
    rec.sample(snapshotAt(10, 1, 50.0, 10), 2.0);

    const std::string json = toTimeseriesJson(rec.snapshot());
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"interval_seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"serve_requests_total:rate\""),
              std::string::npos);

    // Empty recorder: still valid JSON.
    FlightRecorder fresh([] { return MetricsSnapshot(); }, cfg);
    EXPECT_TRUE(JsonChecker(toTimeseriesJson(fresh.snapshot())).valid());
}

//---------------------------------------------------------------------
// Dashboard row math (tools/tool_common.hh, shared by sap_top and
// sap_stats)
//---------------------------------------------------------------------

TEST(DashboardRow, ComputesPerIntervalColumns)
{
    MetricsSnapshot delta;
    delta.counters["serve_requests_total"] = 200;
    delta.counters["serve_failures_total"] = 4;
    delta.counters["plan_cache_hits_total"] = 30;
    delta.counters["plan_cache_misses_total"] = 10;
    delta.counters["net_bytes_received_total"] = 1000;
    delta.counters["net_bytes_sent_total"] = 3000;
    delta.gauges["serve_queue_depth"] = GaugeValue{7, GaugeAgg::Sum};
    Histogram h;
    for (int i = 0; i < 100; ++i)
        h.record(100.0);
    delta.histograms["serve_latency_micros"] = h.snapshot();

    tools::DashboardRow row = tools::dashboardRow(delta, 2.0);
    EXPECT_NEAR(row.reqPerSec, 100.0, 1e-9);
    EXPECT_NEAR(row.failPerSec, 2.0, 1e-9);
    EXPECT_NEAR(row.cacheHitRatio, 0.75, 1e-9);
    EXPECT_NEAR(row.bytesInPerSec, 500.0, 1e-9);
    EXPECT_NEAR(row.bytesOutPerSec, 1500.0, 1e-9);
    EXPECT_EQ(row.queueDepth, 7.0);
    EXPECT_GT(row.p50Micros, 50.0);
    EXPECT_LT(row.p99Micros, 200.0);

    // An empty interval computes all-zero, no division hazards.
    tools::DashboardRow idle =
        tools::dashboardRow(MetricsSnapshot(), 1.0);
    EXPECT_EQ(idle.reqPerSec, 0.0);
    EXPECT_EQ(idle.cacheHitRatio, 0.0);
    EXPECT_EQ(idle.p99Micros, 0.0);
}

//---------------------------------------------------------------------
// Exposition-format checker self-test
//---------------------------------------------------------------------

TEST(PromChecker, AcceptsValidRejectsInvalid)
{
    EXPECT_TRUE(PromChecker("# TYPE a counter\na 1\n").valid());
    EXPECT_TRUE(PromChecker("# TYPE a_micros histogram\n"
                            "a_micros_bucket{le=\"0.5\"} 1\n"
                            "a_micros_bucket{le=\"+Inf\"} 2\n"
                            "a_micros_sum 3.5\n"
                            "a_micros_count 2\n")
                    .valid());
    EXPECT_TRUE(
        PromChecker("# TYPE g gauge\ng{x=\"a\\\\b\\\"c\\nd\"} -2e-3\n")
            .valid());

    // Sample without a TYPE declaration.
    PromChecker undeclared("b 1\n");
    EXPECT_FALSE(undeclared.valid());
    // Raw quote inside a label value.
    EXPECT_FALSE(
        PromChecker("# TYPE g gauge\ng{x=\"a\"b\"} 1\n").valid());
    // Bad escape in a label value.
    EXPECT_FALSE(
        PromChecker("# TYPE g gauge\ng{x=\"a\\tb\"} 1\n").valid());
    // Garbage value.
    EXPECT_FALSE(PromChecker("# TYPE a counter\na one\n").valid());
    // Missing trailing newline.
    EXPECT_FALSE(PromChecker("# TYPE a counter\na 1").valid());
    // Histograms expose only suffixed samples.
    EXPECT_FALSE(
        PromChecker("# TYPE h histogram\nh 1\n").valid());
}

TEST(PromChecker, AcceptsRenderPrometheusOutput)
{
    MetricsSnapshot snap;
    snap.counters["serve_requests_total"] = 12;
    snap.gauges["serve_queue_depth"] = GaugeValue{3, GaugeAgg::Sum};
    Histogram h;
    h.record(100.0);
    h.record(1e12); // overflow bucket → le="+Inf" only
    snap.histograms["serve_latency_micros"] = h.snapshot();

    PromChecker plain(renderPrometheus(snap));
    EXPECT_TRUE(plain.valid()) << plain.error();

    std::map<std::string, std::string> labels;
    labels["instance"] = "a\\b \"c\"\nd";
    const std::string text = renderPrometheus(snap, labels);
    PromChecker labeled(text);
    EXPECT_TRUE(labeled.valid()) << labeled.error() << "\n" << text;
}

//---------------------------------------------------------------------
// Loopback: the served admin plane
//---------------------------------------------------------------------

/** A strictly parsed HTTP response. */
struct ParsedResponse
{
    bool ok = false;     ///< parse succeeded
    int status = 0;
    std::map<std::string, std::string> headers; ///< lowercased keys
    std::string body;
    std::string error;
};

/** One blocking HTTP exchange over loopback: send @p raw, read to
 *  EOF (the server always closes), parse strictly. */
ParsedResponse
httpExchange(std::uint16_t port, const std::string &raw)
{
    ParsedResponse out;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        out.error = "connect failed";
        return out;
    }
    std::size_t off = 0;
    while (off < raw.size()) {
        ssize_t n = ::send(fd, raw.data() + off, raw.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            break;
        off += static_cast<std::size_t>(n);
    }
    std::string resp;
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        resp.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    if (resp.empty()) {
        out.error = "connection closed with no response";
        return out;
    }
    const std::size_t headEnd = resp.find("\r\n\r\n");
    if (headEnd == std::string::npos) {
        out.error = "no header terminator";
        return out;
    }
    const std::string head = resp.substr(0, headEnd);
    out.body = resp.substr(headEnd + 4);

    // Status line: HTTP/1.1 NNN Reason.
    const std::size_t eol = head.find("\r\n");
    const std::string statusLine = head.substr(0, eol);
    if (statusLine.rfind("HTTP/1.1 ", 0) != 0 ||
        statusLine.size() < 13 || statusLine[12] != ' ') {
        out.error = "bad status line: " + statusLine;
        return out;
    }
    out.status = std::stoi(statusLine.substr(9, 3));

    std::size_t pos = eol == std::string::npos ? head.size() : eol + 2;
    while (pos < head.size()) {
        std::size_t lineEnd = head.find("\r\n", pos);
        const std::string line = head.substr(pos, lineEnd - pos);
        pos = lineEnd == std::string::npos ? head.size() : lineEnd + 2;
        const std::size_t colon = line.find(": ");
        if (colon == std::string::npos) {
            out.error = "bad header line: " + line;
            return out;
        }
        std::string key = line.substr(0, colon);
        for (char &c : key)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        out.headers[key] = line.substr(colon + 2);
    }

    // The strict contract every response must honor.
    auto cl = out.headers.find("content-length");
    if (cl == out.headers.end()) {
        out.error = "missing Content-Length";
        return out;
    }
    if (std::stoul(cl->second) != out.body.size()) {
        out.error = "Content-Length " + cl->second + " != body " +
                    std::to_string(out.body.size());
        return out;
    }
    if (!out.headers.count("content-type")) {
        out.error = "missing Content-Type";
        return out;
    }
    out.ok = true;
    return out;
}

ParsedResponse
httpGet(std::uint16_t port, const std::string &target)
{
    return httpExchange(port,
                        "GET " + target + " HTTP/1.1\r\n"
                        "Host: 127.0.0.1\r\n\r\n");
}

NetServer::Options
adminServerOptions()
{
    NetServer::Options opts;
    opts.cluster.shards = 2;
    opts.cluster.threadsPerShard = 2;
    opts.adminEnabled = true;
    // Fast sampler so /timeseriesz fills within the test.
    opts.samplerIntervalSeconds = 0.05;
    opts.trace.enabled = true;
    opts.trace.sampleEvery = 1;
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

/** One door's admin plane, as servesEveryEndpointStrictly() sees it. */
struct AdminDoor
{
    std::uint16_t port = 0;
    std::uint16_t adminPort = 0;
    const FlightRecorder *recorder = nullptr;
    /** Series (labelled or not) that count every request: each must
     *  read 8 after the traffic. */
    std::vector<std::string> countersAt8;
    /** A histogram family the exposition must TYPE. */
    std::string histogram;
};

/** Put 8 requests through the door, then check every admin endpoint
 *  strictly. */
void
servesEveryEndpointStrictly(const AdminDoor &door)
{
    ASSERT_NE(door.adminPort, 0);

    // Put some traffic through so every surface has data.
    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", door.port));
    for (int i = 0; i < 8; ++i) {
        NetClient::Result r = client.submit(matVecRequest(500 + i));
        ASSERT_TRUE(r.transportOk && r.response.ok);
    }

    // Index page.
    ParsedResponse index = httpGet(door.adminPort, "/");
    ASSERT_TRUE(index.ok) << index.error;
    EXPECT_EQ(index.status, 200);
    EXPECT_NE(index.body.find("/metrics"), std::string::npos);

    // /metrics: valid exposition with the serving metrics present,
    // labelled series included.
    ParsedResponse metrics = httpGet(door.adminPort, "/metrics");
    ASSERT_TRUE(metrics.ok) << metrics.error;
    EXPECT_EQ(metrics.status, 200);
    EXPECT_EQ(metrics.headers["content-type"].rfind("text/plain", 0),
              0u);
    PromChecker prom(metrics.body);
    EXPECT_TRUE(prom.valid()) << prom.error();
    for (const std::string &series : door.countersAt8)
        EXPECT_NE(metrics.body.find(series + " 8\n"), std::string::npos)
            << series << "\n" << metrics.body;
    EXPECT_NE(metrics.body.find("# TYPE " + door.histogram +
                                " histogram\n"),
              std::string::npos);

    // /varz: strict JSON of the same snapshot.
    ParsedResponse varz = httpGet(door.adminPort, "/varz");
    ASSERT_TRUE(varz.ok) << varz.error;
    EXPECT_EQ(varz.status, 200);
    EXPECT_EQ(varz.headers["content-type"], "application/json");
    EXPECT_TRUE(JsonChecker(varz.body).valid()) << varz.body;
    for (const std::string &series : door.countersAt8)
        EXPECT_NE(varz.body.find("\"" + jsonEscape(series) + "\":8"),
                  std::string::npos)
            << series << "\n" << varz.body;

    // /healthz and /readyz: healthy under no load.
    ParsedResponse healthz = httpGet(door.adminPort, "/healthz");
    ASSERT_TRUE(healthz.ok) << healthz.error;
    EXPECT_EQ(healthz.status, 200);
    EXPECT_EQ(healthz.body, "ok\n");
    ParsedResponse readyz = httpGet(door.adminPort, "/readyz");
    ASSERT_TRUE(readyz.ok) << readyz.error;
    EXPECT_EQ(readyz.status, 200);

    // /tracez: strict JSON; committed traces from the traffic above.
    ParsedResponse tracez = httpGet(door.adminPort, "/tracez");
    ASSERT_TRUE(tracez.ok) << tracez.error;
    EXPECT_EQ(tracez.status, 200);
    EXPECT_TRUE(JsonChecker(tracez.body).valid()) << tracez.body;
    EXPECT_NE(tracez.body.find("\"total_committed\""),
              std::string::npos);

    // /tracez?format=chrome: a Perfetto-loadable download.
    ParsedResponse chrome =
        httpGet(door.adminPort, "/tracez?format=chrome");
    ASSERT_TRUE(chrome.ok) << chrome.error;
    EXPECT_TRUE(JsonChecker(chrome.body).valid());
    EXPECT_NE(chrome.body.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(chrome.headers["content-disposition"].find("attachment"),
              std::string::npos);

    // /timeseriesz: wait for the sampler to tick, then strict JSON.
    const FlightRecorder *rec = door.recorder;
    ASSERT_NE(rec, nullptr);
    for (int spin = 0; spin < 400 && rec->samplesTaken() < 3; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_GE(rec->samplesTaken(), 3u);
    ParsedResponse ts = httpGet(door.adminPort, "/timeseriesz");
    ASSERT_TRUE(ts.ok) << ts.error;
    EXPECT_EQ(ts.status, 200);
    EXPECT_TRUE(JsonChecker(ts.body).valid()) << ts.body;

    // HEAD: headers with the body's Content-Length, empty body. The
    // parser treats the body as absent, so Content-Length won't
    // match — exchange manually.
    ParsedResponse head = httpExchange(door.adminPort,
                                       "HEAD /healthz HTTP/1.1\r\n"
                                       "Host: x\r\n\r\n");
    EXPECT_FALSE(head.ok); // Content-Length > 0 with empty body
    EXPECT_EQ(head.status, 200);
    EXPECT_TRUE(head.body.empty());

    // Unknown path.
    ParsedResponse missing = httpGet(door.adminPort, "/nope");
    ASSERT_TRUE(missing.ok) << missing.error;
    EXPECT_EQ(missing.status, 404);
}

TEST(HttpAdmin, ServesEveryEndpointStrictly)
{
    NetServer server(adminServerOptions());
    ASSERT_TRUE(server.start()) << server.error();
    AdminDoor door;
    door.port = server.port();
    door.adminPort = server.adminPort();
    door.recorder = server.flightRecorder();
    door.countersAt8 = {
        "serve_requests_total",
        // The per-engine breakdown scrapes as labelled series.
        seriesKey("serve_engine_requests_total",
                  engineLabels("linear", ProblemKind::MatVec,
                               ExecMode::Simulate))};
    door.histogram = "serve_engine_latency_micros";
    servesEveryEndpointStrictly(door);
    server.stop();
}

TEST(HttpAdmin, GatewayServesEveryEndpointStrictly)
{
    NetServer::Options bopts;
    bopts.cluster.shards = 2;
    NetServer backend(bopts);
    ASSERT_TRUE(backend.start()) << backend.error();

    // The gateway's admin options, exactly as the server's above.
    const NetServer::Options admin = adminServerOptions();
    Gateway::Options gopts;
    static_cast<FrontDoorOptions &>(gopts) = admin;
    gopts.backends = {{"127.0.0.1", backend.port(), 0}};
    Gateway gw(gopts);
    ASSERT_TRUE(gw.start()) << gw.error();
    for (int i = 0; i < 1000 && gw.routableBackends() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(gw.routableBackends(), 1u);

    AdminDoor door;
    door.port = gw.port();
    door.adminPort = gw.adminPort();
    door.recorder = gw.flightRecorder();
    door.countersAt8 = {"gateway_requests_total",
                        "gateway_responses_relayed_total"};
    door.histogram = "gateway_route_micros";
    servesEveryEndpointStrictly(door);
    gw.stop();
}

TEST(HttpAdmin, MalformedOversizedAndNonGetNeverCrash)
{
    NetServer server(adminServerOptions());
    ASSERT_TRUE(server.start()) << server.error();
    const std::uint16_t port = server.adminPort();

    // POST → 405 with an Allow header.
    ParsedResponse post = httpExchange(
        port, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    ASSERT_TRUE(post.ok) << post.error;
    EXPECT_EQ(post.status, 405);
    EXPECT_EQ(post.headers["allow"], "GET, HEAD");

    // Malformed request lines → 400.
    for (const char *bad :
         {"GARBAGE\r\n\r\n", "GET /\r\n\r\n",
          "GET / HTTP/9.9\r\n\r\n",
          "GET / HTTP/1.1\r\nbad header\r\n\r\n"}) {
        ParsedResponse resp = httpExchange(port, bad);
        ASSERT_TRUE(resp.ok) << resp.error << " for " << bad;
        EXPECT_EQ(resp.status, 400) << bad;
    }

    // Binary garbage (embedded NULs) → 400, not a hang or crash.
    ParsedResponse binary = httpExchange(
        port, std::string("\x00\x01\x02\xff\xfe garbage \x00", 15));
    ASSERT_TRUE(binary.ok) << binary.error;
    EXPECT_EQ(binary.status, 400);

    // Oversized head → 431.
    std::string big = "GET /metrics HTTP/1.1\r\n";
    while (big.size() < 64 * 1024)
        big += "X-Padding: " + std::string(512, 'a') + "\r\n";
    big += "\r\n";
    ParsedResponse oversized = httpExchange(port, big);
    ASSERT_TRUE(oversized.ok) << oversized.error;
    EXPECT_EQ(oversized.status, 431);

    // After all of that, the admin thread still serves.
    ParsedResponse healthz = httpGet(port, "/healthz");
    ASSERT_TRUE(healthz.ok) << healthz.error;
    EXPECT_EQ(healthz.status, 200);
    EXPECT_GE(server.cluster().shardCount(), 1u);

    server.stop();
}

TEST(HttpAdmin, HealthzFlipsUnderSaturationAndRecovers)
{
    NetServer::Options opts;
    // One slow lane: a single worker on a single shard, so a burst
    // of requests genuinely queues.
    opts.cluster.shards = 1;
    opts.cluster.threadsPerShard = 1;
    opts.adminEnabled = true;
    opts.health.degradedQueueDepth = 2;
    opts.health.unhealthyQueueDepth = 8;
    NetServer server(opts);
    ASSERT_TRUE(server.start()) << server.error();
    const std::uint16_t port = server.adminPort();

    ParsedResponse before = httpGet(port, "/healthz");
    ASSERT_TRUE(before.ok) << before.error;
    EXPECT_EQ(before.status, 200);

    // Saturate: pipeline a batch big enough to hold the queue above
    // the unhealthy threshold while the single worker grinds. Narrow
    // bandwidth (w=1) makes each simulated matvec slow enough that
    // the drain takes visibly long even on a fast machine.
    std::vector<ServeRequest> burst;
    for (int i = 0; i < 192; ++i)
        burst.push_back(matVecRequest(900 + 3 * i, 64, 1));
    std::atomic<bool> batchDone{false};
    std::thread submitter([&] {
        NetClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
        client.submitBatch(burst);
        batchDone.store(true);
    });

    // Poll /healthz until it reports saturation (503). The poll
    // budget starts once the burst reaches the server: under a
    // sanitizer the client can spend longer encoding the burst than
    // 2000 polls take.
    while (!batchDone.load() &&
           server.metricsSnapshot().counters["net_frames_received_total"] ==
               0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    bool saw503 = false;
    for (int spin = 0; spin < 2000 && !saw503; ++spin) {
        ParsedResponse during = httpGet(port, "/healthz");
        ASSERT_TRUE(during.ok) << during.error;
        if (during.status == 503) {
            saw503 = true;
            EXPECT_NE(during.body.find("queue depth"),
                      std::string::npos)
                << during.body;
        }
        if (batchDone.load())
            break;
    }
    submitter.join();
    EXPECT_TRUE(saw503) << "healthz never reported saturation";

    // Drained: /healthz recovers to 200 (hysteresis releases once
    // the queue is fully below the degraded threshold).
    bool recovered = false;
    for (int spin = 0; spin < 2000 && !recovered; ++spin) {
        ParsedResponse after = httpGet(port, "/healthz");
        ASSERT_TRUE(after.ok) << after.error;
        recovered = after.status == 200;
        if (!recovered)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(recovered) << "healthz never recovered after drain";

    // readyz flips to 503 on stop (not serving).
    server.stop();
    EXPECT_FALSE(server.running());

    server.stop(); // idempotent
}

TEST(HttpAdmin, DisabledAdminPlaneCostsNothing)
{
    NetServer::Options opts;
    opts.cluster.shards = 1;
    NetServer server(opts);
    ASSERT_TRUE(server.start()) << server.error();
    EXPECT_EQ(server.adminPort(), 0);
    EXPECT_EQ(server.flightRecorder(), nullptr);
    // healthReport degrades to lifecycle-only.
    HealthReport report = server.healthReport();
    EXPECT_TRUE(report.live);
    EXPECT_TRUE(report.ready);
    server.stop();
    EXPECT_FALSE(server.healthReport().ready);
}

} // namespace
} // namespace sap
