/**
 * @file
 * Request-tracing tests: ring semantics, sampling and slow-commit
 * policy, span computation, the Chrome trace_event / CSV exporters
 * (JSON checked with a strict recursive-descent validator, not a
 * substring sniff), and end-to-end loopback coverage — every stage
 * of the net → cluster → shard pipeline must be stamped.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstddef>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "checkers.hh"
#include "mat/generate.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/trace_export.hh"
#include "obs/trace_ring.hh"

namespace sap {
namespace {

// The strict JSON validator itself lives in checkers.hh (shared with
// the admin-plane suite); its self-test stays with the trace
// exporters that motivated it.
TEST(JsonCheckerSelfTest, AcceptsValidRejectsInvalid)
{
    EXPECT_TRUE(JsonChecker("{}").valid());
    EXPECT_TRUE(JsonChecker("[1, 2.5, -3e4, \"a\\nb\", true, null]")
                    .valid());
    EXPECT_TRUE(JsonChecker("{\"a\": {\"b\": []}}").valid());
    EXPECT_FALSE(JsonChecker("{").valid());
    EXPECT_FALSE(JsonChecker("{\"a\": 1,}").valid());
    EXPECT_FALSE(JsonChecker("[01]").valid());
    EXPECT_FALSE(JsonChecker("\"\n\"").valid()); // raw control char
    EXPECT_FALSE(JsonChecker("{} extra").valid());
    EXPECT_FALSE(JsonChecker("{\"a\" 1}").valid());
}

//---------------------------------------------------------------------
// Ring and collector semantics
//---------------------------------------------------------------------

RequestTrace
traceWithId(std::uint64_t id)
{
    RequestTrace t;
    t.requestId = id;
    t.stamp(TraceStage::Decode);
    t.stamp(TraceStage::Flush);
    return t;
}

TEST(TraceRing, OverwritesOldestKeepsOrder)
{
    TraceRing ring(4);
    for (std::uint64_t id = 1; id <= 10; ++id)
        ring.push(traceWithId(id));
    EXPECT_EQ(ring.totalCommitted(), 10u);
    std::vector<RequestTrace> got = ring.snapshot();
    ASSERT_EQ(got.size(), 4u);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].requestId, 7 + i);
}

TEST(TraceCollector, DisabledReturnsNullAndIgnoresFinish)
{
    TraceCollector collector(TraceConfig{});
    EXPECT_EQ(collector.begin(), nullptr);
    EXPECT_FALSE(collector.finish(nullptr));
    EXPECT_EQ(collector.totalCommitted(), 0u);
}

TEST(TraceCollector, SamplesExactlyOneInN)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.sampleEvery = 4;
    TraceCollector collector(cfg);
    int committed = 0;
    for (int i = 0; i < 100; ++i) {
        std::shared_ptr<RequestTrace> t = collector.begin();
        ASSERT_NE(t, nullptr);
        t->stamp(TraceStage::Decode);
        t->stamp(TraceStage::Flush);
        committed += collector.finish(t) ? 1 : 0;
    }
    EXPECT_EQ(committed, 25);
    EXPECT_EQ(collector.totalCommitted(), 25u);
}

TEST(TraceCollector, SampleEveryZeroNeverCommits)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.sampleEvery = 0;
    TraceCollector collector(cfg);
    for (int i = 0; i < 20; ++i)
        collector.finish(collector.begin());
    EXPECT_EQ(collector.totalCommitted(), 0u);
}

TEST(TraceCollector, SlowRequestsAlwaysCommit)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.sampleEvery = 0; // sampling would never commit
    cfg.slowMicros = 1000;
    TraceCollector collector(cfg);

    // Quiet the slow-request warn lines for the duration.
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Error);

    std::shared_ptr<RequestTrace> fast = collector.begin();
    fast->stamp(TraceStage::Decode);
    fast->stageNanos[static_cast<std::size_t>(TraceStage::Flush)] =
        fast->nanosAt(TraceStage::Decode) + 5000; // 5us: not slow
    EXPECT_FALSE(collector.finish(fast));

    std::shared_ptr<RequestTrace> slow = collector.begin();
    slow->stamp(TraceStage::Decode);
    slow->stageNanos[static_cast<std::size_t>(TraceStage::Flush)] =
        slow->nanosAt(TraceStage::Decode) + 2'000'000; // 2ms: slow
    EXPECT_TRUE(collector.finish(slow));

    setLogLevel(saved);
    EXPECT_EQ(collector.totalCommitted(), 1u);
}

TEST(TraceCollector, CommitsRecordStageHistograms)
{
    MetricsRegistry reg;
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.sampleEvery = 1;
    TraceCollector collector(cfg, &reg);
    for (int i = 0; i < 5; ++i) {
        std::shared_ptr<RequestTrace> t = collector.begin();
        t->stamp(TraceStage::Decode);
        t->stamp(TraceStage::Execute);
        t->stamp(TraceStage::Flush);
        EXPECT_TRUE(collector.finish(t));
    }
    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.histograms["trace_total_micros"].count, 5u);
    EXPECT_EQ(snap.histograms["trace_stage_execute_micros"].count,
              5u);
    EXPECT_EQ(snap.histograms["trace_stage_flush_micros"].count, 5u);
    // decode is the first stamped stage: no span *ends* there.
    EXPECT_EQ(snap.histograms.count("trace_stage_decode_micros"), 0u);
}

TEST(TraceSpans, SkipUnstampedStages)
{
    RequestTrace t;
    t.stamp(TraceStage::Decode);
    t.stamp(TraceStage::Execute);
    t.stamp(TraceStage::Flush);

    std::vector<TraceSpan> spans = traceSpans(t);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].from, TraceStage::Decode);
    EXPECT_EQ(spans[0].to, TraceStage::Execute);
    EXPECT_EQ(spans[1].from, TraceStage::Execute);
    EXPECT_EQ(spans[1].to, TraceStage::Flush);
    EXPECT_GE(spans[0].micros, 0.0);
    EXPECT_GE(spans[1].micros, 0.0);
}

//---------------------------------------------------------------------
// Exporters
//---------------------------------------------------------------------

std::vector<RequestTrace>
syntheticTraces()
{
    std::vector<RequestTrace> traces;
    for (std::uint64_t id = 1; id <= 3; ++id) {
        RequestTrace t;
        t.requestId = id;
        // Adversarial label: exercises JSON and CSV escaping.
        t.label = "linear \"q\" \\ tab\t 8x8";
        t.cacheHit = id > 1;
        t.ok = id != 3;
        for (std::size_t s = 0; s < kTraceStages; ++s)
            t.stageNanos[s] = 1'000'000 * id + 500 * s;
        traces.push_back(std::move(t));
    }
    return traces;
}

TEST(TraceExport, ChromeJsonIsStrictlyValid)
{
    const std::string json = toChromeTraceJson(syntheticTraces());
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"request\""), std::string::npos);
    // One process_name metadata event for the backend lane, then
    // one request event + 7 spans per trace, 3 traces.
    std::size_t events = 0;
    for (std::size_t at = json.find("\"ph\"");
         at != std::string::npos; at = json.find("\"ph\"", at + 1))
        ++events;
    EXPECT_EQ(events, 1 + 3u * (1 + (kTraceStages - 1)));
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
}

TEST(TraceExport, EmptyTraceListIsValidJson)
{
    EXPECT_TRUE(JsonChecker(toChromeTraceJson({})).valid());
}

TEST(TraceExport, TracezJsonIsStrictlyValid)
{
    const std::vector<RequestTrace> traces = syntheticTraces();
    const std::string json = toTracezJson(traces, 42);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"total_committed\":42"), std::string::npos);
    EXPECT_NE(json.find("\"count\":3"), std::string::npos);
    // The adversarial label survives escaping.
    EXPECT_NE(json.find("\\\"q\\\""), std::string::npos);
    // Every stamped stage appears with its name.
    EXPECT_NE(json.find("\"decode\":"), std::string::npos);
    EXPECT_NE(json.find("\"flush\":"), std::string::npos);

    EXPECT_TRUE(JsonChecker(toTracezJson({}, 0)).valid());
}

TEST(TraceExport, CsvHasHeaderAndOneRowPerTrace)
{
    const std::string csv = toTraceCsv(syntheticTraces());
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < csv.size()) {
        std::size_t end = csv.find('\n', start);
        lines.push_back(csv.substr(start, end - start));
        start = end == std::string::npos ? csv.size() : end + 1;
    }
    ASSERT_EQ(lines.size(), 1u + 3u);
    EXPECT_EQ(lines[0],
              "request_id,label,ok,cache_hit,total_micros,"
              "decode_micros,route_micros,dequeue_micros,"
              "prepare_micros,execute_micros,cq_push_micros,"
              "writer_pop_micros,flush_micros");
    // The label's embedded quote must be doubled per CSV quoting.
    EXPECT_NE(lines[1].find("\"linear \"\"q\"\" \\ tab\t 8x8\""),
              std::string::npos);
}

//---------------------------------------------------------------------
// Stitching, filters, and the strict query parser
//---------------------------------------------------------------------

TraceContext
contextWithLo(std::uint64_t lo, std::uint8_t attempt = 0)
{
    TraceContext ctx;
    ctx.traceIdHi = 0xaa00000000000000ull;
    ctx.traceIdLo = lo;
    ctx.sampled = true;
    ctx.originNanos = 1;
    ctx.attempt = attempt;
    return ctx;
}

/** A gateway part and a backend part sharing trace id @p lo, plus a
 *  context-less straggler — the canonical stitch input. */
std::vector<RequestTrace>
crossTierTraces(std::uint64_t lo)
{
    std::vector<RequestTrace> traces;
    RequestTrace backend;
    backend.requestId = 11;
    backend.label = "linear";
    backend.kind = "matvec";
    backend.ok = true;
    for (std::size_t s = 0; s < kTraceStages; ++s)
        backend.stageNanos[s] = 2'000'000 + 500 * s;
    backend.ctx = contextWithLo(lo);
    traces.push_back(std::move(backend));

    RequestTrace gateway;
    gateway.requestId = 3;
    gateway.label = "linear";
    gateway.kind = "matvec";
    gateway.ok = true;
    gateway.tier = TraceTier::Gateway;
    gateway.ctx = contextWithLo(lo, 1);
    gateway.stamp(TraceStage::Decode);
    gateway.stageNanos[0] = 1'000'000;
    gateway.stageNanos[1] = 1'000'500;
    gateway.stageNanos[2] = 1'001'000;
    gateway.stageNanos[6] = 3'000'000;
    gateway.stageNanos[7] = 3'000'500;
    gateway.events.push_back({"resubmit attempt 1", 1'500'000});
    traces.push_back(std::move(gateway));

    RequestTrace lone;
    lone.requestId = 12;
    lone.label = "hex";
    lone.kind = "matmul";
    for (std::size_t s = 0; s < kTraceStages; ++s)
        lone.stageNanos[s] = 5'000'000 + 500 * s;
    traces.push_back(std::move(lone));
    return traces;
}

TEST(TraceStitch, GroupsByIdAndOrdersPartsByStart)
{
    std::vector<StitchedTrace> stitched =
        stitchTraces(crossTierTraces(0x42));
    ASSERT_EQ(stitched.size(), 2u);
    // Group order follows first appearance; the gateway part starts
    // earlier so it sorts first within the group.
    EXPECT_EQ(stitched[0].traceId,
              traceIdHex(contextWithLo(0x42)));
    ASSERT_EQ(stitched[0].parts.size(), 2u);
    EXPECT_EQ(stitched[0].parts[0].tier, TraceTier::Gateway);
    EXPECT_EQ(stitched[0].parts[1].tier, TraceTier::Backend);
    // The context-less trace stays a singleton with no id.
    EXPECT_TRUE(stitched[1].traceId.empty());
    ASSERT_EQ(stitched[1].parts.size(), 1u);
    EXPECT_EQ(stitched[1].parts[0].requestId, 12u);
}

TEST(TraceStitch, StitchedJsonIsStrictlyValid)
{
    const std::string json = toStitchedTracezJson(
        stitchTraces(crossTierTraces(0x43)), 17);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"total_committed\":17"),
              std::string::npos);
    EXPECT_NE(json.find("\"count\":2"), std::string::npos);
    EXPECT_NE(json.find("\"stitched\""), std::string::npos);
    // Gateway parts use the tier-aware stage names.
    EXPECT_NE(json.find("\"gw_decode\":"), std::string::npos);
    EXPECT_NE(json.find("\"decode\":"), std::string::npos);
    // The context-less singleton reports a null trace id.
    EXPECT_NE(json.find("\"trace_id\":null"), std::string::npos);
    EXPECT_TRUE(JsonChecker(toStitchedTracezJson({}, 0)).valid());
}

TEST(TraceStitch, ChromeJsonRendersBothProcessLanes)
{
    const std::string json =
        toChromeTraceJson(crossTierTraces(0x44));
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    // One process_name metadata event per tier present.
    std::size_t names = 0;
    for (std::size_t at = json.find("\"process_name\"");
         at != std::string::npos;
         at = json.find("\"process_name\"", at + 1))
        ++names;
    EXPECT_EQ(names, 2u);
    EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
    // The gateway's point event exports as an instant event.
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("resubmit attempt 1"), std::string::npos);
    // Context-carrying events are tagged with the hex id.
    EXPECT_NE(json.find(traceIdHex(contextWithLo(0x44))),
              std::string::npos);
}

TEST(TraceFilter, QueryParserIsStrict)
{
    std::uint64_t min_us = 7;
    std::string kind = "x";
    std::string err;
    // Absent filters reset the out-params.
    EXPECT_TRUE(parseTraceQuery({{"format", "chrome"}}, &min_us,
                                &kind, &err));
    EXPECT_EQ(min_us, 0u);
    EXPECT_TRUE(kind.empty());

    EXPECT_TRUE(parseTraceQuery({{"min_us", "2500"},
                                 {"kind", "trisolve"}},
                                &min_us, &kind, &err));
    EXPECT_EQ(min_us, 2500u);
    EXPECT_EQ(kind, "trisolve");

    for (const char *bad : {"", "12x", "-1", "1.5", " 12",
                            "99999999999999999999"}) {
        SCOPED_TRACE(std::string("min_us='") + bad + "'");
        EXPECT_FALSE(parseTraceQuery({{"min_us", bad}}, &min_us,
                                     &kind, &err));
        EXPECT_NE(err.find("bad min_us value"), std::string::npos)
            << err;
    }
    for (const char *bad : {"", "matrix", "MATVEC", "matvec "}) {
        SCOPED_TRACE(std::string("kind='") + bad + "'");
        EXPECT_FALSE(parseTraceQuery({{"kind", bad}}, &min_us, &kind,
                                     &err));
        EXPECT_NE(err.find("bad kind value"), std::string::npos)
            << err;
    }
}

TEST(TraceFilter, FiltersByDurationAndKind)
{
    std::vector<RequestTrace> traces = crossTierTraces(0x45);
    // All pass with no filter.
    EXPECT_EQ(filterTraces(traces, 0, "").size(), 3u);
    // Kind filter keeps both matvec parts, drops the matmul one.
    EXPECT_EQ(filterTraces(traces, 0, "matvec").size(), 2u);
    EXPECT_EQ(filterTraces(traces, 0, "matmul").size(), 1u);
    EXPECT_EQ(filterTraces(traces, 0, "trisolve").size(), 0u);
    // The gateway part spans 1.0ms→3.0005ms (~2000µs); a 1ms floor
    // keeps only it (the others span 3.5µs).
    std::vector<RequestTrace> slow =
        filterTraces(traces, 1'000, "");
    ASSERT_EQ(slow.size(), 1u);
    EXPECT_EQ(slow[0].tier, TraceTier::Gateway);
}

//---------------------------------------------------------------------
// End-to-end loopback coverage
//---------------------------------------------------------------------

TEST(TraceEndToEnd, LoopbackRequestsStampEveryStage)
{
    const Index s = 8, w = 4;
    const int kRequests = 6;

    NetServer::Options opts;
    opts.cluster.shards = 2;
    opts.trace.enabled = true;
    opts.trace.sampleEvery = 1; // commit every request
    NetServer server(opts);
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    Dense<Scalar> a = randomIntDense(s, s, 1201);
    for (int i = 0; i < kRequests; ++i) {
        ServeRequest req;
        req.engine = "linear";
        req.plan = EnginePlan::matVec(
            a, randomIntVec(s, 1210 + 2 * i),
            randomIntVec(s, 1211 + 2 * i), w);
        NetClient::Result r = client.submit(req);
        ASSERT_TRUE(r.transportOk) << r.transportError;
        ASSERT_TRUE(r.response.ok) << r.response.error;
    }

    // The shard worker commits just after queueing the response the
    // client already saw — wait out that last sliver.
    std::vector<RequestTrace> traces;
    for (int spin = 0; spin < 200; ++spin) {
        traces = server.traceSnapshot();
        if (traces.size() >= static_cast<std::size_t>(kRequests))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(traces.size(), static_cast<std::size_t>(kRequests));

    for (const RequestTrace &t : traces) {
        SCOPED_TRACE("request " + std::to_string(t.requestId));
        EXPECT_TRUE(t.ok);
        EXPECT_FALSE(t.label.empty());
        // A backend stamps six stages; cq_push and writer_pop are
        // slots it leaves empty.
        const TraceStage stamped[] = {
            TraceStage::Decode,  TraceStage::Route,
            TraceStage::Dequeue, TraceStage::Prepare,
            TraceStage::Execute, TraceStage::Flush};
        std::uint64_t prev = 0;
        for (TraceStage stage : stamped) {
            const std::uint64_t at = t.nanosAt(stage);
            EXPECT_GT(at, 0u)
                << "stage " << traceStageName(stage) << " never stamped";
            EXPECT_GE(at, prev) << "stages out of order";
            prev = at;
        }
        EXPECT_EQ(t.nanosAt(TraceStage::CqPush), 0u);
        EXPECT_EQ(t.nanosAt(TraceStage::WriterPop), 0u);
        EXPECT_GT(t.totalMicros(), 0.0);
        EXPECT_EQ(traceSpans(t).size(), std::size(stamped) - 1);
    }

    // The committed traces round-trip through the exporter validly.
    EXPECT_TRUE(JsonChecker(toChromeTraceJson(traces)).valid());

    // Stage histograms landed in the server's metrics snapshot.
    MetricsSnapshot snap = server.metricsSnapshot();
    EXPECT_EQ(snap.histograms["trace_total_micros"].count,
              static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(snap.histograms["trace_stage_execute_micros"].count,
              static_cast<std::uint64_t>(kRequests));

    server.stop();
}

} // namespace
} // namespace sap
