/**
 * @file
 * Wire-protocol unit and property tests: encode/decode round-trips
 * over randomized requests for all three problem kinds, incremental
 * frame decoding under adversarial chunking, the malformed-payload
 * catalogue — every bad input must fail cleanly with a reason, never
 * crash or over-read — and FramedSocket's segment output and
 * in-place receive over real sockets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>

#include "base/random.hh"
#include "mat/generate.hh"
#include "net/framed_socket.hh"
#include "net/protocol.hh"
#include "serve/plan_cache.hh"
#include "wire_oracle.hh"

namespace sap {
namespace {

//---------------------------------------------------------------------
// Round-trip properties
//---------------------------------------------------------------------

/** Randomized request shapes per seed, mirroring the property suite. */
class NetRoundTrip : public ::testing::TestWithParam<int>
{
  protected:
    ServeRequest
    drawRequest()
    {
        Rng rng(7000 + GetParam());
        Index n = rng.uniformInt(1, 10);
        Index m = rng.uniformInt(1, 10);
        Index w = rng.uniformInt(1, 4);
        std::uint64_t seed = 7100 + GetParam();
        ServeRequest req;
        req.crossCheck = GetParam() % 2 == 0;
        req.plan.mode = static_cast<ExecMode>(GetParam() % 3);
        switch (GetParam() % 3) {
        case 0:
            req.engine = "linear";
            req.plan = EnginePlan::matVec(
                randomIntDense(n, m, seed), randomIntVec(m, seed + 1),
                randomIntVec(n, seed + 2), w);
            break;
        case 1: {
            Index p = rng.uniformInt(1, 10);
            req.engine = "hex";
            req.plan = EnginePlan::matMul(
                randomIntDense(n, p, seed),
                randomIntDense(p, m, seed + 1),
                randomIntDense(n, m, seed + 2), w);
            break;
        }
        default:
            req.engine = "tri";
            req.plan = EnginePlan::triSolve(
                randomLowerTriangular(n, seed),
                randomIntVec(n, seed + 1), w);
            break;
        }
        return req;
    }
};

TEST_P(NetRoundTrip, SubmitEncodeDecodeIsIdentity)
{
    ServeRequest req = drawRequest();
    ServeRequest back;
    std::string err;
    ASSERT_TRUE(decodeSubmit(encodeSubmit(req), &back, &err)) << err;
    EXPECT_EQ(back.engine, req.engine);
    EXPECT_EQ(back.plan.kind, req.plan.kind);
    EXPECT_EQ(back.plan.w, req.plan.w);
    EXPECT_EQ(back.crossCheck, req.crossCheck);
    EXPECT_EQ(back.plan.mode, req.plan.mode);
    EXPECT_TRUE(back.plan.a == req.plan.a);
    EXPECT_TRUE(back.plan.x == req.plan.x);
    EXPECT_TRUE(back.plan.b == req.plan.b);
    EXPECT_TRUE(back.plan.bmat == req.plan.bmat);
    EXPECT_TRUE(back.plan.e == req.plan.e);
}

TEST_P(NetRoundTrip, ResponseEncodeDecodeIsIdentity)
{
    Rng rng(7300 + GetParam());
    WireResponse resp;
    resp.ok = GetParam() % 4 != 0;
    resp.error = resp.ok ? "" : "engine 'nope' not found";
    resp.cacheHit = GetParam() % 2 == 0;
    resp.crossCheckOk = GetParam() % 3 != 0;
    resp.latencyMicros = rng.uniformReal(0, 1e6);
    resp.simCycles = rng.uniformInt(0, 1 << 20);
    resp.y = randomIntVec(rng.uniformInt(0, 12), 7400 + GetParam());
    resp.c = randomIntDense(rng.uniformInt(1, 6),
                            rng.uniformInt(1, 6), 7500 + GetParam());

    WireResponse back;
    std::string err;
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), &back, &err))
        << err;
    EXPECT_EQ(back.ok, resp.ok);
    EXPECT_EQ(back.error, resp.error);
    EXPECT_EQ(back.cacheHit, resp.cacheHit);
    EXPECT_EQ(back.crossCheckOk, resp.crossCheckOk);
    EXPECT_EQ(back.latencyMicros, resp.latencyMicros);
    EXPECT_EQ(back.simCycles, resp.simCycles);
    EXPECT_TRUE(back.y == resp.y);
    EXPECT_TRUE(back.c == resp.c);
}

TEST_P(NetRoundTrip, FrameSurvivesAdversarialChunking)
{
    // Deliver the frame byte stream in random-sized fragments; the
    // decoder must reassemble the identical frame.
    ServeRequest req = drawRequest();
    std::vector<std::uint8_t> bytes = buildSubmitFrame(
        99 + static_cast<std::uint64_t>(GetParam()), req);

    Rng rng(7600 + GetParam());
    FrameDecoder decoder;
    Frame frame;
    std::string err;
    std::size_t off = 0;
    bool got = false;
    while (off < bytes.size()) {
        std::size_t chunk = static_cast<std::size_t>(rng.uniformInt(
            1, 7));
        chunk = std::min(chunk, bytes.size() - off);
        decoder.feed(bytes.data() + off, chunk);
        off += chunk;
        FrameDecoder::Result res = decoder.next(&frame, &err);
        ASSERT_NE(res, FrameDecoder::Result::Malformed) << err;
        if (res == FrameDecoder::Result::Ok) {
            got = true;
            EXPECT_EQ(off, bytes.size()); // complete exactly at the end
        }
    }
    ASSERT_TRUE(got);
    EXPECT_EQ(frame.header.tag,
              99 + static_cast<std::uint64_t>(GetParam()));
    ServeRequest back;
    ASSERT_TRUE(decodeSubmit(frame.payload, &back, &err)) << err;
    EXPECT_TRUE(back.plan.a == req.plan.a);

    // Two frames in one feed: both come out, in order, and the
    // decoder then waits for more.
    std::vector<std::uint8_t> two = buildPingFrame(7);
    two.insert(two.end(), bytes.begin(), bytes.end());
    decoder.feed(two.data(), two.size());
    ASSERT_EQ(decoder.next(&frame, &err), FrameDecoder::Result::Ok);
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Ping));
    EXPECT_TRUE(frame.payload.empty());
    ASSERT_EQ(decoder.next(&frame, &err), FrameDecoder::Result::Ok);
    EXPECT_EQ(frame.header.tag,
              99 + static_cast<std::uint64_t>(GetParam()));
    EXPECT_TRUE(std::equal(frame.payload.begin(), frame.payload.end(),
                           bytes.begin() + kFrameHeaderBytes,
                           bytes.end()));
    EXPECT_EQ(decoder.next(&frame, &err), FrameDecoder::Result::NeedMore);

    // A 2.1 MB frame (mv512's SUBMIT) fed to a fresh decoder in
    // 64 KiB reads, cut at a random offset: one frame, bit for bit,
    // its payload buffer no larger than its length field.
    FrameDecoder fresh;
    ServeRequest big;
    big.engine = "linear";
    big.plan = EnginePlan::matVec(
        randomIntDense(512, 512, 7700 + GetParam()),
        randomIntVec(512, 7701), randomIntVec(512, 7702), 32);
    const std::vector<std::uint8_t> big_bytes = buildSubmitFrame(5, big);
    ASSERT_GT(big_bytes.size(), std::size_t{2} << 20);
    std::size_t at = static_cast<std::size_t>(
        rng.uniformInt(0, (64 << 10) - 1));
    fresh.feed(big_bytes.data(), at);
    for (; at < big_bytes.size(); at += 64 << 10) {
        ASSERT_EQ(fresh.next(&frame, &err), FrameDecoder::Result::NeedMore);
        fresh.feed(big_bytes.data() + at,
                   std::min<std::size_t>(64 << 10, big_bytes.size() - at));
    }
    ASSERT_EQ(fresh.next(&frame, &err), FrameDecoder::Result::Ok);
    EXPECT_EQ(frame.header.tag, 5u);
    EXPECT_EQ(frame.payload.size(), frame.header.payloadLen);
    EXPECT_LE(frame.payload.capacity(), frame.header.payloadLen);
    EXPECT_TRUE(std::equal(frame.payload.begin(), frame.payload.end(),
                           big_bytes.begin() + kFrameHeaderBytes,
                           big_bytes.end()));

    // Consumed in place, that payload's buffer takes the next frame:
    // the same 2.1 MB arrives again without a new allocation, and
    // then a smaller frame (511x512, over half the buffer) arrives in
    // it with its own length, none of the larger frame's tail.
    const std::uint8_t *const buffer = frame.payload.data();
    big.plan.a = randomIntDense(511, 512, 7703 + GetParam());
    big.plan.b = randomIntVec(511, 7704);
    const std::vector<std::uint8_t> smaller_bytes = buildSubmitFrame(6, big);
    for (const std::vector<std::uint8_t> *bytes :
         {&big_bytes, &smaller_bytes}) {
        ASSERT_EQ(fresh.next(&frame, &err), FrameDecoder::Result::NeedMore);
        EXPECT_TRUE(frame.payload.empty());
        fresh.feed(bytes->data(), bytes->size());
        ASSERT_EQ(fresh.next(&frame, &err), FrameDecoder::Result::Ok);
        EXPECT_EQ(frame.payload.data(), buffer);
        EXPECT_EQ(frame.payload.size(), frame.header.payloadLen);
        EXPECT_TRUE(std::equal(frame.payload.begin(), frame.payload.end(),
                               bytes->begin() + kFrameHeaderBytes,
                               bytes->end()));
    }
}

TEST_P(NetRoundTrip, PlanDigestFromBytesMatchesTheRequest)
{
    // The gateway routes on planDigest taken from the SUBMIT bytes;
    // it must be the digest of the request those bytes decode to, for
    // every kind, with and without a trace-context block (which
    // shifts every operand's offset), bare and inside a FORWARD.
    ServeRequest req = drawRequest();
    for (bool traced : {false, true}) {
        SCOPED_TRACE(traced ? "traced" : "untraced");
        req.traceContext = TraceContext{};
        if (traced) {
            req.traceContext.traceIdHi = 0x5eed + GetParam();
            req.traceContext.traceIdLo = 1;
        }
        const Digest expected = planDigest(req.engine, req.plan);
        const std::vector<std::uint8_t> payload = encodeSubmit(req);
        SubmitView view;
        std::string err;
        ASSERT_TRUE(scanSubmit(payload, &view, &err)) << err;
        EXPECT_EQ(planDigest(view), expected);
        EXPECT_EQ(view.engine, req.engine);
        EXPECT_EQ(view.kind, req.plan.kind);
        EXPECT_EQ(view.w, req.plan.w);
        EXPECT_EQ(view.traceContext.valid(), traced);
        EXPECT_EQ(view.payload.size, payload.size());

        const std::vector<std::uint8_t> frame =
            wire_oracle::buildForwardFrame(1, expected, payload);
        const std::vector<std::uint8_t> forward(
            frame.begin() + kFrameHeaderBytes, frame.end());
        Digest carried = 0;
        ASSERT_TRUE(scanForward(forward, &carried, &view, &err)) << err;
        EXPECT_EQ(carried, expected);
        EXPECT_EQ(planDigest(view), expected);
        EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                               view.payload.data));
    }
}

/** @p req's SUBMIT payload laid out by the byte-wise oracle. */
std::vector<std::uint8_t>
oracleSubmit(const ServeRequest &req)
{
    wire_oracle::ByteWriter w;
    w.str(req.engine);
    w.u8(static_cast<std::uint8_t>(req.plan.kind));
    w.i64(req.plan.w);
    std::uint8_t flags = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(req.plan.mode) << kSubmitModeShift);
    if (req.crossCheck)
        flags |= kSubmitFlagCrossCheck;
    if (req.traceContext.valid())
        flags |= kSubmitFlagTraceContext;
    w.u8(flags);
    if (req.traceContext.valid()) {
        const TraceContext &c = req.traceContext;
        w.u64(c.traceIdHi);
        w.u64(c.traceIdLo);
        w.u8(c.sampled ? kTraceCtxFlagSampled : 0);
        w.u64(c.originNanos);
        w.u8(c.attempt);
    }
    w.dense(req.plan.a);
    switch (req.plan.kind) {
    case ProblemKind::MatVec:
        w.vec(req.plan.x);
        w.vec(req.plan.b);
        break;
    case ProblemKind::MatMul:
        w.dense(req.plan.bmat);
        w.dense(req.plan.e);
        break;
    case ProblemKind::TriSolve:
        w.vec(req.plan.b);
        break;
    }
    return w.bytes();
}

TEST_P(NetRoundTrip, SubmitBytesMatchTheByteWiseOracle)
{
    // The bulk encoder lays a SUBMIT out byte for byte as the
    // byte-at-a-time oracle does, with and without a trace context,
    // and the sized frame builder wraps exactly that payload.
    ServeRequest req = drawRequest();
    if (GetParam() % 2 == 1) {
        req.traceContext.traceIdHi = 0x0123456789abcdefULL;
        req.traceContext.traceIdLo = 0xfedcba9876543210ULL + GetParam();
        req.traceContext.sampled = true;
        req.traceContext.originNanos = 0x8000000000000001ULL;
        req.traceContext.attempt = 3;
    }
    const std::vector<std::uint8_t> payload = encodeSubmit(req);
    EXPECT_EQ(payload, oracleSubmit(req));
    EXPECT_EQ(buildSubmitFrame(42, req),
              buildFrame(FrameType::Submit, 42, payload));
}

TEST_P(NetRoundTrip, EveryPrefixOfASubmitFailsCleanly)
{
    // Cut anywhere — inside a header integer, a length word or an
    // operand's elements — a SUBMIT fails with a reason, the scanner
    // agreeing with the decoder, and never reads past the cut.
    ServeRequest req = drawRequest();
    if (GetParam() % 2 == 1) {
        req.traceContext.traceIdHi = 1;
        req.traceContext.traceIdLo = 2;
    }
    const std::vector<std::uint8_t> payload = encodeSubmit(req);
    for (std::size_t len = 0; len < payload.size(); ++len) {
        const std::vector<std::uint8_t> cut(
            payload.begin(),
            payload.begin() + static_cast<std::ptrdiff_t>(len));
        ServeRequest out;
        SubmitView view;
        std::string err, scan_err;
        ASSERT_FALSE(decodeSubmit(cut, &out, &err)) << "len=" << len;
        ASSERT_FALSE(err.empty()) << "len=" << len;
        ASSERT_FALSE(scanSubmit(cut, &view, &scan_err)) << "len=" << len;
        ASSERT_EQ(scan_err, err) << "len=" << len;
    }
}

TEST_P(NetRoundTrip, ResponseBytesMatchTheByteWiseOracle)
{
    WireResponse resp;
    resp.ok = GetParam() % 2 == 0;
    resp.error = resp.ok ? "" : "no such engine";
    resp.latencyMicros = 12.5 + GetParam();
    resp.simCycles = 1000 + GetParam();
    resp.y = randomIntVec(GetParam() % 5, 7800 + GetParam());
    resp.c = randomIntDense(1 + GetParam() % 3, 1 + GetParam() % 4,
                            7900 + GetParam());
    wire_oracle::ByteWriter w;
    w.u8(resp.ok ? 1 : 0);
    w.str(resp.error);
    w.u8(resp.cacheHit ? 1 : 0);
    w.u8(resp.crossCheckOk ? 1 : 0);
    w.f64(resp.latencyMicros);
    w.i64(resp.simCycles);
    w.vec(resp.y);
    w.dense(resp.c);
    EXPECT_EQ(encodeResponse(resp), w.bytes());
    EXPECT_EQ(buildResponseFrame(9, resp),
              buildFrame(FrameType::Response, 9, w.bytes()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetRoundTrip, ::testing::Range(0, 18));

//---------------------------------------------------------------------
// The bulk Scalar codec against the byte-wise oracle
//---------------------------------------------------------------------

std::uint64_t
bitsOf(Scalar v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

Scalar
fromBits(std::uint64_t bits)
{
    Scalar v;
    std::memcpy(&v, &bits, sizeof(bits));
    return v;
}

/** Bit patterns the codec must carry unchanged. */
const std::uint64_t kSpecialBits[] = {
    0x7ff8000000000000ULL, // quiet NaN
    0x7ff8dead0000beefULL, // quiet NaN with a payload
    0xfffc000000000001ULL, // negative quiet NaN with a payload
    0x7ff0000000000001ULL, // signalling NaN, payload 1
    0xfff4000000000abcULL, // negative signalling NaN with a payload
    0x0000000000000000ULL, // +0
    0x8000000000000000ULL, // −0
    0x7ff0000000000000ULL, // +inf
    0xfff0000000000000ULL, // −inf
    0x0000000000000001ULL, // smallest subnormal
    0x800fffffffffffffULL, // largest negative subnormal
    0x0010000000000000ULL, // smallest normal
    0x7fefffffffffffffULL, // largest finite
};

/** The k-th of a sequence of bit patterns: the specials first, then
 *  random 64-bit words. */
class BitPatterns
{
  public:
    explicit BitPatterns(std::uint64_t seed) : state_(seed | 1) {}
    Scalar
    next()
    {
        if (k_ < std::size(kSpecialBits))
            return fromBits(kSpecialBits[k_++]);
        // xorshift64*: every bit of the word varies.
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return fromBits(state_ * 0x2545f4914f6cdd1dULL);
    }

  private:
    std::size_t k_ = 0;
    std::uint64_t state_;
};

Dense<Scalar>
patternDense(Index rows, Index cols, std::uint64_t seed)
{
    BitPatterns bits(seed);
    Dense<Scalar> m(rows, cols);
    for (Index r = 0; r < rows; ++r)
        for (Index c = 0; c < cols; ++c)
            m(r, c) = bits.next();
    return m;
}

Vec<Scalar>
patternVec(Index n, std::uint64_t seed)
{
    BitPatterns bits(seed);
    Vec<Scalar> v(n);
    for (Index i = 0; i < n; ++i)
        v[i] = bits.next();
    return v;
}

bool
sameBitsVec(const Vec<Scalar> &a, const Vec<Scalar> &b)
{
    return a.size() == b.size() && sameBits(a.elems(), b.elems(), a.size());
}

/** The bulk writer emits the oracle's bytes, and each side's reader
 *  gets the matrix back bit for bit from the other side's bytes. */
void
expectDenseMatchesOracle(const Dense<Scalar> &m)
{
    SCOPED_TRACE(std::to_string(m.rows()) + "x" + std::to_string(m.cols()));
    WireWriter bulk;
    bulk.dense(m);
    wire_oracle::ByteWriter bytewise;
    bytewise.dense(m);
    ASSERT_EQ(bulk.bytes(), bytewise.bytes());

    WireReader r(bytewise.bytes());
    Dense<Scalar> back;
    ASSERT_TRUE(r.dense(&back));
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_TRUE(sameBits(back, m));

    const std::vector<std::uint8_t> bulk_bytes = bulk.take();
    wire_oracle::ByteReader o(bulk_bytes);
    std::uint64_t rows = 0, cols = 0;
    ASSERT_TRUE(o.u64(&rows) && o.u64(&cols));
    ASSERT_EQ(rows, static_cast<std::uint64_t>(m.rows()));
    ASSERT_EQ(cols, static_cast<std::uint64_t>(m.cols()));
    Dense<Scalar> oback;
    ASSERT_TRUE(o.dense(m.rows(), m.cols(), &oback));
    EXPECT_EQ(o.remaining(), 0u);
    EXPECT_TRUE(sameBits(oback, m));
}

/** expectDenseMatchesOracle for vec(). */
void
expectVecMatchesOracle(const Vec<Scalar> &v)
{
    SCOPED_TRACE("length " + std::to_string(v.size()));
    WireWriter bulk;
    bulk.vec(v);
    wire_oracle::ByteWriter bytewise;
    bytewise.vec(v);
    ASSERT_EQ(bulk.bytes(), bytewise.bytes());

    WireReader r(bytewise.bytes());
    Vec<Scalar> back;
    ASSERT_TRUE(r.vec(&back));
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_TRUE(sameBitsVec(back, v));

    const std::vector<std::uint8_t> bulk_bytes = bulk.take();
    wire_oracle::ByteReader o(bulk_bytes);
    std::uint64_t n = 0;
    ASSERT_TRUE(o.u64(&n));
    ASSERT_EQ(n, static_cast<std::uint64_t>(v.size()));
    Vec<Scalar> oback;
    ASSERT_TRUE(o.vec(v.size(), &oback));
    EXPECT_EQ(o.remaining(), 0u);
    EXPECT_TRUE(sameBitsVec(oback, v));
}

TEST(NetCodec, SpecialPatternsTravelBitForBit)
{
    // NaN payloads, signalling NaNs, the signed zeros, the infinities
    // and the subnormals are bits to the codec, never numbers.
    const Vec<Scalar> v = patternVec(std::size(kSpecialBits), 1);
    for (std::size_t i = 0; i < std::size(kSpecialBits); ++i)
        ASSERT_EQ(bitsOf(v[static_cast<Index>(i)]), kSpecialBits[i]);
    expectVecMatchesOracle(v);
    WireWriter w;
    w.vec(v);
    Vec<Scalar> back;
    WireReader r(w.bytes());
    ASSERT_TRUE(r.vec(&back));
    for (std::size_t i = 0; i < std::size(kSpecialBits); ++i)
        EXPECT_EQ(bitsOf(back[static_cast<Index>(i)]), kSpecialBits[i])
            << "pattern " << i;
}

TEST(NetCodec, DenseMatchesTheByteWiseOracle)
{
    for (Index k : {1, 2, 3, 7, 13, 64, 513}) {
        expectDenseMatchesOracle(patternDense(1, k, 10 + k));
        expectDenseMatchesOracle(patternDense(k, 1, 20 + k));
    }
    expectDenseMatchesOracle(patternDense(512, 512, 30));
    expectDenseMatchesOracle(Dense<Scalar>());
}

TEST(NetCodec, VecMatchesTheByteWiseOracle)
{
    for (Index k : {0, 1, 2, 3, 7, 13, 64, 513})
        expectVecMatchesOracle(patternVec(k, 40 + k));
    expectVecMatchesOracle(patternVec(512 * 512, 50));
}

TEST(NetCodec, HeaderIntegersMatchTheByteWiseOracle)
{
    WireWriter bulk;
    wire_oracle::ByteWriter bytewise;
    for (std::uint64_t v : {0x0ULL, 0x1ULL, 0x80ULL, 0xffffULL,
                            0x12345678ULL, 0x8000000000000000ULL,
                            0xfedcba9876543210ULL, ~0x0ULL}) {
        bulk.u8(static_cast<std::uint8_t>(v));
        bytewise.u8(static_cast<std::uint8_t>(v));
        bulk.u16(static_cast<std::uint16_t>(v));
        bytewise.u16(static_cast<std::uint16_t>(v));
        bulk.u32(static_cast<std::uint32_t>(v));
        bytewise.u32(static_cast<std::uint32_t>(v));
        bulk.u64(v);
        bytewise.u64(v);
    }
    ASSERT_EQ(bulk.bytes(), bytewise.bytes());
    WireReader r(bulk.bytes());
    wire_oracle::ByteReader o(bulk.bytes());
    while (r.remaining() > 0) {
        std::uint8_t a8 = 0, b8 = 0;
        std::uint16_t a16 = 0, b16 = 0;
        std::uint32_t a32 = 0, b32 = 0;
        std::uint64_t a64 = 0, b64 = 0;
        ASSERT_TRUE(r.u8(&a8) && r.u16(&a16) && r.u32(&a32) &&
                    r.u64(&a64));
        ASSERT_TRUE(o.u8(&b8) && o.u16(&b16) && o.u32(&b32) &&
                    o.u64(&b64));
        EXPECT_EQ(a8, b8);
        EXPECT_EQ(a16, b16);
        EXPECT_EQ(a32, b32);
        EXPECT_EQ(a64, b64);
    }
    EXPECT_EQ(o.remaining(), 0u);
}

TEST(NetProtocol, ErrorEncodeDecodeIsIdentity)
{
    std::string back, err;
    ASSERT_TRUE(decodeError(encodeError("zero diagonal at 3"), &back,
                            &err))
        << err;
    EXPECT_EQ(back, "zero diagonal at 3");
}

TEST(NetProtocol, MetricsEncodeDecodeIsIdentity)
{
    MetricsSnapshot snap;
    snap.counters["serve_requests_total"] = 1234;
    snap.counters["net_bytes_received_total"] = 9999999;
    snap.gauges["serve_queue_depth"] = {3.5, GaugeAgg::Sum};
    snap.gauges["serve_cycles_formula_drift"] = {0.07, GaugeAgg::Max};
    Histogram h;
    for (double v : {0.5, 12.0, 12.5, 900.0, 1e7})
        h.record(v);
    snap.histograms["serve_latency_micros"] = h.snapshot();
    snap.histograms["empty_micros"] = HistogramSnapshot{};

    MetricsSnapshot back;
    std::string err;
    ASSERT_TRUE(decodeMetrics(encodeMetrics(snap), &back, &err))
        << err;
    EXPECT_EQ(back.counters, snap.counters);
    ASSERT_EQ(back.gauges.size(), snap.gauges.size());
    for (const auto &[name, gv] : snap.gauges) {
        EXPECT_EQ(back.gauges[name].value, gv.value) << name;
        EXPECT_EQ(back.gauges[name].agg, gv.agg) << name;
    }
    ASSERT_EQ(back.histograms.size(), snap.histograms.size());
    for (const auto &[name, hist] : snap.histograms) {
        const HistogramSnapshot &b = back.histograms[name];
        EXPECT_EQ(b.count, hist.count) << name;
        EXPECT_EQ(b.sum, hist.sum) << name;
        EXPECT_EQ(b.min, hist.min) << name;
        EXPECT_EQ(b.max, hist.max) << name;
        EXPECT_EQ(b.bucketIndex, hist.bucketIndex) << name;
        EXPECT_EQ(b.bucketCount, hist.bucketCount) << name;
    }
}

TEST(NetProtocol, LabelledMetricKeysSurviveTheWire)
{
    // The per-engine breakdown travels as labelled series inside
    // METRICS: their keys, escapes included, must come back intact.
    const MetricLabels labels{{"engine", "lin\"ear\\"},
                              {"kind", "matvec"},
                              {"mode", "fast\nx"}};
    MetricsSnapshot snap;
    snap.counters[seriesKey("serve_engine_requests_total", labels)] = 3;
    snap.counters["serve_requests_total"] = 3;
    snap.gauges[seriesKey("gateway_backend_inflight",
                          {{"backend", "1"}})] = {2.0, GaugeAgg::Sum};
    Histogram h;
    h.record(42.0);
    snap.histograms[seriesKey("serve_engine_latency_micros", labels)] =
        h.snapshot();

    MetricsSnapshot back;
    std::string err;
    ASSERT_TRUE(decodeMetrics(encodeMetrics(snap), &back, &err))
        << err;
    EXPECT_EQ(back.counters, snap.counters);
    ASSERT_EQ(back.gauges.size(), 1u);
    EXPECT_EQ(back.gauges.begin()->first, snap.gauges.begin()->first);
    ASSERT_EQ(back.histograms.size(), 1u);
    EXPECT_EQ(back.histograms.begin()->first,
              snap.histograms.begin()->first);
    EXPECT_EQ(back.histograms.begin()->second.count, 1u);
}

TEST(NetProtocol, EmptyMetricsSnapshotRoundTrips)
{
    MetricsSnapshot back;
    std::string err;
    ASSERT_TRUE(
        decodeMetrics(encodeMetrics(MetricsSnapshot{}), &back, &err))
        << err;
    EXPECT_TRUE(back.counters.empty());
    EXPECT_TRUE(back.gauges.empty());
    EXPECT_TRUE(back.histograms.empty());
}

TEST(NetProtocol, TruncatedMetricsPayloadFailsCleanly)
{
    MetricsSnapshot snap;
    snap.counters["a_total"] = 7;
    snap.gauges["g"] = {1.0, GaugeAgg::Max};
    Histogram h;
    h.record(3.0);
    h.record(77.0);
    snap.histograms["h_micros"] = h.snapshot();

    std::vector<std::uint8_t> payload = encodeMetrics(snap);
    for (std::size_t len = 0; len < payload.size(); ++len) {
        std::vector<std::uint8_t> cut(payload.begin(),
                                      payload.begin() + len);
        MetricsSnapshot out;
        std::string err;
        EXPECT_FALSE(decodeMetrics(cut, &out, &err))
            << "len=" << len;
        EXPECT_FALSE(err.empty()) << "len=" << len;
    }
}

TEST(NetProtocol, MetricsWithCorruptHistogramRejected)
{
    Histogram h;
    h.record(5.0);
    h.record(6.0);
    MetricsSnapshot snap;
    snap.histograms["h_micros"] = h.snapshot();
    std::vector<std::uint8_t> payload = encodeMetrics(snap);

    // Flip the histogram's total count so it disagrees with the
    // bucket sum: the decoder must reject, not trust either number.
    // Layout: u32 counter count (0), u32 gauge count (0), u32 hist
    // count, str name, u64 count <- corrupt the low byte.
    std::size_t at = 4 + 4 + 4 + 4 + std::string("h_micros").size();
    payload[at] ^= 0xFF;
    MetricsSnapshot out;
    std::string err;
    EXPECT_FALSE(decodeMetrics(payload, &out, &err));
    EXPECT_FALSE(err.empty());
}

//---------------------------------------------------------------------
// Frame-level malformations (decoder poisons itself)
//---------------------------------------------------------------------

TEST(NetProtocol, BadMagicPoisonsDecoder)
{
    std::vector<std::uint8_t> bytes = buildPingFrame(1);
    bytes[0] ^= 0xFF;
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    std::string err;
    EXPECT_EQ(decoder.next(&frame, &err),
              FrameDecoder::Result::Malformed);
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
    EXPECT_TRUE(decoder.poisoned());

    // The decoder stays poisoned even across good frames.
    std::vector<std::uint8_t> good = buildPingFrame(2);
    decoder.feed(good.data(), good.size());
    EXPECT_EQ(decoder.next(&frame, &err),
              FrameDecoder::Result::Malformed);
}

TEST(NetProtocol, BadVersionPoisonsDecoder)
{
    std::vector<std::uint8_t> bytes = buildPingFrame(1);
    bytes[4] = 0x7F; // version low byte
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    std::string err;
    EXPECT_EQ(decoder.next(&frame, &err),
              FrameDecoder::Result::Malformed);
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(NetProtocol, OversizedLengthPrefixPoisonsDecoder)
{
    // A header promising 4 GiB must be rejected from the header
    // alone — long before any allocation.
    WireWriter w;
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(FrameType::Submit));
    w.u64(1);
    w.u32(0xFFFFFFFFu);
    std::vector<std::uint8_t> bytes = w.take();

    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    std::string err;
    EXPECT_EQ(decoder.next(&frame, &err),
              FrameDecoder::Result::Malformed);
    EXPECT_NE(err.find("cap"), std::string::npos) << err;
}

TEST(NetProtocol, UnknownFrameTypeIsDeliveredNotFatal)
{
    // Unknown types keep framing intact; the application layer
    // answers ERROR but the stream survives.
    std::vector<std::uint8_t> bytes =
        buildFrame(static_cast<FrameType>(77), 5, {1, 2, 3});
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    std::string err;
    ASSERT_EQ(decoder.next(&frame, &err), FrameDecoder::Result::Ok);
    EXPECT_EQ(frame.header.type, 77);
    EXPECT_EQ(frame.payload.size(), 3u);

    std::vector<std::uint8_t> good = buildPingFrame(6);
    decoder.feed(good.data(), good.size());
    ASSERT_EQ(decoder.next(&frame, &err), FrameDecoder::Result::Ok);
    EXPECT_EQ(frame.header.tag, 6u);
}

//---------------------------------------------------------------------
// Payload-level malformations (per-request errors)
//---------------------------------------------------------------------

/** A valid matvec SUBMIT payload to mutate. */
std::vector<std::uint8_t>
goodSubmitPayload()
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(3, 3, 1),
                                  randomIntVec(3, 2),
                                  randomIntVec(3, 3), 2);
    return encodeSubmit(req);
}

TEST(NetProtocol, TruncatedSubmitFailsCleanly)
{
    std::vector<std::uint8_t> payload = goodSubmitPayload();
    // Every prefix must fail with a reason, never crash or succeed.
    for (std::size_t len = 0; len < payload.size(); ++len) {
        std::vector<std::uint8_t> cut(payload.begin(),
                                      payload.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              len));
        ServeRequest out;
        std::string err;
        EXPECT_FALSE(decodeSubmit(cut, &out, &err)) << "len=" << len;
        EXPECT_FALSE(err.empty()) << "len=" << len;
    }
}

TEST(NetProtocol, TrailingBytesRejected)
{
    std::vector<std::uint8_t> payload = goodSubmitPayload();
    payload.push_back(0);
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(payload, &out, &err));
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(NetProtocol, UnknownProblemKindRejected)
{
    // Payload layout: str engine (u32 len + bytes), then the kind
    // byte.
    std::vector<std::uint8_t> payload = goodSubmitPayload();
    payload[4 + 6] = 9; // "linear" is 6 bytes
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(payload, &out, &err));
    EXPECT_NE(err.find("unknown problem kind"), std::string::npos)
        << err;
}

TEST(NetProtocol, ZeroDimensionMatrixRejected)
{
    ServeRequest req;
    req.engine = "linear";
    // Bypass EnginePlan::matVec (it asserts): craft the plan by hand.
    req.plan.kind = ProblemKind::MatVec;
    req.plan.w = 2;
    req.plan.a = Dense<Scalar>(0, 3);
    req.plan.x = randomIntVec(3, 1);
    req.plan.b = Vec<Scalar>(0);
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(encodeSubmit(req), &out, &err));
    EXPECT_NE(err.find("zero-dimension"), std::string::npos) << err;
}

TEST(NetProtocol, NonPositiveArraySizeRejected)
{
    WireWriter w;
    w.str("linear");
    w.u8(0);  // MatVec
    w.i64(0); // w = 0
    w.u8(0);
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(w.take(), &out, &err));
    EXPECT_NE(err.find("array size"), std::string::npos) << err;
}

TEST(NetProtocol, HugeDimensionClaimRejected)
{
    // A dense header claiming 2^40 rows backed by no bytes must be
    // rejected by the reader's remaining-bytes bound.
    WireWriter w;
    w.str("linear");
    w.u8(0);
    w.i64(2);
    w.u8(0);
    w.i64(Index(1) << 40); // rows
    w.i64(4);              // cols
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(w.take(), &out, &err));
}

TEST(NetProtocol, NegativeVectorLengthRejected)
{
    WireWriter w;
    w.str("tri");
    w.u8(2); // TriSolve
    w.i64(2);
    w.u8(0);
    w.dense(randomIntDense(2, 2, 1));
    w.i64(-5); // b length
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(w.take(), &out, &err));
}

/** A SUBMIT payload with the flags byte replaced by @p flags. */
std::vector<std::uint8_t>
submitPayloadWithFlags(std::uint8_t flags)
{
    std::vector<std::uint8_t> payload = goodSubmitPayload();
    // Layout: str "linear" (4 + 6 bytes), kind u8, w i64, flags.
    payload[4 + 6 + 1 + 8] = flags;
    return payload;
}

TEST(NetProtocol, LegacyCrossCheckByteStillDecodes)
{
    // Old encoders wrote the crossCheck byte as 0x00/0x01; in the
    // flags reading that is bit 0 with mode bits 00 = Simulate.
    ServeRequest out;
    std::string err;
    ASSERT_TRUE(
        decodeSubmit(submitPayloadWithFlags(0x00), &out, &err))
        << err;
    EXPECT_FALSE(out.crossCheck);
    EXPECT_EQ(out.plan.mode, ExecMode::Simulate);
    ASSERT_TRUE(
        decodeSubmit(submitPayloadWithFlags(0x01), &out, &err))
        << err;
    EXPECT_TRUE(out.crossCheck);
    EXPECT_EQ(out.plan.mode, ExecMode::Simulate);
}

TEST(NetProtocol, SubmitModeBitsDecode)
{
    ServeRequest out;
    std::string err;
    ASSERT_TRUE(decodeSubmit(
        submitPayloadWithFlags(
            static_cast<std::uint8_t>(1u << kSubmitModeShift)),
        &out, &err))
        << err;
    EXPECT_EQ(out.plan.mode, ExecMode::Fast);
    ASSERT_TRUE(decodeSubmit(
        submitPayloadWithFlags(
            static_cast<std::uint8_t>(2u << kSubmitModeShift)),
        &out, &err))
        << err;
    EXPECT_EQ(out.plan.mode, ExecMode::Validate);
}

TEST(NetProtocol, UnknownExecutionModeRejected)
{
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(
        submitPayloadWithFlags(
            static_cast<std::uint8_t>(3u << kSubmitModeShift)),
        &out, &err));
    EXPECT_NE(err.find("unknown execution mode"), std::string::npos)
        << err;
}

TEST(NetProtocol, RecordTraceOverTheWireRejectedNotDropped)
{
    // A client encoding recordTrace would otherwise silently lose
    // the trace — RESPONSE frames cannot carry it — so the server
    // must refuse the request outright.
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(3, 3, 1),
                                  randomIntVec(3, 2),
                                  randomIntVec(3, 3), 2);
    req.plan.recordTrace = true;
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(encodeSubmit(req), &out, &err));
    EXPECT_NE(err.find("no trace"), std::string::npos) << err;
}

TEST(NetProtocol, ReservedSubmitFlagBitsRejected)
{
    // Bit 4 is the trace-context flag now; 5-7 stay reserved.
    for (std::uint8_t bit = 5; bit < 8; ++bit) {
        ServeRequest out;
        std::string err;
        EXPECT_FALSE(decodeSubmit(
            submitPayloadWithFlags(
                static_cast<std::uint8_t>(1u << bit)),
            &out, &err));
        EXPECT_NE(err.find("reserved"), std::string::npos) << err;
    }
}

TEST(NetProtocol, TruncatedStatsAndErrorPayloadsFailCleanly)
{
    // The per-engine statistics travel as labelled METRICS series:
    // every truncation of such a payload must fail cleanly.
    const MetricLabels labels =
        engineLabels("linear", ProblemKind::MatVec, ExecMode::Fast);
    MetricsSnapshot stats;
    stats.counters[seriesKey("serve_engine_requests_total", labels)] = 10;
    Histogram h;
    h.record(12.5);
    stats.histograms[seriesKey("serve_engine_latency_micros", labels)] =
        h.snapshot();
    auto prefix = [](const std::vector<std::uint8_t> &payload,
                     std::size_t len) {
        return std::vector<std::uint8_t>(
            payload.begin(),
            payload.begin() + static_cast<std::ptrdiff_t>(len));
    };
    const std::vector<std::uint8_t> metrics = encodeMetrics(stats);
    for (std::size_t len = 0; len < metrics.size(); ++len) {
        MetricsSnapshot out;
        std::string err;
        EXPECT_FALSE(decodeMetrics(prefix(metrics, len), &out, &err))
            << "len=" << len;
    }
    const std::vector<std::uint8_t> error = encodeError("zero diagonal");
    for (std::size_t len = 0; len < error.size(); ++len) {
        std::string message, err;
        EXPECT_FALSE(decodeError(prefix(error, len), &message, &err))
            << "len=" << len;
    }
    std::string message, err;
    EXPECT_FALSE(decodeError({1, 2}, &message, &err));
}

//---------------------------------------------------------------------
// Cross-tier trace context and the TRACES payload
//---------------------------------------------------------------------

TraceContext
sampleContext()
{
    TraceContext ctx;
    ctx.traceIdHi = 0x0123456789abcdefull;
    ctx.traceIdLo = 0xfedcba9876543210ull;
    ctx.sampled = true;
    ctx.originNanos = 123456789;
    ctx.attempt = 2;
    return ctx;
}

TEST(NetProtocol, SubmitCarriesTraceContextBehindFlagBit)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(3, 3, 1),
                                  randomIntVec(3, 2),
                                  randomIntVec(3, 3), 2);
    req.traceContext = sampleContext();
    std::vector<std::uint8_t> payload = encodeSubmit(req);
    ServeRequest back;
    std::string err;
    ASSERT_TRUE(decodeSubmit(payload, &back, &err)) << err;
    EXPECT_EQ(back.traceContext.traceIdHi, req.traceContext.traceIdHi);
    EXPECT_EQ(back.traceContext.traceIdLo, req.traceContext.traceIdLo);
    EXPECT_EQ(back.traceContext.sampled, req.traceContext.sampled);
    EXPECT_EQ(back.traceContext.originNanos,
              req.traceContext.originNanos);
    EXPECT_EQ(back.traceContext.attempt, req.traceContext.attempt);
    // A context-free request encodes without the flag bit and decodes
    // to an invalid (absent) context.
    req.traceContext = TraceContext{};
    ASSERT_TRUE(decodeSubmit(encodeSubmit(req), &back, &err)) << err;
    EXPECT_FALSE(back.traceContext.valid());
}

TEST(NetProtocol, TracedSubmitEveryPrefixFailsCleanly)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(2, 2, 1),
                                  randomIntVec(2, 2),
                                  randomIntVec(2, 3), 1);
    req.traceContext = sampleContext();
    std::vector<std::uint8_t> payload = encodeSubmit(req);
    for (std::size_t len = 0; len < payload.size(); ++len) {
        std::vector<std::uint8_t> cut(payload.begin(),
                                      payload.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              len));
        ServeRequest out;
        std::string err;
        EXPECT_FALSE(decodeSubmit(cut, &out, &err)) << "len=" << len;
        EXPECT_FALSE(err.empty()) << "len=" << len;
    }
}

/** The ctx block starts right after the flags byte; find it by
 *  layout: str engine + kind u8 + w i64 + flags u8. */
std::size_t
submitCtxOffset()
{
    return 4 + 6 + 1 + 8 + 1;
}

TEST(NetProtocol, ReservedTraceContextFlagBitsRejected)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(3, 3, 1),
                                  randomIntVec(3, 2),
                                  randomIntVec(3, 3), 2);
    req.traceContext = sampleContext();
    std::vector<std::uint8_t> payload = encodeSubmit(req);
    // ctx layout: u64 hi, u64 lo, u8 flags, ...
    payload[submitCtxOffset() + 16] |= 0x80;
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(payload, &out, &err));
    EXPECT_NE(err.find("reserved trace-context"), std::string::npos)
        << err;
}

TEST(NetProtocol, AllZeroTraceIdRejected)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(3, 3, 1),
                                  randomIntVec(3, 2),
                                  randomIntVec(3, 3), 2);
    req.traceContext = sampleContext();
    std::vector<std::uint8_t> payload = encodeSubmit(req);
    for (std::size_t i = 0; i < 16; ++i)
        payload[submitCtxOffset() + i] = 0;
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(payload, &out, &err));
    EXPECT_NE(err.find("all-zero trace id"), std::string::npos)
        << err;
}

/** The payload of a FORWARD frame built over goodSubmitPayload(). */
std::vector<std::uint8_t>
forwardPayload(const TraceContext *ctx)
{
    std::vector<std::uint8_t> frame =
        wire_oracle::buildForwardFrame(1, 0x1122334455667788ull,
                                       goodSubmitPayload(), ctx);
    return std::vector<std::uint8_t>(frame.begin() + 20, frame.end());
}

TEST(NetProtocol, ForwardRoundTripsWithAndWithoutContext)
{
    Digest digest = 0;
    ServeRequest out;
    std::string err;
    ASSERT_TRUE(
        decodeForward(forwardPayload(nullptr), &digest, &out, &err))
        << err;
    EXPECT_EQ(digest, 0x1122334455667788ull);
    EXPECT_FALSE(out.traceContext.valid());

    TraceContext ctx = sampleContext();
    ASSERT_TRUE(
        decodeForward(forwardPayload(&ctx), &digest, &out, &err))
        << err;
    EXPECT_TRUE(out.traceContext.valid());
    EXPECT_EQ(out.traceContext.traceIdHi, ctx.traceIdHi);
    EXPECT_EQ(out.traceContext.attempt, ctx.attempt);
}

TEST(NetProtocol, ForwardFrameIsHeaderThenEnvelopeThenSubmit)
{
    // The gateway sends buildForwardHead and then the SUBMIT payload;
    // together they must be exactly the byte-wise oracle's frame,
    // which is the generic frame around envelope + payload.
    const std::vector<std::uint8_t> submit = goodSubmitPayload();
    TraceContext ctx = sampleContext();
    for (const TraceContext *c : {static_cast<TraceContext *>(nullptr),
                                  &ctx}) {
        WireWriter w;
        w.u64(0xabcdef);
        w.u8(c ? 1 : 0);
        if (c)
            encodeTraceContext(w, *c);
        std::vector<std::uint8_t> payload = w.take();
        payload.insert(payload.end(), submit.begin(), submit.end());
        const std::vector<std::uint8_t> oracle =
            wire_oracle::buildForwardFrame(5, 0xabcdef, submit, c);
        EXPECT_EQ(oracle, buildFrame(FrameType::Forward, 5, payload));
        std::vector<std::uint8_t> sent =
            buildForwardHead(5, 0xabcdef, submit.size(), c);
        sent.insert(sent.end(), submit.begin(), submit.end());
        EXPECT_EQ(sent, oracle);
    }
}

TEST(NetProtocol, ForwardContextOverridesEmbeddedSubmitContext)
{
    // The gateway owns the attempt counter: when both the FORWARD
    // envelope and the embedded SUBMIT carry a context, the
    // envelope's wins.
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(3, 3, 1),
                                  randomIntVec(3, 2),
                                  randomIntVec(3, 3), 2);
    req.traceContext = sampleContext();
    req.traceContext.attempt = 0;
    TraceContext fwd_ctx = sampleContext();
    fwd_ctx.attempt = 2;
    std::vector<std::uint8_t> frame = wire_oracle::buildForwardFrame(
        1, 42, encodeSubmit(req), &fwd_ctx);
    std::vector<std::uint8_t> payload(frame.begin() + 20,
                                      frame.end());
    Digest digest = 0;
    ServeRequest out;
    std::string err;
    ASSERT_TRUE(decodeForward(payload, &digest, &out, &err)) << err;
    EXPECT_EQ(out.traceContext.attempt, 2);
}

TEST(NetProtocol, ForwardBadContextMarkerRejected)
{
    std::vector<std::uint8_t> payload = forwardPayload(nullptr);
    payload[8] = 2; // marker must be 0 or 1
    Digest digest = 0;
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeForward(payload, &digest, &out, &err));
    EXPECT_NE(err.find("trace-context marker"), std::string::npos)
        << err;
}

TEST(NetProtocol, TracedForwardEveryPrefixFailsCleanly)
{
    TraceContext ctx = sampleContext();
    std::vector<std::uint8_t> payload = forwardPayload(&ctx);
    for (std::size_t len = 0; len < payload.size(); ++len) {
        std::vector<std::uint8_t> cut(payload.begin(),
                                      payload.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              len));
        Digest digest = 0;
        ServeRequest out;
        std::string err;
        EXPECT_FALSE(decodeForward(cut, &digest, &out, &err))
            << "len=" << len;
        EXPECT_FALSE(err.empty()) << "len=" << len;
    }
}

std::vector<RequestTrace>
sampleTraces()
{
    std::vector<RequestTrace> traces;
    RequestTrace t1;
    t1.requestId = 7;
    t1.label = "linear mv 4x4";
    t1.kind = "matvec";
    t1.ok = true;
    t1.cacheHit = true;
    t1.tier = TraceTier::Gateway;
    t1.ctx = sampleContext();
    for (std::size_t s = 0; s < kTraceStages; ++s)
        t1.stageNanos[s] = 1000 * (s + 1);
    t1.events.push_back({"resubmit attempt 1", 4500});
    t1.events.push_back({"resubmit budget spent", 5500});
    traces.push_back(std::move(t1));
    RequestTrace t2;
    t2.requestId = 9;
    t2.label = "hex mm 2x2";
    t2.kind = "matmul";
    t2.ok = false;
    t2.tier = TraceTier::Backend;
    t2.stageNanos[0] = 100;
    t2.stageNanos[7] = 900;
    traces.push_back(std::move(t2));
    return traces;
}

TEST(NetProtocol, TracesEncodeDecodeIsIdentity)
{
    std::vector<std::uint8_t> payload = encodeTraces(sampleTraces(),
                                                     31);
    std::vector<RequestTrace> back;
    std::uint64_t total = 0;
    std::string err;
    ASSERT_TRUE(decodeTraces(payload, &back, &total, &err)) << err;
    EXPECT_EQ(total, 31u);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].requestId, 7u);
    EXPECT_EQ(back[0].label, "linear mv 4x4");
    EXPECT_EQ(back[0].kind, "matvec");
    EXPECT_TRUE(back[0].ok);
    EXPECT_TRUE(back[0].cacheHit);
    EXPECT_EQ(back[0].tier, TraceTier::Gateway);
    EXPECT_TRUE(back[0].ctx.valid());
    EXPECT_EQ(back[0].ctx.traceIdLo, sampleContext().traceIdLo);
    EXPECT_EQ(back[0].ctx.attempt, 2);
    for (std::size_t s = 0; s < kTraceStages; ++s)
        EXPECT_EQ(back[0].stageNanos[s], 1000 * (s + 1));
    ASSERT_EQ(back[0].events.size(), 2u);
    EXPECT_EQ(back[0].events[0].name, "resubmit attempt 1");
    EXPECT_EQ(back[0].events[0].nanos, 4500u);
    EXPECT_EQ(back[1].tier, TraceTier::Backend);
    EXPECT_FALSE(back[1].ctx.valid());
    EXPECT_TRUE(back[1].events.empty());
}

TEST(NetProtocol, EmptyTracesSnapshotRoundTrips)
{
    std::vector<RequestTrace> back;
    std::uint64_t total = 99;
    std::string err;
    ASSERT_TRUE(decodeTraces(encodeTraces({}, 0), &back, &total,
                             &err))
        << err;
    EXPECT_TRUE(back.empty());
    EXPECT_EQ(total, 0u);
}

TEST(NetProtocol, TracesEveryPrefixFailsCleanly)
{
    std::vector<std::uint8_t> payload = encodeTraces(sampleTraces(),
                                                     31);
    for (std::size_t len = 0; len < payload.size(); ++len) {
        std::vector<std::uint8_t> cut(payload.begin(),
                                      payload.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              len));
        std::vector<RequestTrace> back;
        std::uint64_t total = 0;
        std::string err;
        EXPECT_FALSE(decodeTraces(cut, &back, &total, &err))
            << "len=" << len;
        EXPECT_FALSE(err.empty()) << "len=" << len;
    }
}

TEST(NetProtocol, TracesTrailingBytesRejected)
{
    std::vector<std::uint8_t> payload = encodeTraces(sampleTraces(),
                                                     31);
    payload.push_back(0);
    std::vector<RequestTrace> back;
    std::uint64_t total = 0;
    std::string err;
    EXPECT_FALSE(decodeTraces(payload, &back, &total, &err));
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(NetProtocol, TracesBadTierAndCountRejected)
{
    std::vector<std::uint8_t> payload = encodeTraces(sampleTraces(),
                                                     31);
    // Record layout after the 12-byte header: u64 id, str label
    // (4 + 13), str kind (4 + 6), ok u8, cacheHit u8, then tier.
    const std::size_t tier_at = 12 + 8 + 4 + 13 + 4 + 6 + 1 + 1;
    {
        std::vector<std::uint8_t> bad = payload;
        bad[tier_at] = 7;
        std::vector<RequestTrace> back;
        std::uint64_t total = 0;
        std::string err;
        EXPECT_FALSE(decodeTraces(bad, &back, &total, &err));
        EXPECT_NE(err.find("tier"), std::string::npos) << err;
    }
    {
        // A count claiming far more records than the payload holds
        // must be rejected up front, not by allocation.
        std::vector<std::uint8_t> bad = payload;
        bad[8] = 0xff;
        bad[9] = 0xff;
        bad[10] = 0xff;
        bad[11] = 0x7f;
        std::vector<RequestTrace> back;
        std::uint64_t total = 0;
        std::string err;
        EXPECT_FALSE(decodeTraces(bad, &back, &total, &err));
        EXPECT_NE(err.find("exceeds payload"), std::string::npos)
            << err;
    }
}

//---------------------------------------------------------------------
// FramedSocket: segment output and in-place receive
//---------------------------------------------------------------------

/** A non-blocking AF_UNIX stream pair; the first end's send buffer
 *  is capped at @p sndbuf bytes when nonzero. */
void
socketPair(int sv[2], int sndbuf)
{
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv),
              0);
    if (sndbuf > 0)
        ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf,
                     sizeof(sndbuf));
}

/** mv512_fast_hot's request: a 512x512 mat-vec, 2.1 MB on the wire. */
ServeRequest
mv512Request(std::uint64_t seed)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(512, 512, seed),
                                  randomIntVec(512, seed + 1),
                                  randomIntVec(512, seed + 2), 32);
    return req;
}

TEST(NetFramedSocket, OwnedAndSharedSegmentsArriveInOrder)
{
    // Owned and shared segments, interleaved, through a send buffer
    // far smaller than the output: read at random chunk sizes, the
    // peer gets exactly their concatenation.
    int sv[2];
    socketPair(sv, 4096);
    FramedSocket writer(sv[0]), reader(sv[1]);
    Rng rng(8100);
    std::vector<std::uint8_t> expected;
    for (int i = 0; i < 24; ++i) {
        std::vector<std::uint8_t> bytes(
            static_cast<std::size_t>(rng.uniformInt(1, 100000)));
        for (std::uint8_t &b : bytes)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        expected.insert(expected.end(), bytes.begin(), bytes.end());
        if (i % 3 == 0)
            writer.queue(std::make_shared<const std::vector<std::uint8_t>>(
                std::move(bytes)));
        else
            writer.queue(std::move(bytes));
        writer.queue(std::vector<std::uint8_t>()); // queues nothing
    }
    ASSERT_EQ(writer.queuedBytes(), expected.size());
    ASSERT_EQ(writer.output.size(), 24u);

    std::vector<std::uint8_t> got;
    std::uint64_t sent = 0;
    std::uint8_t buf[8192];
    while (got.size() < expected.size()) {
        ASSERT_TRUE(writer.flush(&sent));
        ASSERT_EQ(writer.queuedBytes() + sent, expected.size());
        const ssize_t n = ::recv(
            sv[1], buf, static_cast<std::size_t>(rng.uniformInt(1, 8192)),
            0);
        if (n > 0)
            got.insert(got.end(), buf, buf + n);
        else
            ASSERT_TRUE(n < 0 && errno == EAGAIN) << n;
    }
    EXPECT_EQ(sent, expected.size());
    EXPECT_EQ(writer.queuedBytes(), 0u);
    EXPECT_TRUE(writer.output.empty());
    EXPECT_TRUE(got == expected);
}

TEST(NetFramedSocket, SharedSegmentIsReleasedOnlyOnceSent)
{
    int sv[2];
    socketPair(sv, 4096);
    FramedSocket writer(sv[0]), reader(sv[1]);
    auto payload =
        std::make_shared<std::vector<std::uint8_t>>(1u << 20, 0x5a);
    const std::weak_ptr<std::vector<std::uint8_t>> watch = payload;
    writer.queue(std::vector<std::uint8_t>(100, 0x01));
    writer.queue(SharedBytes(payload));
    payload.reset(); // the queue holds the last reference now

    std::uint64_t sent = 0;
    ASSERT_TRUE(writer.flush(&sent));
    ASSERT_LT(sent, 100u + (1u << 20)) << "the send buffer took it all";
    std::uint8_t buf[65536];
    std::size_t got = 0;
    while (writer.queuedBytes() > 0) {
        EXPECT_FALSE(watch.expired())
            << "released with " << writer.queuedBytes() << " bytes unsent";
        const ssize_t n = ::recv(sv[1], buf, sizeof(buf), 0);
        if (n > 0)
            got += static_cast<std::size_t>(n);
        ASSERT_TRUE(writer.flush(&sent));
    }
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(sent, 100u + (1u << 20));

    // Closing drops what is still queued, shared bytes included.
    auto more = std::make_shared<std::vector<std::uint8_t>>(1u << 20, 1);
    const std::weak_ptr<std::vector<std::uint8_t>> watch_more = more;
    writer.queue(SharedBytes(std::move(more)));
    EXPECT_FALSE(watch_more.expired());
    writer.close();
    EXPECT_TRUE(watch_more.expired());
    EXPECT_EQ(writer.queuedBytes(), 0u);
}

TEST(NetFramedSocket, PipelinedSubmitsQueueWithoutACopy)
{
    // Eight mv512 SUBMITs queued back to back, as submitBatch
    // pipelines them: each frame stays in the buffer it was encoded
    // into, however much output is pending ahead of it.
    const ServeRequest req = mv512Request(8200);
    FramedSocket sock;
    std::vector<const std::uint8_t *> buffers;
    std::size_t total = 0;
    for (std::uint64_t tag = 1; tag <= 8; ++tag) {
        std::vector<std::uint8_t> frame = buildSubmitFrame(tag, req);
        ASSERT_GT(frame.size(), std::size_t{2} << 20);
        buffers.push_back(frame.data());
        total += frame.size();
        sock.queue(std::move(frame));
    }
    ASSERT_EQ(sock.output.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(sock.output[i].data(), buffers[i]) << "frame " << i;
    EXPECT_EQ(sock.queuedBytes(), total);
}

TEST(NetFramedSocket, LargeSmallAndEmptyFramesArriveIntact)
{
    // A 2.1 MB SUBMIT, a small RESPONSE and an empty PING back to
    // back through FramedSocket::next: each arrives bit for bit, with
    // no payload's capacity past its length field. A second 2.1 MB
    // SUBMIT, sent once the first three are in, is received in place
    // into the first one's buffer.
    const std::vector<std::uint8_t> big =
        buildSubmitFrame(1, mv512Request(8300));
    WireResponse resp;
    resp.ok = true;
    resp.y = randomIntVec(10, 8301);
    const std::vector<std::uint8_t> small = buildResponseFrame(2, resp);
    const std::vector<std::uint8_t> ping = buildPingFrame(3);
    const std::vector<std::uint8_t> again =
        buildSubmitFrame(4, mv512Request(8302));

    int sv[2];
    socketPair(sv, 0);
    FramedSocket reader(sv[1]);
    std::atomic<bool> first_three_in{false};
    // However the test ends, the writer is released and joined.
    struct Join
    {
        std::thread thread;
        std::atomic<bool> *go;
        int fd;
        ~Join()
        {
            go->store(true);
            ::shutdown(fd, SHUT_RDWR);
            thread.join();
            ::close(fd);
        }
    } writer{{}, &first_three_in, sv[0]};
    writer.thread = std::thread([&] {
        auto sendAll = [&](const std::vector<std::uint8_t> &bytes) {
            for (std::size_t off = 0; off < bytes.size();) {
                const ssize_t n = ::send(sv[0], bytes.data() + off,
                                         bytes.size() - off, MSG_NOSIGNAL);
                if (n > 0) {
                    off += static_cast<std::size_t>(n);
                } else if (n < 0 && errno == EAGAIN) {
                    pollfd pfd = {sv[0], POLLOUT, 0};
                    ::poll(&pfd, 1, 100);
                } else {
                    return;
                }
            }
        };
        sendAll(big);
        sendAll(small);
        sendAll(ping);
        while (!first_three_in.load())
            std::this_thread::yield();
        sendAll(again);
    });

    Frame frame;
    std::string err;
    std::uint64_t received = 0;
    auto nextFrame = [&] {
        for (;;) {
            const FramedSocket::Read r =
                reader.next(&frame, &err, &received);
            if (r == FramedSocket::Read::Frame)
                return true;
            if (r != FramedSocket::Read::Drained)
                return false;
            pollfd pfd = {sv[1], POLLIN, 0};
            ::poll(&pfd, 1, 1000);
        }
    };
    const std::vector<std::uint8_t> *const want[] = {&big, &small, &ping,
                                                     &again};
    const std::uint8_t *big_buffer = nullptr;
    for (std::size_t i = 0; i < 4; ++i) {
        SCOPED_TRACE("frame " + std::to_string(i));
        if (i == 3)
            first_three_in.store(true);
        ASSERT_TRUE(nextFrame()) << err;
        EXPECT_EQ(frame.header.tag, i + 1);
        ASSERT_EQ(frame.payload.size(), frame.header.payloadLen);
        EXPECT_LE(frame.payload.capacity(), frame.header.payloadLen);
        EXPECT_TRUE(std::equal(frame.payload.begin(), frame.payload.end(),
                               want[i]->begin() + kFrameHeaderBytes,
                               want[i]->end()));
        if (i == 0)
            big_buffer = frame.payload.data();
    }
    EXPECT_EQ(frame.payload.data(), big_buffer);
    EXPECT_EQ(received,
              big.size() + small.size() + ping.size() + again.size());
}

} // namespace
} // namespace sap
