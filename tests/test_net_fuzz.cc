/**
 * @file
 * Deterministic byte-level fuzzing of the parsers that face the
 * network: the frame splitter (FrameDecoder), every payload codec,
 * and the admin-plane HTTP request parser.
 *
 * The robustness contract under test is the one net/protocol.hh
 * states: no input may ever crash, assert, or silently desync a
 * parser. Frame-level violations must poison the decoder permanently
 * (the stream cannot be re-synchronized), payload-level violations
 * must fail cleanly with a reason, and anything else must decode.
 *
 * The harness is plain gtest over seeded xorshift mutation of the
 * checked-in corpus (the .hex seeds under tests/data/fuzz) — see
 * fuzz_corpus.hh.
 * Every failure is replayable: the assertion message carries the
 * (seed, iteration) pair that derived the offending input. The
 * nightly CI job runs this same binary under ASan+UBSan, where
 * "never crash" tightens to "never touch a byte out of bounds".
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "net/protocol.hh"
#include "obs/http_admin.hh"
#include "serve/plan_cache.hh"
#include "tests/fuzz_corpus.hh"

namespace sap {
namespace {

using fuzz::CorpusEntry;
using fuzz::Xorshift64;

std::string
corpusDir()
{
    return std::string(SAP_TEST_DATA_DIR) + "/fuzz";
}

bool
isHttpSeed(const CorpusEntry &e)
{
    return e.name.compare(0, 5, "http_") == 0;
}

/** The checked-in seeds, split by which parser they feed. */
std::vector<CorpusEntry>
frameCorpus()
{
    std::vector<CorpusEntry> all = fuzz::loadHexCorpus(corpusDir());
    std::vector<CorpusEntry> frames;
    for (CorpusEntry &e : all)
        if (!isHttpSeed(e))
            frames.push_back(std::move(e));
    return frames;
}

std::vector<CorpusEntry>
httpCorpus()
{
    std::vector<CorpusEntry> all = fuzz::loadHexCorpus(corpusDir());
    std::vector<CorpusEntry> heads;
    for (CorpusEntry &e : all)
        if (isHttpSeed(e))
            heads.push_back(std::move(e));
    return heads;
}

/**
 * The SUBMIT scanner (what the gateway validates with) next to the
 * full decoders (what a backend validates with) on the same bytes:
 * they must accept exactly the same payloads and reject the rest
 * with the same text, and on acceptance the digest taken from the
 * bytes must be planDigest of the decoded request — so the gateway
 * forwards nothing a backend would refuse, and routes by the digest
 * the backend would compute itself.
 */
void
checkScannerMatchesDecoders(const std::vector<std::uint8_t> &p)
{
    ServeRequest req;
    SubmitView view;
    std::string decode_err, scan_err;
    const bool decoded = decodeSubmit(p, &req, &decode_err);
    ASSERT_EQ(scanSubmit(p, &view, &scan_err), decoded);
    if (decoded) {
        ASSERT_EQ(planDigest(view), planDigest(req.engine, req.plan));
    } else {
        ASSERT_FALSE(decode_err.empty());
        ASSERT_EQ(scan_err, decode_err);
    }

    Digest decoded_digest = 0, scanned_digest = 0;
    decode_err.clear();
    scan_err.clear();
    const bool forwarded =
        decodeForward(p, &decoded_digest, &req, &decode_err);
    ASSERT_EQ(scanForward(p, &scanned_digest, &view, &scan_err),
              forwarded);
    if (forwarded) {
        ASSERT_EQ(scanned_digest, decoded_digest);
        ASSERT_EQ(planDigest(view), planDigest(req.engine, req.plan));
    } else {
        ASSERT_FALSE(decode_err.empty());
        ASSERT_EQ(scan_err, decode_err);
    }
}

/**
 * Run one decoded frame's payload through the codec its type claims,
 * then through every *other* codec too — a payload is attacker data,
 * so each decoder must survive all of them. Decoders must either
 * succeed or fail with a non-empty reason; which one is not checked
 * (that is the round-trip suite's job, on well-formed inputs), except
 * that the SUBMIT scanner must agree with the decoders exactly.
 */
void
exercisePayloadDecoders(const Frame &frame)
{
    const std::vector<std::uint8_t> &p = frame.payload;
    std::string err;
    WireResponse resp;
    MetricsSnapshot snap;
    std::string message;

    checkScannerMatchesDecoders(p);
    if (::testing::Test::HasFatalFailure())
        return;
    if (!decodeResponse(p, &resp, &err)) {
        ASSERT_FALSE(err.empty());
    }
    err.clear();
    if (!p.empty() && !decodeMetrics(p, &snap, &err)) {
        ASSERT_FALSE(err.empty());
    }
    err.clear();
    if (!decodeError(p, &message, &err)) {
        ASSERT_FALSE(err.empty());
    }
    err.clear();
    std::vector<RequestTrace> traces;
    std::uint64_t total = 0;
    if (!p.empty() && !decodeTraces(p, &traces, &total, &err)) {
        ASSERT_FALSE(err.empty());
    }
}

/**
 * Feed @p bytes to a fresh FrameDecoder in random-sized chunks and
 * pump it dry, checking the poisoned-stream invariant along the way.
 * @return the number of complete frames extracted.
 */
std::size_t
pumpDecoder(const std::vector<std::uint8_t> &bytes, Xorshift64 *rng,
            const std::string &context)
{
    FrameDecoder decoder;
    std::size_t frames = 0;
    std::size_t off = 0;
    bool poisoned = false;
    std::string poison_message;
    while (off < bytes.size() || !poisoned) {
        if (off < bytes.size()) {
            std::size_t n = std::min(bytes.size() - off,
                                     1 + rng->below(97));
            decoder.feed(bytes.data() + off, n);
            off += n;
        }
        for (;;) {
            Frame frame;
            std::string err;
            FrameDecoder::Result res = decoder.next(&frame, &err);
            if (res == FrameDecoder::Result::NeedMore)
                break;
            if (res == FrameDecoder::Result::Malformed) {
                EXPECT_FALSE(err.empty()) << context;
                EXPECT_TRUE(decoder.poisoned()) << context;
                if (poisoned) {
                    // Once poisoned, always poisoned — and for the
                    // original reason, not whatever bytes came later.
                    EXPECT_EQ(err, poison_message) << context;
                }
                poisoned = true;
                poison_message = err;
                break;
            }
            EXPECT_FALSE(poisoned)
                << context << ": frame extracted after poisoning";
            ++frames;
            exercisePayloadDecoders(frame);
        }
        if (off >= bytes.size())
            break;
    }
    return frames;
}

//----------------------------------------------------------------------
// Corpus sanity: the seeds themselves must be healthy, or every
// derived mutation starts from garbage and coverage collapses.
//----------------------------------------------------------------------

TEST(FuzzCorpus, SeedsLoadAndFrameSeedsDecodeCleanly)
{
    std::vector<CorpusEntry> frames = frameCorpus();
    std::vector<CorpusEntry> heads = httpCorpus();
    EXPECT_GE(frames.size(), 8u);
    EXPECT_GE(heads.size(), 2u);

    for (const CorpusEntry &e : frames) {
        FrameDecoder decoder;
        decoder.feed(e.bytes.data(), e.bytes.size());
        Frame frame;
        std::string err;
        ASSERT_EQ(decoder.next(&frame, &err), FrameDecoder::Result::Ok)
            << e.name << ": " << err;
        EXPECT_EQ(decoder.next(&frame, &err),
                  FrameDecoder::Result::NeedMore)
            << e.name << " has trailing bytes";
    }
    for (const CorpusEntry &e : heads) {
        HttpRequest req;
        std::string text(e.bytes.begin(), e.bytes.end());
        EXPECT_EQ(parseHttpRequest(text, &req), HttpParseResult::Ok)
            << e.name;
    }
}

TEST(FuzzCorpus, MutationIsDeterministic)
{
    std::vector<CorpusEntry> corpus = frameCorpus();
    Xorshift64 a(0xfeedbeef), b(0xfeedbeef);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(fuzz::deriveInput(corpus, &a),
                  fuzz::deriveInput(corpus, &b))
            << "iteration " << i;
}

//----------------------------------------------------------------------
// The frame splitter and payload codecs under mutation.
//----------------------------------------------------------------------

TEST(FuzzFrameDecoder, MutatedFramesNeverCrashOrDesync)
{
    const std::uint64_t kSeed = 0x5a01;
    const int kIterations = 4000;
    std::vector<CorpusEntry> corpus = frameCorpus();
    Xorshift64 rng(kSeed);
    std::size_t total_frames = 0;
    for (int i = 0; i < kIterations; ++i) {
        std::vector<std::uint8_t> input =
            fuzz::deriveInput(corpus, &rng);
        total_frames += pumpDecoder(
            input, &rng,
            "seed=" + std::to_string(kSeed) +
                " iteration=" + std::to_string(i));
        if (::testing::Test::HasFailure())
            return;
    }
    // Mutation must not be so destructive that nothing survives
    // framing — that would mean the suite stopped reaching the
    // payload decoders entirely.
    EXPECT_GT(total_frames, 0u);
}

TEST(FuzzFrameDecoder, ConcatenatedMutantsStreamCleanly)
{
    // A TCP stream is many frames back to back; splice several
    // mutants (and occasionally a pristine seed) into one stream so
    // the decoder's consumed-prefix bookkeeping is exercised across
    // frame boundaries, not just from offset zero.
    const std::uint64_t kSeed = 0xc10c;
    std::vector<CorpusEntry> corpus = frameCorpus();
    Xorshift64 rng(kSeed);
    for (int i = 0; i < 400; ++i) {
        std::vector<std::uint8_t> stream;
        std::size_t parts = 2 + rng.below(4);
        for (std::size_t p = 0; p < parts; ++p) {
            std::vector<std::uint8_t> part =
                rng.below(3) == 0
                    ? corpus[rng.below(corpus.size())].bytes
                    : fuzz::deriveInput(corpus, &rng, 4);
            stream.insert(stream.end(), part.begin(), part.end());
        }
        pumpDecoder(stream, &rng,
                    "seed=" + std::to_string(kSeed) +
                        " iteration=" + std::to_string(i));
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(FuzzPayloads, MutatedPayloadsNeverCrashAnyCodec)
{
    // Strip the 20-byte header off each frame seed and mutate the
    // bare payload: this reaches payload shapes a framed mutation
    // rarely produces (the header soaks up most mutation sites).
    const std::uint64_t kSeed = 0x9a71;
    std::vector<CorpusEntry> corpus = frameCorpus();
    for (CorpusEntry &e : corpus)
        e.bytes.erase(e.bytes.begin(),
                      e.bytes.begin() +
                          std::min<std::ptrdiff_t>(
                              kFrameHeaderBytes,
                              static_cast<std::ptrdiff_t>(
                                  e.bytes.size())));
    Xorshift64 rng(kSeed);
    for (int i = 0; i < 4000; ++i) {
        Frame frame;
        frame.payload = fuzz::deriveInput(corpus, &rng);
        exercisePayloadDecoders(frame);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "seed=" << kSeed << " iteration=" << i;
            return;
        }
    }
}

//----------------------------------------------------------------------
// Targeted poisoned-stream invariants (the fuzz loops check these
// opportunistically; these pin them down on crafted inputs).
//----------------------------------------------------------------------

TEST(FuzzPoisoning, BadMagicPoisonsPermanently)
{
    std::vector<std::uint8_t> bad = buildPingFrame(1);
    bad[0] ^= 0xff; // break the magic
    FrameDecoder decoder;
    decoder.feed(bad.data(), bad.size());

    Frame frame;
    std::string first_err, err;
    EXPECT_EQ(decoder.next(&frame, &first_err),
              FrameDecoder::Result::Malformed);
    EXPECT_TRUE(decoder.poisoned());

    // Feeding perfectly valid frames afterwards must not revive it,
    // and the reported reason must stay the original one.
    std::vector<std::uint8_t> good = buildPingFrame(2);
    for (int i = 0; i < 3; ++i) {
        decoder.feed(good.data(), good.size());
        EXPECT_EQ(decoder.next(&frame, &err),
                  FrameDecoder::Result::Malformed);
        EXPECT_EQ(err, first_err);
    }
}

TEST(FuzzPoisoning, OversizedLengthPoisons)
{
    // A length field over the decoder's cap is a frame-level
    // violation even though the bytes never arrive.
    FrameDecoder decoder(1024);
    std::vector<std::uint8_t> frame_bytes = buildPingFrame(1);
    frame_bytes[16] = 0xff; // payloadLen LE bytes 16..19
    frame_bytes[17] = 0xff;
    frame_bytes[18] = 0xff;
    frame_bytes[19] = 0x7f;
    decoder.feed(frame_bytes.data(), frame_bytes.size());
    Frame frame;
    std::string err;
    EXPECT_EQ(decoder.next(&frame, &err),
              FrameDecoder::Result::Malformed);
    EXPECT_TRUE(decoder.poisoned());
}

//----------------------------------------------------------------------
// The admin-plane HTTP parser under mutation.
//----------------------------------------------------------------------

TEST(FuzzHttp, MutatedRequestHeadsNeverCrash)
{
    const std::uint64_t kSeed = 0x4774;
    std::vector<CorpusEntry> corpus = httpCorpus();
    Xorshift64 rng(kSeed);
    std::size_t ok = 0;
    for (int i = 0; i < 4000; ++i) {
        std::vector<std::uint8_t> bytes =
            fuzz::deriveInput(corpus, &rng);
        std::string text(bytes.begin(), bytes.end());
        HttpRequest req;
        HttpParseResult res = parseHttpRequest(text, &req);
        ASSERT_TRUE(res == HttpParseResult::Ok ||
                    res == HttpParseResult::NeedMore ||
                    res == HttpParseResult::Malformed ||
                    res == HttpParseResult::MethodNotAllowed)
            << "seed=" << kSeed << " iteration=" << i;
        if (res == HttpParseResult::Ok) {
            ++ok;
            // A parsed request must uphold the parser's documented
            // strictness: target rooted at '/'.
            ASSERT_FALSE(req.path.empty());
            ASSERT_EQ(req.path[0], '/');
        }
    }
    // Single-byte mutations of a valid head frequently stay valid;
    // if none did, the corpus or parser drifted.
    EXPECT_GT(ok, 0u);
}

} // namespace
} // namespace sap
