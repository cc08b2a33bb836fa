/**
 * @file
 * The versioned, length-prefixed binary wire protocol that carries
 * serving requests to an array cluster and responses back.
 *
 * The hyper-systolic reading of the paper's scheme treats computation
 * as data moving through a fixed communication structure; one level
 * up, a serving installation treats *requests* the same way — a
 * framed stream moving through a network boundary into the array
 * cluster. This file defines that boundary:
 *
 *   frame   := header | payload
 *   header  := magic u32 | version u16 | type u16 | tag u64 | len u32
 *   payload := `len` bytes, layout per frame type
 *
 * All integers are little-endian; Scalars travel as IEEE-754 bit
 * patterns (u64), so integer-valued workloads round-trip bit-exactly
 * and results can be cross-checked against the host oracle.
 *
 * Frame types: SUBMIT (a full ServeRequest: engine name, problem
 * kind, flags, matrices), RESPONSE (the served result), PING (echoed
 * verbatim), ERROR (a human-readable message), and the METRICS,
 * FORWARD and TRACES frames described below. Type 3 is reserved.
 *
 * Still version 1, with in-place evolutions: SUBMIT's crossCheck
 * byte is now a flags byte (bit 0 keeps its old meaning, so old
 * encoders interoperate — see kSubmitFlag*). The METRICS frame
 * (obs/metrics.hh snapshots: counters, gauges with an aggregation
 * byte, sparse log-bucketed histograms) is new in this revision and
 * versioned the same way. FORWARD (the gateway tier's
 * backend hop: a u64 plan digest, a trace-context presence byte plus
 * optional context block, then a complete SUBMIT payload, so a
 * backend reuses the routing digest the gateway already computed
 * instead of re-hashing the matrices) and TRACES (empty payload =
 * "send me your committed trace rings"; non-empty = a ring snapshot,
 * the scatter-gather leg behind the gateway's stitched /tracez) are
 * newest; a pre-gateway server rejects them as unknown frame types —
 * a payload-level error, so mixed-version installations degrade to
 * an explicit ERROR frame, never a desync. Cross-tier tracing rides
 * a compact trace-context block (128-bit trace id, sampled flag,
 * edge-origin monotonic nanos, attempt counter — see
 * encodeTraceContext) carried on FORWARD and, behind SUBMIT flag
 * bit 4, on direct client submissions.
 *
 * The FORWARD digest's algorithm changed in place too: planDigest
 * (serve/fingerprint.hh) now hashes 64-bit words — a matrix over
 * exactly the words its wire encoding carries, so the gateway takes
 * it from the SUBMIT bytes without decoding them — where it used to
 * hash bytes with FNV-1a. The frame layout is unchanged, so the
 * version stays 1. A backend trusts the digest only as a routing and
 * cache-key hint: a gateway and backends built on different sides of
 * the change key the plan cache differently, which costs locality
 * (a matrix may be cached under two digests), never correctness.
 *
 * Type 3 was STATS, a per-(engine, shape) snapshot with reservoir
 * percentiles; it is retired and the number stays reserved. Its
 * per-(engine, kind, mode) breakdown travels in METRICS as labelled
 * series (obs/metrics.hh seriesKey), and the shape stays on each
 * request's trace label. A type-3 frame is now an unknown frame
 * type: a payload-level ERROR on its tag, after which the connection
 * keeps serving, so an old monitoring client fails cleanly instead
 * of desyncing.
 *
 * Robustness contract: decoding is strictly bounds-checked and never
 * trusts a length against fewer bytes than it promises. Errors split
 * into two severities:
 *
 *  - *frame-level* (bad magic, unsupported version, payload length
 *    over the cap): the byte stream cannot be re-synchronized, so
 *    FrameDecoder poisons itself — the server answers with one ERROR
 *    frame and closes that connection;
 *  - *payload-level* (truncated or trailing payload bytes, unknown
 *    problem kind or frame type, zero/negative or oversized
 *    dimensions): framing is intact, so the offending frame yields
 *    an ERROR frame and the connection keeps serving.
 *
 * Neither severity may ever crash, assert, or silently disconnect.
 */

#ifndef SAP_NET_PROTOCOL_HH
#define SAP_NET_PROTOCOL_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "serve/shard.hh"

namespace sap {

/** First four bytes of every frame: "SAP1" read as a LE u32. */
constexpr std::uint32_t kWireMagic = 0x31504153u;

/** Protocol version this build speaks. */
constexpr std::uint16_t kWireVersion = 1;

/**
 * SUBMIT flags byte (what used to be the crossCheck 0/1 byte; old
 * encoders writing 0x00/0x01 decode identically):
 *
 *   bit 0    cross-check against the host oracle
 *   bits 1–2 execution mode (ExecMode value; 3 is rejected)
 *   bit 3    recordTrace — always *rejected* by the decoder, because
 *            RESPONSE frames carry no trace; encoding it (rather
 *            than dropping it client-side) turns a silently-lossy
 *            request into an explicit error
 *   bit 4    a trace-context block (kTraceContextBytes) immediately
 *            follows the flags byte — direct clients opting into
 *            cross-tier tracing (see encodeTraceContext)
 *   bits 5–7 reserved, must be zero
 */
constexpr std::uint8_t kSubmitFlagCrossCheck = 1u << 0;
constexpr unsigned kSubmitModeShift = 1;
constexpr std::uint8_t kSubmitModeMask = 0x3;
constexpr std::uint8_t kSubmitFlagRecordTrace = 1u << 3;
constexpr std::uint8_t kSubmitFlagTraceContext = 1u << 4;
/** Every flag bit a version-1 decoder understands. */
constexpr std::uint8_t kSubmitFlagsKnown =
    kSubmitFlagCrossCheck | (kSubmitModeMask << kSubmitModeShift) |
    kSubmitFlagRecordTrace | kSubmitFlagTraceContext;

/**
 * Encoded size of a TraceContext block: u64 trace id hi, u64 trace
 * id lo, u8 flags (bit 0 = sampled, rest reserved-zero), u64 origin
 * nanos, u8 attempt.
 */
constexpr std::size_t kTraceContextBytes = 26;

/** TraceContext flags byte: bit 0 = sampled; bits 1–7 reserved. */
constexpr std::uint8_t kTraceCtxFlagSampled = 1u << 0;

/** Frame types on the wire (u16). */
enum class FrameType : std::uint16_t
{
    Submit = 1,   ///< client → server: one ServeRequest
    Response = 2, ///< server → client: the served result
    // 3 is reserved: the retired STATS frame (see file comment).
    Ping = 4,     ///< liveness check, echoed verbatim
    Error = 5,    ///< malformed input or unexpected frame
    Metrics = 6,  ///< empty = metrics request; else a merged snapshot
    Forward = 7,  ///< gateway → server: digest-precomputed SUBMIT
    Traces = 8,   ///< empty = trace-ring request; else a snapshot
};

/** Printable frame-type name ("SUBMIT", ... / "type 17"). */
std::string frameTypeName(std::uint16_t type);

/** Fixed-size frame prelude; see the file comment for the layout. */
struct FrameHeader
{
    std::uint32_t magic = kWireMagic;
    std::uint16_t version = kWireVersion;
    std::uint16_t type = 0;
    /** Caller-chosen request id, echoed back in the response. */
    std::uint64_t tag = 0;
    std::uint32_t payloadLen = 0;
};

/** Encoded size of a FrameHeader. */
constexpr std::size_t kFrameHeaderBytes = 20;

/** Default cap on payload bytes a decoder will accept (64 MiB). */
constexpr std::uint32_t kDefaultMaxPayloadBytes = 64u << 20;

/** Cap on matrix/vector dimensions accepted off the wire. */
constexpr Index kMaxWireDim = 1 << 20;

/** Cap on string lengths (engine names, error messages). */
constexpr std::uint32_t kMaxWireString = 1 << 16;

/** A borrowed byte range inside a payload buffer. */
struct WireSpan
{
    const std::uint8_t *data = nullptr;
    std::size_t size = 0;
};

/**
 * Little-endian byte sink: the encode half of the protocol. Also the
 * tool tests use to craft malformed frames.
 *
 * Every integer is one store, and vec()/dense() move a whole Scalar
 * array with one store per element into bytes claimed at once, so a
 * writer reserve()d for its payload (as the frame builders and the
 * SUBMIT and RESPONSE encoders are) allocates once and runs at
 * memory speed (base/byte_order.hh). A sized writer fills a buffer
 * it was handed instead of appending, so a buffer reused from frame
 * to frame is written once per frame and never value-initialized
 * again (buildSubmitFrame into a buffer).
 */
class WireWriter
{
  public:
    /** An appending writer over an empty buffer. */
    WireWriter() = default;
    /**
     * A sized writer: @p buffer, resized to @p n bytes, is filled
     * from its start. Bytes it already holds are overwritten, not
     * value-initialized first; only bytes past its old length (or,
     * when it must reallocate, all @p n) are.
     */
    WireWriter(std::vector<std::uint8_t> buffer, std::size_t n);

    /** Size the buffer for @p n bytes up front (one allocation). */
    void reserve(std::size_t n) { bytes_.reserve(n); }
    /** Append @p n already-encoded bytes verbatim. */
    void raw(const std::uint8_t *data, std::size_t n);
    void u8(std::uint8_t v) { *grow(1) = v; }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** IEEE-754 bit pattern as u64. */
    void f64(double v);
    /** u32 length followed by the raw bytes. */
    void str(const std::string &s);
    /** i64 length followed by the elements as f64. */
    void vec(const Vec<Scalar> &v);
    /** i64 rows, i64 cols, then row-major elements as f64. */
    void dense(const Dense<Scalar> &m);

    /** Bytes written so far. */
    std::size_t size() const { return end_; }
    /** The buffer: the bytes written (for a sized writer, once all
     *  of them are). */
    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    /** The bytes written, handed over. */
    std::vector<std::uint8_t> take()
    {
        bytes_.resize(end_);
        return std::move(bytes_);
    }

  private:
    /** Claim the next @p n bytes; @return where they start. */
    std::uint8_t *grow(std::size_t n);

    std::vector<std::uint8_t> bytes_;
    /** Bytes written: bytes_.size() unless the writer is sized. */
    std::size_t end_ = 0;
};

/**
 * Bounds-checked little-endian reader over a borrowed byte span: the
 * decode half. Every read reports failure instead of walking out of
 * the buffer; compound reads (str/vec/dense) additionally reject
 * negative or over-cap sizes and lengths that promise more bytes
 * than remain. Bounds are checked once per read, so vec() and
 * dense() load their elements one word each, as WireWriter stores
 * them, straight into storage the result adopts: one pass, with no
 * value-initialization before it.
 */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    explicit WireReader(const std::vector<std::uint8_t> &bytes)
        : WireReader(bytes.data(), bytes.size())
    {
    }

    bool u8(std::uint8_t *out);
    bool u16(std::uint16_t *out);
    bool u32(std::uint32_t *out);
    bool u64(std::uint64_t *out);
    bool i64(std::int64_t *out);
    bool f64(double *out);
    bool str(std::string *out);
    bool vec(Vec<Scalar> *out);
    bool dense(Dense<Scalar> *out);
    /** As vec(), but steps over the elements unread: @p out gets the
     *  encoded bytes, length word included. */
    bool vecSpan(WireSpan *out);
    /** As dense(), but steps over the elements unread: @p out gets
     *  the encoded bytes (dims included), @p rows / @p cols the
     *  shape. */
    bool denseSpan(WireSpan *out, Index *rows, Index *cols);

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return size_ - pos_; }

  private:
    /** vec()'s length word, checked against the cap and against the
     *  bytes that remain. */
    bool vecLength(Index *n);
    /** dense()'s dims, checked the same way. */
    bool denseShape(Index *rows, Index *cols);

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** One decoded frame: header plus owned payload bytes. */
struct Frame
{
    FrameHeader header;
    std::vector<std::uint8_t> payload;
};

/**
 * Incremental frame splitter for a TCP byte stream.
 *
 * Bytes reach a frame one of two ways: feed() copies them from the
 * caller's buffer, and a caller that receives straight into the open
 * frame (FramedSocket does, for large payloads) asks payloadRoom()
 * where they go and reports them with commitPayload(). Either way
 * each byte lands once, in its frame's header or payload, and next()
 * hands the payload over without copying it, so a frame costs at
 * most one copy between recv() and its consumer. A payload buffer
 * grows with the bytes that have arrived (at most kGrowthFactor
 * times them, and never past the header's length): a peer that
 * claims megabytes and sends nothing gets nothing allocated.
 *
 * A payload the caller leaves in the Frame it passes to next() is
 * kept, length and all (only the largest such buffer is kept), and
 * the next frame that claims at least half its capacity is received
 * into it. So a connection's stream of large frames reuses memory it
 * has already filled, with no fresh allocation and no zero-fill per
 * frame; a buffer the decoder grows never passes its header's
 * length, and one it reuses stays under twice that.
 *
 * A frame-level violation (bad magic/version, payload length over
 * the cap) poisons the decoder permanently — the stream cannot be
 * re-synchronized: frames completed before it are still delivered,
 * then next() keeps returning Malformed with the same message.
 * Unknown frame *types* are NOT a framing error: the length field
 * still delimits them, so they are delivered for the application
 * layer to reject.
 */
class FrameDecoder
{
  public:
    enum class Result
    {
        Ok,        ///< *out holds a complete frame
        NeedMore,  ///< not enough buffered bytes yet
        Malformed, ///< frame-level violation; decoder is poisoned
    };

    explicit FrameDecoder(
        std::uint32_t max_payload = kDefaultMaxPayloadBytes)
        : max_payload_(max_payload)
    {
    }

    /** Take @p len raw stream bytes. */
    void feed(const std::uint8_t *data, std::size_t len);

    /** Payload bytes the open frame still needs (0 while no frame
     *  is open: between frames, mid-header, or poisoned). */
    std::size_t payloadOwed() const;

    /**
     * Where the open frame's next payload bytes go, for a caller
     * that receives into the payload itself: at least one byte of
     * room is made (growing the buffer as feed() would for bytes
     * that have arrived) and *@p room gets its size, never more than
     * payloadOwed(). @pre payloadOwed() > 0.
     */
    std::uint8_t *payloadRoom(std::size_t *room);

    /** @p n bytes were written at payloadRoom(): they have arrived.
     *  @pre n is at most the room payloadRoom() reported. */
    void commitPayload(std::size_t n);

    /**
     * Move the next complete frame into @p out. Whatever payload
     * @p out held is taken back first, on every result, as the
     * buffer later frames are received into.
     * On Malformed, @p error (optional) receives the reason.
     */
    Result next(Frame *out, std::string *error = nullptr);

    /** True once a frame-level violation was fed. */
    bool poisoned() const { return poisoned_; }

  private:
    /** A payload's capacity stays within this many times the bytes
     *  of it that have arrived (or kFirstPayloadBytes, one read). */
    static constexpr std::size_t kGrowthFactor = 4;
    /** Capacity a payload may take before more of it arrives. */
    static constexpr std::size_t kFirstPayloadBytes = 64u << 10;

    /** Check the header in head_ and open cur_ on it; poisons the
     *  decoder and @return false on a frame-level violation. */
    bool openFrame();
    /** Grow cur_'s payload capacity to what @p arrived bytes allow
     *  (kGrowthFactor times them, at least kFirstPayloadBytes, never
     *  past the claim), moving only the bytes that have arrived.
     *  @return that capacity. */
    std::size_t reservePayload(std::size_t arrived);

    std::uint32_t max_payload_;
    /** Header bytes of the frame being received. */
    std::uint8_t head_[kFrameHeaderBytes] = {};
    std::size_t head_len_ = 0;
    /** The frame being received, once head_ is complete. Its
     *  payload may be longer than the bytes that have arrived: the
     *  rest is room, overwritten as bytes arrive. */
    Frame cur_;
    /** Payload bytes of cur_ that have arrived. */
    std::size_t filled_ = 0;
    /** A consumed payload's buffer, kept for a later frame. */
    std::vector<std::uint8_t> spare_;
    /** Complete frames next() has not handed out yet. */
    std::deque<Frame> ready_;
    bool poisoned_ = false;
    std::string poison_reason_;
};

/**
 * The response payload as it travels on the wire: the subset of
 * ServeResponse a remote client can use. Both result containers are
 * always encoded; the one the problem kind does not produce is
 * empty.
 */
struct WireResponse
{
    bool ok = false;
    std::string error;
    bool cacheHit = false;
    bool crossCheckOk = true;
    /** Service time measured server-side, in microseconds. */
    double latencyMicros = 0;
    /** Simulated array cycles the request consumed. */
    Cycle simCycles = 0;
    Vec<Scalar> y;   ///< MatVec / TriSolve result
    Dense<Scalar> c; ///< MatMul result

    /** Project the wire-visible fields out of a served response.
     *  Pass by value: callers that own the response (the shard
     *  worker answering a SUBMIT) move it in, so result matrices are
     *  not copied. */
    static WireResponse of(ServeResponse resp);
};

//----------------------------------------------------------------------
// Frame builders (header + payload, ready to write to a socket).
//----------------------------------------------------------------------

/** Generic frame around an already-encoded payload. */
std::vector<std::uint8_t> buildFrame(FrameType type, std::uint64_t tag,
                                     const std::vector<std::uint8_t>
                                         &payload);

/** The header of a @p type frame whose @p payload_len payload bytes
 *  are sent after it, from wherever they already are. */
std::vector<std::uint8_t> buildFrameHeader(FrameType type,
                                           std::uint64_t tag,
                                           std::size_t payload_len);

/** SUBMIT carrying @p req (engine, kind, w, flags, operands); the
 *  flags byte packs crossCheck, the execution mode, and recordTrace
 *  (see kSubmitFlag*). */
std::vector<std::uint8_t> buildSubmitFrame(std::uint64_t tag,
                                           const ServeRequest &req);

/** As buildSubmitFrame(tag, req), encoded into *@p frame's buffer
 *  (a sized WireWriter): a client that reuses one buffer per
 *  connection writes each SUBMIT once, with no allocation and no
 *  zero-fill once the buffer has reached the frame's size. */
void buildSubmitFrame(std::uint64_t tag, const ServeRequest &req,
                      std::vector<std::uint8_t> *frame);

/** RESPONSE carrying @p resp. */
std::vector<std::uint8_t> buildResponseFrame(std::uint64_t tag,
                                             const WireResponse &resp);

/** Empty-payload METRICS: "send me a merged metrics snapshot". */
std::vector<std::uint8_t> buildMetricsRequestFrame(std::uint64_t tag);

/** METRICS carrying a merged obs/ snapshot. */
std::vector<std::uint8_t> buildMetricsFrame(std::uint64_t tag,
                                            const MetricsSnapshot
                                                &snap);

/**
 * The head of a FORWARD frame: its header, whose length covers the
 * @p submit_len bytes of SUBMIT payload that follow, and the
 * envelope — the gateway sends these bytes and then the SUBMIT
 * payload it already holds, so the payload is never copied into a
 * FORWARD. @p digest MUST equal planDigest() of the embedded
 * request; it is a cache/routing hint, and correctness never depends
 * on it (the plan cache confirms every digest hit with an exact
 * matrix comparison).
 *
 * Layout: u64 digest | u8 ctx-present (0 or 1) | [trace-context
 * block when 1] | embedded SUBMIT payload. @p ctx (optional) is the
 * gateway's propagated trace context; when present it takes
 * precedence over any context embedded in the SUBMIT payload, so
 * the gateway can stamp the resubmit attempt counter without
 * re-encoding the client's bytes.
 */
std::vector<std::uint8_t>
buildForwardHead(std::uint64_t tag, Digest digest, std::size_t submit_len,
                 const TraceContext *ctx = nullptr);

/** Empty-payload TRACES: "send me your committed trace rings". */
std::vector<std::uint8_t> buildTracesRequestFrame(std::uint64_t tag);

/** TRACES carrying a ring snapshot (see encodeTraces). */
std::vector<std::uint8_t>
buildTracesFrame(std::uint64_t tag,
                 const std::vector<RequestTrace> &traces,
                 std::uint64_t totalCommitted);

/** Empty-payload PING. */
std::vector<std::uint8_t> buildPingFrame(std::uint64_t tag);

/** ERROR carrying @p message. */
std::vector<std::uint8_t> buildErrorFrame(std::uint64_t tag,
                                          const std::string &message);

//----------------------------------------------------------------------
// Payload codecs. Decoders return false and set *error on any
// malformed payload (truncated, trailing bytes, unknown kind,
// zero/negative or over-cap dimensions); they never assert.
//----------------------------------------------------------------------

/**
 * SUBMIT payload from a request. When req.traceContext.valid() the
 * flags byte gets kSubmitFlagTraceContext and the context block is
 * encoded after it.
 */
std::vector<std::uint8_t> encodeSubmit(const ServeRequest &req);

/**
 * A SUBMIT payload validated in place by scanSubmit: the header
 * fields decoded, each operand left as the bytes WireWriter encoded
 * for it (i64 dims, then one f64 word per element). Spans borrow the
 * scanned buffer; operands the problem kind does not carry stay
 * empty.
 */
struct SubmitView
{
    /** The whole SUBMIT payload (inside a FORWARD: the embedded
     *  one, envelope excluded). */
    WireSpan payload;
    std::string engine;
    ProblemKind kind = ProblemKind::MatVec;
    Index w = 0;
    bool crossCheck = false;
    ExecMode mode = ExecMode::Simulate;
    TraceContext traceContext;
    WireSpan a, x, b, bmat, e;
};

/**
 * The one SUBMIT validator: every check decodeSubmit makes, with the
 * same error texts, but no element is read — a multi-megabyte
 * payload scans in the time it takes to read its headers.
 * decodeSubmit and decodeForward are this scan plus a materialiser;
 * the gateway uses the scan alone.
 *
 * @return true and fill @p out (valid while @p payload lives
 *         unmodified), or false with @p error set.
 */
bool scanSubmit(const std::vector<std::uint8_t> &payload,
                SubmitView *out, std::string *error);

/**
 * The FORWARD envelope (u64 plan digest, u8 ctx-present byte,
 * optional trace-context block) plus scanSubmit of the embedded
 * SUBMIT. A FORWARD-level context overrides any context the embedded
 * SUBMIT carries in out->traceContext.
 */
bool scanForward(const std::vector<std::uint8_t> &payload,
                 Digest *digest, SubmitView *out, std::string *error);

/**
 * planDigest (serve/plan_cache.hh) of the request @p view decodes
 * to, hashed straight from the operand bytes: a matrix's digest is
 * defined over exactly the words WireWriter::dense writes, so this
 * equals planDigest(req.engine, req.plan) of the decoded request.
 */
Digest planDigest(const SubmitView &view);

/** @return true and fill @p out, or false with @p error set. */
bool decodeSubmit(const std::vector<std::uint8_t> &payload,
                  ServeRequest *out, std::string *error);

/**
 * FORWARD payload: u64 plan digest, u8 ctx-present byte, optional
 * trace-context block, then the embedded SUBMIT payload (decoded
 * with the same strictness as decodeSubmit). A FORWARD-level
 * context overrides any context the embedded SUBMIT carries in
 * out->traceContext.
 */
bool decodeForward(const std::vector<std::uint8_t> &payload,
                   Digest *digest, ServeRequest *out,
                   std::string *error);

/** Append a TraceContext block (kTraceContextBytes) to @p w. */
void encodeTraceContext(WireWriter &w, const TraceContext &ctx);

/**
 * Read a TraceContext block from @p r. Strict: reserved flag bits
 * and an all-zero trace id are rejected (@p error gets the reason,
 * prefixed with @p what).
 */
bool decodeTraceContext(WireReader &r, TraceContext *out,
                        const char *what, std::string *error);

/**
 * TRACES payload: u64 totalCommitted, u32 trace count, then per
 * trace: u64 requestId, str label, str kind, u8 ok, u8 cacheHit,
 * u8 tier (TraceTier; >1 rejected), u8 ctx-present, optional
 * trace-context block, kTraceStages × u64 stage nanos, u32 event
 * count, then (str name, u64 nanos) per event. A snapshot carries
 * every ring of the answering tier: a backend keeps one per shard
 * worker, so up to workers × TraceConfig::ringCapacity traces.
 */
std::vector<std::uint8_t>
encodeTraces(const std::vector<RequestTrace> &traces,
             std::uint64_t totalCommitted);

/** @copydoc decodeSubmit() */
bool decodeTraces(const std::vector<std::uint8_t> &payload,
                  std::vector<RequestTrace> *out,
                  std::uint64_t *totalCommitted, std::string *error);

/** RESPONSE payload. */
std::vector<std::uint8_t> encodeResponse(const WireResponse &resp);

/** @copydoc decodeSubmit() */
bool decodeResponse(const std::vector<std::uint8_t> &payload,
                    WireResponse *out, std::string *error);

/**
 * METRICS payload: u32 counter count, then (name, u64) records; u32
 * gauge count, then (name, agg u8, f64) records; u32 histogram
 * count, then (name, u64 count, f64 sum/min/max, u32 bucket count,
 * (u32 index, u64 count) pairs) records. Buckets travel sparse —
 * index into the fixed log-bucket table (histBucketUpper), count —
 * so an idle installation's snapshot is a few hundred bytes.
 */
std::vector<std::uint8_t> encodeMetrics(const MetricsSnapshot &snap);

/** @copydoc decodeSubmit() */
bool decodeMetrics(const std::vector<std::uint8_t> &payload,
                   MetricsSnapshot *out, std::string *error);

/** ERROR payload. */
std::vector<std::uint8_t> encodeError(const std::string &message);

/** @copydoc decodeSubmit() */
bool decodeError(const std::vector<std::uint8_t> &payload,
                 std::string *out, std::string *error);

} // namespace sap

#endif // SAP_NET_PROTOCOL_HH
