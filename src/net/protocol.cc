#include "net/protocol.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "base/byte_order.hh"
#include "base/logging.hh"
#include "serve/plan_cache.hh"

namespace sap {

namespace {

/** Set @p error (when non-null) and return false. */
bool
failDecode(std::string *error, const std::string &reason)
{
    if (error)
        *error = reason;
    return false;
}

} // namespace

std::string
frameTypeName(std::uint16_t type)
{
    switch (static_cast<FrameType>(type)) {
    case FrameType::Submit:
        return "SUBMIT";
    case FrameType::Response:
        return "RESPONSE";
    case FrameType::Ping:
        return "PING";
    case FrameType::Error:
        return "ERROR";
    case FrameType::Metrics:
        return "METRICS";
    case FrameType::Forward:
        return "FORWARD";
    case FrameType::Traces:
        return "TRACES";
    }
    return "type " + std::to_string(type);
}

//----------------------------------------------------------------------
// WireWriter
//----------------------------------------------------------------------

namespace {

static_assert(sizeof(Scalar) == sizeof(std::uint64_t),
              "Scalars travel as 64-bit words");

/** @p n Scalars as LE words at @p out: one store per element. */
void
storeScalars(std::uint8_t *out, const Scalar *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i, out += 8) {
        std::uint64_t bits;
        std::memcpy(&bits, v + i, sizeof(bits));
        storeLe64(out, bits);
    }
}

/**
 * The Scalars encoded as LE words from a byte pointer on, as a
 * random-access iterator: a vector built from a pair of them
 * allocates once and loads each element straight into place, with
 * no value-initialization pass before the loads. (A reserve and
 * push_back loop, which checks the capacity per element, took 3.3x
 * as long on BM_WireCodec/decode_submit_512.)
 */
class LeScalars
{
  public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Scalar;
    using difference_type = std::ptrdiff_t;
    using pointer = const Scalar *;
    using reference = Scalar;

    explicit LeScalars(const std::uint8_t *p) : p_(p) {}

    Scalar
    operator*() const
    {
        const std::uint64_t bits = loadLe64(p_);
        Scalar v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }
    Scalar operator[](difference_type i) const { return *(*this + i); }
    LeScalars &
    operator+=(difference_type n)
    {
        p_ += 8 * n;
        return *this;
    }
    LeScalars &operator-=(difference_type n) { return *this += -n; }
    LeScalars &operator++() { return *this += 1; }
    LeScalars &operator--() { return *this -= 1; }
    LeScalars
    operator++(int)
    {
        LeScalars old = *this;
        ++*this;
        return old;
    }
    LeScalars
    operator--(int)
    {
        LeScalars old = *this;
        --*this;
        return old;
    }
    friend LeScalars operator+(LeScalars it, difference_type n)
    {
        return it += n;
    }
    friend LeScalars operator+(difference_type n, LeScalars it)
    {
        return it += n;
    }
    friend LeScalars operator-(LeScalars it, difference_type n)
    {
        return it -= n;
    }
    friend difference_type operator-(LeScalars a, LeScalars b)
    {
        return (a.p_ - b.p_) / 8;
    }
    friend bool operator==(LeScalars a, LeScalars b) { return a.p_ == b.p_; }
    friend bool operator!=(LeScalars a, LeScalars b) { return a.p_ != b.p_; }
    friend bool operator<(LeScalars a, LeScalars b) { return a.p_ < b.p_; }
    friend bool operator>(LeScalars a, LeScalars b) { return b < a; }
    friend bool operator<=(LeScalars a, LeScalars b) { return !(b < a); }
    friend bool operator>=(LeScalars a, LeScalars b) { return !(a < b); }

  private:
    const std::uint8_t *p_;
};

/** The @p n Scalars encoded at @p in, loaded in one pass. */
std::vector<Scalar>
loadScalars(const std::uint8_t *in, std::size_t n)
{
    return std::vector<Scalar>(LeScalars(in), LeScalars(in + 8 * n));
}

/** Encoded size of WireWriter::vec(@p v). */
std::size_t
vecBytes(const Vec<Scalar> &v)
{
    return 8 + 8 * static_cast<std::size_t>(v.size());
}

/** Encoded size of WireWriter::dense(@p m). */
std::size_t
denseBytes(const Dense<Scalar> &m)
{
    return 16 + 8 * static_cast<std::size_t>(m.rows()) *
                    static_cast<std::size_t>(m.cols());
}

/** Encoded size of WireWriter::str(@p s). */
std::size_t
strBytes(const std::string &s)
{
    return 4 + s.size();
}

} // namespace

WireWriter::WireWriter(std::vector<std::uint8_t> buffer, std::size_t n)
    : bytes_(std::move(buffer))
{
    if (bytes_.capacity() < n) {
        // A new allocation either way: nothing held is worth moving.
        bytes_.clear();
        bytes_.reserve(n);
    }
    bytes_.resize(n);
}

std::uint8_t *
WireWriter::grow(std::size_t n)
{
    if (bytes_.size() - end_ < n)
        bytes_.resize(end_ + n);
    std::uint8_t *const at = bytes_.data() + end_;
    end_ += n;
    return at;
}

void
WireWriter::raw(const std::uint8_t *data, std::size_t n)
{
    if (n > 0)
        std::memcpy(grow(n), data, n);
}

void
WireWriter::u16(std::uint16_t v)
{
    storeLe16(grow(2), v);
}

void
WireWriter::u32(std::uint32_t v)
{
    storeLe32(grow(4), v);
}

void
WireWriter::u64(std::uint64_t v)
{
    storeLe64(grow(8), v);
}

void
WireWriter::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
WireWriter::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    raw(reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
}

void
WireWriter::vec(const Vec<Scalar> &v)
{
    i64(v.size());
    const auto n = static_cast<std::size_t>(v.size());
    storeScalars(grow(8 * n), v.elems(), n);
}

void
WireWriter::dense(const Dense<Scalar> &m)
{
    i64(m.rows());
    i64(m.cols());
    const auto n = static_cast<std::size_t>(m.rows()) *
                   static_cast<std::size_t>(m.cols());
    storeScalars(grow(8 * n), m.elems(), n);
}

//----------------------------------------------------------------------
// WireReader
//----------------------------------------------------------------------

bool
WireReader::u8(std::uint8_t *out)
{
    if (remaining() < 1)
        return false;
    *out = data_[pos_++];
    return true;
}

bool
WireReader::u16(std::uint16_t *out)
{
    if (remaining() < 2)
        return false;
    *out = loadLe16(data_ + pos_);
    pos_ += 2;
    return true;
}

bool
WireReader::u32(std::uint32_t *out)
{
    if (remaining() < 4)
        return false;
    *out = loadLe32(data_ + pos_);
    pos_ += 4;
    return true;
}

bool
WireReader::u64(std::uint64_t *out)
{
    if (remaining() < 8)
        return false;
    *out = loadLe64(data_ + pos_);
    pos_ += 8;
    return true;
}

bool
WireReader::i64(std::int64_t *out)
{
    std::uint64_t v;
    if (!u64(&v))
        return false;
    *out = static_cast<std::int64_t>(v);
    return true;
}

bool
WireReader::f64(double *out)
{
    std::uint64_t bits;
    if (!u64(&bits))
        return false;
    std::memcpy(out, &bits, sizeof(bits));
    return true;
}

bool
WireReader::str(std::string *out)
{
    std::uint32_t len;
    if (!u32(&len) || len > kMaxWireString || len > remaining())
        return false;
    out->assign(reinterpret_cast<const char *>(data_ + pos_), len);
    pos_ += len;
    return true;
}

bool
WireReader::vecLength(Index *n)
{
    return i64(n) && *n >= 0 && *n <= kMaxWireDim &&
           static_cast<std::size_t>(*n) <= remaining() / 8;
}

bool
WireReader::vec(Vec<Scalar> *out)
{
    Index n;
    if (!vecLength(&n))
        return false;
    *out = Vec<Scalar>(
        loadScalars(data_ + pos_, static_cast<std::size_t>(n)));
    pos_ += 8 * static_cast<std::size_t>(n);
    return true;
}

bool
WireReader::vecSpan(WireSpan *out)
{
    const std::size_t start = pos_;
    Index n;
    if (!vecLength(&n))
        return false;
    pos_ += 8 * static_cast<std::size_t>(n);
    *out = {data_ + start, pos_ - start};
    return true;
}

bool
WireReader::denseShape(Index *rows, Index *cols)
{
    if (!i64(rows) || !i64(cols))
        return false;
    if (*rows < 0 || *cols < 0 || *rows > kMaxWireDim ||
        *cols > kMaxWireDim)
        return false;
    // rows*cols fits in 64 bits after the per-dimension caps; the
    // remaining() bound rejects lengths the payload cannot back.
    std::uint64_t count = static_cast<std::uint64_t>(*rows) *
                          static_cast<std::uint64_t>(*cols);
    return count <= remaining() / 8;
}

bool
WireReader::dense(Dense<Scalar> *out)
{
    Index rows, cols;
    if (!denseShape(&rows, &cols))
        return false;
    const std::size_t n = static_cast<std::size_t>(rows) *
                          static_cast<std::size_t>(cols);
    *out = Dense<Scalar>(rows, cols, loadScalars(data_ + pos_, n));
    pos_ += 8 * n;
    return true;
}

bool
WireReader::denseSpan(WireSpan *out, Index *rows, Index *cols)
{
    const std::size_t start = pos_;
    if (!denseShape(rows, cols))
        return false;
    pos_ += 8 * static_cast<std::size_t>(*rows) *
            static_cast<std::size_t>(*cols);
    *out = {data_ + start, pos_ - start};
    return true;
}

//----------------------------------------------------------------------
// FrameDecoder
//----------------------------------------------------------------------

void
FrameDecoder::feed(const std::uint8_t *data, std::size_t len)
{
    while (len > 0 && !poisoned_) {
        if (head_len_ < kFrameHeaderBytes) {
            const std::size_t take =
                std::min(len, kFrameHeaderBytes - head_len_);
            std::memcpy(head_ + head_len_, data, take);
            head_len_ += take;
            data += take;
            len -= take;
            if (head_len_ == kFrameHeaderBytes)
                openFrame();
            continue;
        }
        const std::size_t take = std::min(len, payloadOwed());
        std::vector<std::uint8_t> &payload = cur_.payload;
        if (payload.size() - filled_ >= take) {
            // A kept buffer's room: overwritten in place.
            std::memcpy(payload.data() + filled_, data, take);
        } else {
            // Appended, so no byte is value-initialized first.
            payload.resize(filled_);
            reservePayload(filled_ + take);
            payload.insert(payload.end(), data, data + take);
        }
        data += take;
        len -= take;
        commitPayload(take);
    }
}

std::size_t
FrameDecoder::payloadOwed() const
{
    return !poisoned_ && head_len_ == kFrameHeaderBytes
               ? cur_.header.payloadLen - filled_
               : 0;
}

std::uint8_t *
FrameDecoder::payloadRoom(std::size_t *room)
{
    SAP_ASSERT(payloadOwed() > 0, "no payload is owed");
    std::vector<std::uint8_t> &payload = cur_.payload;
    if (payload.size() == filled_)
        // recv() writes into the payload's length, so the new room is
        // value-initialized: once in this buffer's life, as a buffer
        // kept for a later frame keeps its length.
        payload.resize(reservePayload(filled_));
    *room = payload.size() - filled_;
    return payload.data() + filled_;
}

void
FrameDecoder::commitPayload(std::size_t n)
{
    SAP_ASSERT(n <= cur_.payload.size() - filled_, n,
               " bytes committed past the payload's room");
    filled_ += n;
    if (filled_ < cur_.header.payloadLen)
        return;
    ready_.push_back(std::move(cur_));
    cur_ = Frame();
    filled_ = 0;
    head_len_ = 0;
}

std::size_t
FrameDecoder::reservePayload(std::size_t arrived)
{
    std::vector<std::uint8_t> &payload = cur_.payload;
    const std::size_t limit = std::min<std::size_t>(
        cur_.header.payloadLen,
        std::max({payload.capacity(), kFirstPayloadBytes,
                  kGrowthFactor * arrived}));
    if (limit > payload.capacity()) {
        payload.resize(filled_); // only the bytes that arrived move
        payload.reserve(limit);
    }
    return limit;
}

bool
FrameDecoder::openFrame()
{
    FrameHeader h;
    h.magic = loadLe32(head_);
    h.version = loadLe16(head_ + 4);
    h.type = loadLe16(head_ + 6);
    h.tag = loadLe64(head_ + 8);
    h.payloadLen = loadLe32(head_ + 16);

    if (h.magic != kWireMagic)
        poison_reason_ = "bad magic 0x" + [&] {
            char hex[16];
            std::snprintf(hex, sizeof(hex), "%08x", h.magic);
            return std::string(hex);
        }();
    else if (h.version != kWireVersion)
        poison_reason_ = "unsupported protocol version " +
                         std::to_string(h.version) + " (speaking " +
                         std::to_string(kWireVersion) + ")";
    else if (h.payloadLen > max_payload_)
        poison_reason_ = "payload length " +
                         std::to_string(h.payloadLen) +
                         " exceeds the " +
                         std::to_string(max_payload_) + "-byte cap";
    if (!poison_reason_.empty()) {
        poisoned_ = true;
        cur_ = Frame();
        return false;
    }
    cur_.header = h;
    // A kept buffer receives a frame that claims at least half its
    // capacity; a smaller frame (a PING, say) leaves it for a later
    // one. Its length, cut to the claim, is room to overwrite.
    if (spare_.capacity() / 2 <= h.payloadLen) {
        cur_.payload.swap(spare_);
        if (cur_.payload.size() > h.payloadLen)
            cur_.payload.resize(h.payloadLen);
    }
    commitPayload(0); // an empty payload is complete already
    return true;
}

FrameDecoder::Result
FrameDecoder::next(Frame *out, std::string *error)
{
    if (out->payload.capacity() > spare_.capacity())
        spare_ = std::move(out->payload);
    out->payload = std::vector<std::uint8_t>();
    if (!ready_.empty()) {
        *out = std::move(ready_.front());
        ready_.pop_front();
        return Result::Ok;
    }
    if (poisoned_) {
        if (error)
            *error = poison_reason_;
        return Result::Malformed;
    }
    return Result::NeedMore;
}

//----------------------------------------------------------------------
// Frame builders
//----------------------------------------------------------------------

namespace {

/** Write the header of a @p type frame with @p payload_len payload
 *  bytes. */
void
writeHeader(WireWriter &w, FrameType type, std::uint64_t tag,
            std::size_t payload_len)
{
    // The len field is u32; silently wrapping would emit a corrupt
    // frame, so an over-large payload is a caller bug.
    SAP_ASSERT(payload_len <= 0xFFFFFFFFu, "frame payload of ",
               payload_len, " bytes exceeds the u32 length field");
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(type));
    w.u64(tag);
    w.u32(static_cast<std::uint32_t>(payload_len));
}

/** An appending writer reserved for @p frame_len bytes, its header
 *  (announcing @p payload_len payload bytes) already written. */
WireWriter
frameWriter(FrameType type, std::uint64_t tag, std::size_t payload_len,
            std::size_t frame_len)
{
    WireWriter w;
    w.reserve(frame_len);
    writeHeader(w, type, tag, payload_len);
    return w;
}

} // namespace

std::vector<std::uint8_t>
buildFrame(FrameType type, std::uint64_t tag,
           const std::vector<std::uint8_t> &payload)
{
    WireWriter w = frameWriter(type, tag, payload.size(),
                               kFrameHeaderBytes + payload.size());
    w.raw(payload.data(), payload.size());
    return w.take();
}

std::vector<std::uint8_t>
buildFrameHeader(FrameType type, std::uint64_t tag,
                 std::size_t payload_len)
{
    return frameWriter(type, tag, payload_len, kFrameHeaderBytes).take();
}

namespace {

std::size_t submitBytes(const ServeRequest &req);
void writeSubmit(WireWriter &w, const ServeRequest &req);
std::size_t responseBytes(const WireResponse &resp);
void writeResponse(WireWriter &w, const WireResponse &resp);

/** A frame of @p type encoded into *@p frame's buffer by a sized
 *  writer, its payload (which @p write puts straight behind the
 *  header) encoded once, into the frame. */
template <typename Write>
void
buildSized(std::vector<std::uint8_t> *frame, FrameType type,
           std::uint64_t tag, std::size_t payload_len, Write &&write)
{
    WireWriter w(std::move(*frame), kFrameHeaderBytes + payload_len);
    writeHeader(w, type, tag, payload_len);
    write(w);
    SAP_ASSERT(w.size() == kFrameHeaderBytes + payload_len,
               frameTypeName(static_cast<std::uint16_t>(type)),
               " payload encoded to ", w.size() - kFrameHeaderBytes,
               " bytes, sized ", payload_len);
    *frame = w.take();
}

} // namespace

void
buildSubmitFrame(std::uint64_t tag, const ServeRequest &req,
                 std::vector<std::uint8_t> *frame)
{
    buildSized(frame, FrameType::Submit, tag, submitBytes(req),
               [&](WireWriter &w) { writeSubmit(w, req); });
}

std::vector<std::uint8_t>
buildSubmitFrame(std::uint64_t tag, const ServeRequest &req)
{
    std::vector<std::uint8_t> frame;
    buildSubmitFrame(tag, req, &frame);
    return frame;
}

std::vector<std::uint8_t>
buildResponseFrame(std::uint64_t tag, const WireResponse &resp)
{
    std::vector<std::uint8_t> frame;
    buildSized(&frame, FrameType::Response, tag, responseBytes(resp),
               [&](WireWriter &w) { writeResponse(w, resp); });
    return frame;
}

std::vector<std::uint8_t>
buildMetricsRequestFrame(std::uint64_t tag)
{
    return buildFrame(FrameType::Metrics, tag, {});
}

std::vector<std::uint8_t>
buildMetricsFrame(std::uint64_t tag, const MetricsSnapshot &snap)
{
    return buildFrame(FrameType::Metrics, tag, encodeMetrics(snap));
}

std::vector<std::uint8_t>
buildForwardHead(std::uint64_t tag, Digest digest, std::size_t submit_len,
                 const TraceContext *ctx)
{
    const bool with_ctx = ctx && ctx->valid();
    const std::size_t envelope = 9 + (with_ctx ? kTraceContextBytes : 0);
    WireWriter w = frameWriter(FrameType::Forward, tag,
                               envelope + submit_len,
                               kFrameHeaderBytes + envelope);
    w.u64(digest);
    w.u8(with_ctx ? 1 : 0);
    if (with_ctx)
        encodeTraceContext(w, *ctx);
    return w.take();
}

std::vector<std::uint8_t>
buildTracesRequestFrame(std::uint64_t tag)
{
    return buildFrame(FrameType::Traces, tag, {});
}

std::vector<std::uint8_t>
buildTracesFrame(std::uint64_t tag,
                 const std::vector<RequestTrace> &traces,
                 std::uint64_t totalCommitted)
{
    return buildFrame(FrameType::Traces, tag,
                      encodeTraces(traces, totalCommitted));
}

std::vector<std::uint8_t>
buildPingFrame(std::uint64_t tag)
{
    return buildFrame(FrameType::Ping, tag, {});
}

std::vector<std::uint8_t>
buildErrorFrame(std::uint64_t tag, const std::string &message)
{
    return buildFrame(FrameType::Error, tag, encodeError(message));
}

//----------------------------------------------------------------------
// Trace-context block
//----------------------------------------------------------------------

void
encodeTraceContext(WireWriter &w, const TraceContext &ctx)
{
    w.u64(ctx.traceIdHi);
    w.u64(ctx.traceIdLo);
    w.u8(ctx.sampled ? kTraceCtxFlagSampled : 0);
    w.u64(ctx.originNanos);
    w.u8(ctx.attempt);
}

bool
decodeTraceContext(WireReader &r, TraceContext *out, const char *what,
                   std::string *error)
{
    TraceContext ctx;
    std::uint8_t flags;
    if (!r.u64(&ctx.traceIdHi) || !r.u64(&ctx.traceIdLo) ||
        !r.u8(&flags) || !r.u64(&ctx.originNanos) ||
        !r.u8(&ctx.attempt))
        return failDecode(error, std::string("truncated ") + what +
                                     ": trace context");
    if ((flags & ~kTraceCtxFlagSampled) != 0)
        return failDecode(error,
                          std::string("reserved trace-context flag "
                                      "bits set in ") +
                              what);
    ctx.sampled = (flags & kTraceCtxFlagSampled) != 0;
    if (!ctx.valid())
        return failDecode(error, std::string("all-zero trace id in ") +
                                     what);
    *out = ctx;
    return true;
}

//----------------------------------------------------------------------
// SUBMIT payload
//----------------------------------------------------------------------

namespace {

/** Encoded size of @p req's SUBMIT payload. */
std::size_t
submitBytes(const ServeRequest &req)
{
    std::size_t n = strBytes(req.engine) + 1 + 8 + 1;
    if (req.traceContext.valid())
        n += kTraceContextBytes;
    const EnginePlan &p = req.plan;
    switch (p.kind) {
    case ProblemKind::MatVec:
        return n + denseBytes(p.a) + vecBytes(p.x) + vecBytes(p.b);
    case ProblemKind::MatMul:
        return n + denseBytes(p.a) + denseBytes(p.bmat) +
               denseBytes(p.e);
    case ProblemKind::TriSolve:
        return n + denseBytes(p.a) + vecBytes(p.b);
    }
    return n;
}

void
writeSubmit(WireWriter &w, const ServeRequest &req)
{
    w.str(req.engine);
    w.u8(static_cast<std::uint8_t>(req.plan.kind));
    w.i64(req.plan.w);
    // Flags byte. recordTrace is encoded even though no RESPONSE
    // frame could carry the trace back: the server rejects the bit
    // with a clear error instead of silently dropping the data a
    // client asked for.
    std::uint8_t flags = 0;
    if (req.crossCheck)
        flags |= kSubmitFlagCrossCheck;
    flags |= static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(req.plan.mode) << kSubmitModeShift);
    if (req.plan.recordTrace)
        flags |= kSubmitFlagRecordTrace;
    if (req.traceContext.valid())
        flags |= kSubmitFlagTraceContext;
    w.u8(flags);
    if (req.traceContext.valid())
        encodeTraceContext(w, req.traceContext);
    switch (req.plan.kind) {
    case ProblemKind::MatVec:
        w.dense(req.plan.a);
        w.vec(req.plan.x);
        w.vec(req.plan.b);
        break;
    case ProblemKind::MatMul:
        w.dense(req.plan.a);
        w.dense(req.plan.bmat);
        w.dense(req.plan.e);
        break;
    case ProblemKind::TriSolve:
        w.dense(req.plan.a);
        w.vec(req.plan.b);
        break;
    }
}

} // namespace

std::vector<std::uint8_t>
encodeSubmit(const ServeRequest &req)
{
    WireWriter w;
    w.reserve(submitBytes(req));
    writeSubmit(w, req);
    return w.take();
}

namespace {

/** scanSubmit over a raw span, so FORWARD can scan its embedded
 *  SUBMIT payload in place. */
bool
scanSubmitSpan(const std::uint8_t *data, std::size_t size,
               SubmitView *out, std::string *error)
{
    WireReader r(data, size);
    SubmitView v;
    v.payload = {data, size};
    if (!r.str(&v.engine))
        return failDecode(error, "truncated SUBMIT: engine name");
    std::uint8_t kind_byte;
    if (!r.u8(&kind_byte))
        return failDecode(error, "truncated SUBMIT: problem kind");
    if (kind_byte > static_cast<std::uint8_t>(ProblemKind::TriSolve))
        return failDecode(error, "unknown problem kind " +
                                     std::to_string(kind_byte));
    v.kind = static_cast<ProblemKind>(kind_byte);
    if (!r.i64(&v.w))
        return failDecode(error, "truncated SUBMIT: array size");
    if (v.w < 1 || v.w > kMaxWireDim)
        return failDecode(error, "array size w=" + std::to_string(v.w) +
                                     " out of range");
    std::uint8_t flags;
    if (!r.u8(&flags))
        return failDecode(error, "truncated SUBMIT: flags");
    v.crossCheck = (flags & kSubmitFlagCrossCheck) != 0;
    const std::uint8_t mode_bits =
        (flags >> kSubmitModeShift) & kSubmitModeMask;
    if (mode_bits > static_cast<std::uint8_t>(ExecMode::Validate))
        return failDecode(error, "unknown execution mode " +
                                     std::to_string(mode_bits));
    v.mode = static_cast<ExecMode>(mode_bits);
    if ((flags & kSubmitFlagRecordTrace) != 0)
        return failDecode(error,
                          "SUBMIT requests recordTrace, but RESPONSE "
                          "frames carry no trace");
    if ((flags & ~kSubmitFlagsKnown) != 0)
        return failDecode(error, "reserved SUBMIT flag bits set");
    if ((flags & kSubmitFlagTraceContext) != 0 &&
        !decodeTraceContext(r, &v.traceContext, "SUBMIT", error))
        return false;

    Index rows, cols;
    if (!r.denseSpan(&v.a, &rows, &cols))
        return failDecode(error, "truncated SUBMIT: matrix A");
    if (rows == 0 || cols == 0)
        return failDecode(error, "zero-dimension matrix A (" +
                                     std::to_string(rows) + "x" +
                                     std::to_string(cols) + ")");
    switch (v.kind) {
    case ProblemKind::MatVec:
        if (!r.vecSpan(&v.x))
            return failDecode(error, "truncated SUBMIT: vector x");
        if (!r.vecSpan(&v.b))
            return failDecode(error, "truncated SUBMIT: vector b");
        break;
    case ProblemKind::MatMul:
        if (!r.denseSpan(&v.bmat, &rows, &cols))
            return failDecode(error, "truncated SUBMIT: matrix B");
        if (rows == 0 || cols == 0)
            return failDecode(error, "zero-dimension matrix B");
        if (!r.denseSpan(&v.e, &rows, &cols))
            return failDecode(error, "truncated SUBMIT: matrix E");
        break;
    case ProblemKind::TriSolve:
        if (!r.vecSpan(&v.b))
            return failDecode(error, "truncated SUBMIT: vector b");
        break;
    }
    if (r.remaining() != 0)
        return failDecode(error,
                          std::to_string(r.remaining()) +
                              " trailing bytes after SUBMIT payload");
    *out = std::move(v);
    return true;
}

/** Decode the elements of a span scanSubmit validated. */
template <typename T>
void
readSpan(const WireSpan &span, bool (WireReader::*read)(T *), T *out)
{
    WireReader r(span.data, span.size);
    const bool ok = (r.*read)(out) && r.remaining() == 0;
    SAP_ASSERT(ok, "a scanned SUBMIT operand failed to decode");
}

/** The ServeRequest a scanned SUBMIT carries. */
ServeRequest
materialise(const SubmitView &v)
{
    ServeRequest req;
    req.engine = v.engine;
    req.crossCheck = v.crossCheck;
    req.traceContext = v.traceContext;
    req.plan.kind = v.kind;
    req.plan.w = v.w;
    req.plan.mode = v.mode;
    readSpan(v.a, &WireReader::dense, &req.plan.a);
    switch (v.kind) {
    case ProblemKind::MatVec:
        readSpan(v.x, &WireReader::vec, &req.plan.x);
        readSpan(v.b, &WireReader::vec, &req.plan.b);
        break;
    case ProblemKind::MatMul:
        readSpan(v.bmat, &WireReader::dense, &req.plan.bmat);
        readSpan(v.e, &WireReader::dense, &req.plan.e);
        break;
    case ProblemKind::TriSolve:
        readSpan(v.b, &WireReader::vec, &req.plan.b);
        break;
    }
    return req;
}

} // namespace

bool
scanSubmit(const std::vector<std::uint8_t> &payload, SubmitView *out,
           std::string *error)
{
    return scanSubmitSpan(payload.data(), payload.size(), out, error);
}

bool
scanForward(const std::vector<std::uint8_t> &payload, Digest *digest,
            SubmitView *out, std::string *error)
{
    WireReader r(payload);
    std::uint64_t d;
    if (!r.u64(&d))
        return failDecode(error, "truncated FORWARD: digest");
    std::uint8_t ctx_present;
    if (!r.u8(&ctx_present))
        return failDecode(error,
                          "truncated FORWARD: trace-context marker");
    if (ctx_present > 1)
        return failDecode(error, "bad FORWARD trace-context marker " +
                                     std::to_string(ctx_present));
    TraceContext ctx;
    if (ctx_present == 1 &&
        !decodeTraceContext(r, &ctx, "FORWARD", error))
        return false;
    SubmitView v;
    if (!scanSubmitSpan(payload.data() + (payload.size() -
                                          r.remaining()),
                        r.remaining(), &v, error))
        return false;
    // The gateway's FORWARD-level context wins over any context the
    // client embedded in the SUBMIT (the gateway owns the attempt
    // counter).
    if (ctx_present == 1)
        v.traceContext = ctx;
    *digest = d;
    *out = std::move(v);
    return true;
}

Digest
planDigest(const SubmitView &view)
{
    // Each bound operand's span is the word sequence its digest is
    // defined over (serve/fingerprint.hh): rows, cols, elements.
    auto digestOf = [](const WireSpan &span) {
        return fingerprintWords(span.data, span.size / 8);
    };
    return combinePlanDigest(view.engine, view.kind, view.w,
                             digestOf(view.a),
                             view.kind == ProblemKind::MatMul
                                 ? digestOf(view.bmat)
                                 : 0);
}

bool
decodeSubmit(const std::vector<std::uint8_t> &payload,
             ServeRequest *out, std::string *error)
{
    SubmitView view;
    if (!scanSubmit(payload, &view, error))
        return false;
    *out = materialise(view);
    return true;
}

bool
decodeForward(const std::vector<std::uint8_t> &payload, Digest *digest,
              ServeRequest *out, std::string *error)
{
    SubmitView view;
    if (!scanForward(payload, digest, &view, error))
        return false;
    *out = materialise(view);
    return true;
}

//----------------------------------------------------------------------
// TRACES payload
//----------------------------------------------------------------------

std::vector<std::uint8_t>
encodeTraces(const std::vector<RequestTrace> &traces,
             std::uint64_t totalCommitted)
{
    WireWriter w;
    w.u64(totalCommitted);
    w.u32(static_cast<std::uint32_t>(traces.size()));
    for (const RequestTrace &t : traces) {
        w.u64(t.requestId);
        w.str(t.label);
        w.str(t.kind);
        w.u8(t.ok ? 1 : 0);
        w.u8(t.cacheHit ? 1 : 0);
        w.u8(static_cast<std::uint8_t>(t.tier));
        if (t.ctx.valid()) {
            w.u8(1);
            encodeTraceContext(w, t.ctx);
        } else {
            w.u8(0);
        }
        for (std::size_t i = 0; i < kTraceStages; ++i)
            w.u64(t.stageNanos[i]);
        w.u32(static_cast<std::uint32_t>(t.events.size()));
        for (const TracePoint &e : t.events) {
            w.str(e.name);
            w.u64(e.nanos);
        }
    }
    return w.take();
}

bool
decodeTraces(const std::vector<std::uint8_t> &payload,
             std::vector<RequestTrace> *out,
             std::uint64_t *totalCommitted, std::string *error)
{
    WireReader r(payload);
    std::uint64_t total;
    std::uint32_t count;
    if (!r.u64(&total) || !r.u32(&count))
        return failDecode(error, "truncated TRACES payload");
    // Each trace record is at least 8+4+4+4+1+64+4 = 89 bytes (empty
    // strings, no context, no events); /88 stays conservative.
    if (count > r.remaining() / 88)
        return failDecode(error, "TRACES count " +
                                     std::to_string(count) +
                                     " exceeds payload");
    std::vector<RequestTrace> traces;
    traces.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        RequestTrace t;
        std::uint8_t ok_byte, hit_byte, tier_byte, ctx_present;
        if (!r.u64(&t.requestId) || !r.str(&t.label) ||
            !r.str(&t.kind) || !r.u8(&ok_byte) || !r.u8(&hit_byte) ||
            !r.u8(&tier_byte) || !r.u8(&ctx_present))
            return failDecode(error, "truncated TRACES record " +
                                         std::to_string(i));
        if (tier_byte >
            static_cast<std::uint8_t>(TraceTier::Gateway))
            return failDecode(error, "unknown trace tier " +
                                         std::to_string(tier_byte) +
                                         " in TRACES record");
        t.tier = static_cast<TraceTier>(tier_byte);
        if (ctx_present > 1)
            return failDecode(error,
                              "bad TRACES trace-context marker " +
                                  std::to_string(ctx_present));
        if (ctx_present == 1 &&
            !decodeTraceContext(r, &t.ctx, "TRACES", error))
            return false;
        t.ok = ok_byte != 0;
        t.cacheHit = hit_byte != 0;
        for (std::size_t s = 0; s < kTraceStages; ++s)
            if (!r.u64(&t.stageNanos[s]))
                return failDecode(error, "truncated TRACES record " +
                                             std::to_string(i) +
                                             ": stage nanos");
        std::uint32_t event_count;
        if (!r.u32(&event_count))
            return failDecode(error, "truncated TRACES record " +
                                         std::to_string(i) +
                                         ": event count");
        // Each event is at least 12 bytes (empty name + u64 nanos).
        if (event_count > r.remaining() / 12)
            return failDecode(error, "TRACES event count " +
                                         std::to_string(event_count) +
                                         " exceeds payload");
        t.events.reserve(event_count);
        for (std::uint32_t e = 0; e < event_count; ++e) {
            TracePoint ev;
            if (!r.str(&ev.name) || !r.u64(&ev.nanos))
                return failDecode(error, "truncated TRACES event " +
                                             std::to_string(e));
            t.events.push_back(std::move(ev));
        }
        traces.push_back(std::move(t));
    }
    if (r.remaining() != 0)
        return failDecode(error,
                          "trailing bytes after TRACES payload");
    *out = std::move(traces);
    *totalCommitted = total;
    return true;
}

//----------------------------------------------------------------------
// RESPONSE payload
//----------------------------------------------------------------------

WireResponse
WireResponse::of(ServeResponse resp)
{
    WireResponse wire;
    wire.ok = resp.ok;
    wire.error = std::move(resp.error);
    wire.cacheHit = resp.cacheHit;
    wire.crossCheckOk = resp.crossCheckOk;
    wire.latencyMicros = resp.latencyMicros;
    wire.simCycles = resp.result.stats.cycles;
    wire.y = std::move(resp.result.y);
    wire.c = std::move(resp.result.c);
    return wire;
}

namespace {

/** Encoded size of @p resp's RESPONSE payload. */
std::size_t
responseBytes(const WireResponse &resp)
{
    return 1 + strBytes(resp.error) + 1 + 1 + 8 + 8 + vecBytes(resp.y) +
           denseBytes(resp.c);
}

void
writeResponse(WireWriter &w, const WireResponse &resp)
{
    w.u8(resp.ok ? 1 : 0);
    w.str(resp.error);
    w.u8(resp.cacheHit ? 1 : 0);
    w.u8(resp.crossCheckOk ? 1 : 0);
    w.f64(resp.latencyMicros);
    w.i64(resp.simCycles);
    w.vec(resp.y);
    w.dense(resp.c);
}

} // namespace

std::vector<std::uint8_t>
encodeResponse(const WireResponse &resp)
{
    WireWriter w;
    w.reserve(responseBytes(resp));
    writeResponse(w, resp);
    return w.take();
}

bool
decodeResponse(const std::vector<std::uint8_t> &payload,
               WireResponse *out, std::string *error)
{
    WireReader r(payload);
    WireResponse resp;
    std::uint8_t ok, hit, cross;
    if (!r.u8(&ok) || !r.str(&resp.error) || !r.u8(&hit) ||
        !r.u8(&cross) || !r.f64(&resp.latencyMicros) ||
        !r.i64(&resp.simCycles) || !r.vec(&resp.y) ||
        !r.dense(&resp.c))
        return failDecode(error, "truncated RESPONSE payload");
    if (r.remaining() != 0)
        return failDecode(error,
                          "trailing bytes after RESPONSE payload");
    resp.ok = ok != 0;
    resp.cacheHit = hit != 0;
    resp.crossCheckOk = cross != 0;
    *out = std::move(resp);
    return true;
}

//----------------------------------------------------------------------
// METRICS payload
//----------------------------------------------------------------------

std::vector<std::uint8_t>
encodeMetrics(const MetricsSnapshot &snap)
{
    WireWriter w;
    w.u32(static_cast<std::uint32_t>(snap.counters.size()));
    for (const auto &[name, v] : snap.counters) {
        w.str(name);
        w.u64(v);
    }
    w.u32(static_cast<std::uint32_t>(snap.gauges.size()));
    for (const auto &[name, gv] : snap.gauges) {
        w.str(name);
        w.u8(static_cast<std::uint8_t>(gv.agg));
        w.f64(gv.value);
    }
    w.u32(static_cast<std::uint32_t>(snap.histograms.size()));
    for (const auto &[name, h] : snap.histograms) {
        w.str(name);
        w.u64(h.count);
        w.f64(h.sum);
        w.f64(h.min);
        w.f64(h.max);
        w.u32(static_cast<std::uint32_t>(h.bucketIndex.size()));
        for (std::size_t i = 0; i < h.bucketIndex.size(); ++i) {
            w.u32(h.bucketIndex[i]);
            w.u64(h.bucketCount[i]);
        }
    }
    return w.take();
}

bool
decodeMetrics(const std::vector<std::uint8_t> &payload,
              MetricsSnapshot *out, std::string *error)
{
    WireReader r(payload);
    MetricsSnapshot snap;
    std::uint32_t counter_count;
    if (!r.u32(&counter_count))
        return failDecode(error, "truncated METRICS payload");
    // Each counter record is at least 12 bytes (empty name).
    if (counter_count > r.remaining() / 12)
        return failDecode(error, "METRICS counter count " +
                                     std::to_string(counter_count) +
                                     " exceeds payload");
    for (std::uint32_t i = 0; i < counter_count; ++i) {
        std::string name;
        std::uint64_t v;
        if (!r.str(&name) || !r.u64(&v))
            return failDecode(error, "truncated METRICS counter " +
                                         std::to_string(i));
        snap.counters[std::move(name)] = v;
    }
    std::uint32_t gauge_count;
    if (!r.u32(&gauge_count))
        return failDecode(error, "truncated METRICS payload");
    if (gauge_count > r.remaining() / 13)
        return failDecode(error, "METRICS gauge count " +
                                     std::to_string(gauge_count) +
                                     " exceeds payload");
    for (std::uint32_t i = 0; i < gauge_count; ++i) {
        std::string name;
        std::uint8_t agg_byte;
        GaugeValue gv;
        if (!r.str(&name) || !r.u8(&agg_byte) || !r.f64(&gv.value))
            return failDecode(error, "truncated METRICS gauge " +
                                         std::to_string(i));
        if (agg_byte > static_cast<std::uint8_t>(GaugeAgg::Max))
            return failDecode(error,
                              "unknown gauge aggregation " +
                                  std::to_string(agg_byte) +
                                  " in METRICS payload");
        gv.agg = static_cast<GaugeAgg>(agg_byte);
        snap.gauges[std::move(name)] = gv;
    }
    std::uint32_t hist_count;
    if (!r.u32(&hist_count))
        return failDecode(error, "truncated METRICS payload");
    // Prelude alone is 36 bytes per histogram.
    if (hist_count > r.remaining() / 36)
        return failDecode(error, "METRICS histogram count " +
                                     std::to_string(hist_count) +
                                     " exceeds payload");
    for (std::uint32_t i = 0; i < hist_count; ++i) {
        std::string name;
        HistogramSnapshot h;
        std::uint32_t buckets;
        if (!r.str(&name) || !r.u64(&h.count) || !r.f64(&h.sum) ||
            !r.f64(&h.min) || !r.f64(&h.max) || !r.u32(&buckets))
            return failDecode(error, "truncated METRICS histogram " +
                                         std::to_string(i));
        if (buckets > r.remaining() / 12 || buckets > kHistBuckets)
            return failDecode(error,
                              "METRICS bucket count " +
                                  std::to_string(buckets) +
                                  " exceeds payload");
        std::uint64_t total = 0;
        std::uint32_t prev_index = 0;
        h.bucketIndex.reserve(buckets);
        h.bucketCount.reserve(buckets);
        for (std::uint32_t b = 0; b < buckets; ++b) {
            std::uint32_t index;
            std::uint64_t count;
            if (!r.u32(&index) || !r.u64(&count))
                return failDecode(error,
                                  "truncated METRICS histogram " +
                                      std::to_string(i));
            // Indices must be strictly ascending and in-table, so a
            // decoded snapshot merges and renders correctly.
            if (index >= kHistBuckets ||
                (b > 0 && index <= prev_index))
                return failDecode(
                    error, "bad METRICS bucket index " +
                               std::to_string(index));
            prev_index = index;
            h.bucketIndex.push_back(index);
            h.bucketCount.push_back(count);
            total += count;
        }
        if (total != h.count)
            return failDecode(error,
                              "METRICS histogram bucket sum " +
                                  std::to_string(total) +
                                  " != count " +
                                  std::to_string(h.count));
        snap.histograms[std::move(name)] = std::move(h);
    }
    if (r.remaining() != 0)
        return failDecode(error,
                          "trailing bytes after METRICS payload");
    *out = std::move(snap);
    return true;
}

//----------------------------------------------------------------------
// ERROR payload
//----------------------------------------------------------------------

std::vector<std::uint8_t>
encodeError(const std::string &message)
{
    WireWriter w;
    // Cap defensively: the decode side rejects over-long strings.
    w.str(message.size() > kMaxWireString
              ? message.substr(0, kMaxWireString)
              : message);
    return w.take();
}

bool
decodeError(const std::vector<std::uint8_t> &payload, std::string *out,
            std::string *error)
{
    WireReader r(payload);
    if (!r.str(out))
        return failDecode(error, "truncated ERROR payload");
    if (r.remaining() != 0)
        return failDecode(error, "trailing bytes after ERROR payload");
    return true;
}

} // namespace sap
