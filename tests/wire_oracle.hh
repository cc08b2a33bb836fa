/**
 * @file
 * The wire codec as first written, one byte at a time: every u64 is
 * two u32s, every u32 two u16s, every u16 two bytes, each appended
 * with push_back (and read back the same way). It spells out the
 * little-endian layout of net/protocol.hh with no word loads or
 * stores, which makes it the oracle of the bulk codec's round-trip
 * tests. buildForwardFrame lays out a whole FORWARD frame in one
 * buffer, the bytes the gateway sends as a head and a shared SUBMIT
 * payload.
 */

#ifndef SAP_TESTS_WIRE_ORACLE_HH
#define SAP_TESTS_WIRE_ORACLE_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "mat/dense.hh"
#include "mat/vector.hh"
#include "net/protocol.hh"

namespace sap {
namespace wire_oracle {

/** Byte-at-a-time encoder of the integer, vec and dense layouts. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void
    u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }
    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }
    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        for (char c : s)
            u8(static_cast<std::uint8_t>(c));
    }
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void
    vec(const Vec<Scalar> &v)
    {
        i64(v.size());
        for (Index i = 0; i < v.size(); ++i)
            f64(v[i]);
    }
    void
    dense(const Dense<Scalar> &m)
    {
        i64(m.rows());
        i64(m.cols());
        for (Index r = 0; r < m.rows(); ++r)
            for (Index c = 0; c < m.cols(); ++c)
                f64(m(r, c));
    }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Byte-at-a-time decoder of the same layouts; every read reports
 *  failure instead of walking out of the buffer. */
class ByteReader
{
  public:
    explicit ByteReader(const std::vector<std::uint8_t> &bytes)
        : bytes_(bytes)
    {
    }

    bool
    u8(std::uint8_t *out)
    {
        if (pos_ >= bytes_.size())
            return false;
        *out = bytes_[pos_++];
        return true;
    }
    bool
    u16(std::uint16_t *out)
    {
        std::uint8_t lo, hi;
        if (!u8(&lo) || !u8(&hi))
            return false;
        *out = static_cast<std::uint16_t>(lo |
                                          (static_cast<unsigned>(hi) << 8));
        return true;
    }
    bool
    u32(std::uint32_t *out)
    {
        std::uint16_t lo, hi;
        if (!u16(&lo) || !u16(&hi))
            return false;
        *out = lo | (static_cast<std::uint32_t>(hi) << 16);
        return true;
    }
    bool
    u64(std::uint64_t *out)
    {
        std::uint32_t lo, hi;
        if (!u32(&lo) || !u32(&hi))
            return false;
        *out = lo | (static_cast<std::uint64_t>(hi) << 32);
        return true;
    }
    bool
    f64(double *out)
    {
        std::uint64_t bits;
        if (!u64(&bits))
            return false;
        std::memcpy(out, &bits, sizeof(bits));
        return true;
    }
    /** Elements only: the caller read and checked the length. */
    bool
    vec(Index n, Vec<Scalar> *out)
    {
        Vec<Scalar> v(n);
        for (Index i = 0; i < n; ++i)
            if (!f64(&v[i]))
                return false;
        *out = std::move(v);
        return true;
    }
    /** Elements only: the caller read and checked the shape. */
    bool
    dense(Index rows, Index cols, Dense<Scalar> *out)
    {
        Dense<Scalar> m(rows, cols);
        for (Index r = 0; r < rows; ++r)
            for (Index c = 0; c < cols; ++c)
                if (!f64(&m(r, c)))
                    return false;
        *out = std::move(m);
        return true;
    }

    std::size_t remaining() const { return bytes_.size() - pos_; }

  private:
    const std::vector<std::uint8_t> &bytes_;
    std::size_t pos_ = 0;
};

/**
 * A FORWARD frame in one buffer, byte by byte: header, u64 digest,
 * u8 ctx-present, the trace-context block when @p ctx is valid, then
 * @p submit_payload.
 */
inline std::vector<std::uint8_t>
buildForwardFrame(std::uint64_t tag, Digest digest,
                  const std::vector<std::uint8_t> &submit_payload,
                  const TraceContext *ctx = nullptr)
{
    const bool with_ctx = ctx && ctx->valid();
    ByteWriter w;
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(FrameType::Forward));
    w.u64(tag);
    w.u32(static_cast<std::uint32_t>(
        9 + (with_ctx ? kTraceContextBytes : 0) + submit_payload.size()));
    w.u64(digest);
    w.u8(with_ctx ? 1 : 0);
    if (with_ctx) {
        w.u64(ctx->traceIdHi);
        w.u64(ctx->traceIdLo);
        w.u8(ctx->sampled ? kTraceCtxFlagSampled : 0);
        w.u64(ctx->originNanos);
        w.u8(ctx->attempt);
    }
    std::vector<std::uint8_t> frame = w.bytes();
    frame.insert(frame.end(), submit_payload.begin(),
                 submit_payload.end());
    return frame;
}

} // namespace wire_oracle
} // namespace sap

#endif // SAP_TESTS_WIRE_ORACLE_HH
