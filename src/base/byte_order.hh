/**
 * @file
 * Little-endian words in byte buffers: the byte order of the wire
 * protocol (net/protocol.hh) and of the plan digests taken from its
 * bytes (serve/fingerprint.hh), whatever the host's.
 *
 * Each load and store is written as shifts of single bytes, which
 * compilers fold into one plain load or store where the host is
 * little-endian (and into a byte swap elsewhere), so no code path
 * forks on the host's byte order.
 */

#ifndef SAP_BASE_BYTE_ORDER_HH
#define SAP_BASE_BYTE_ORDER_HH

#include <cstdint>

namespace sap {

inline std::uint16_t
loadLe16(const unsigned char *p)
{
    return static_cast<std::uint16_t>(p[0] | unsigned(p[1]) << 8);
}

inline std::uint32_t
loadLe32(const unsigned char *p)
{
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

inline std::uint64_t
loadLe64(const unsigned char *p)
{
    return std::uint64_t(p[0]) | std::uint64_t(p[1]) << 8 |
           std::uint64_t(p[2]) << 16 | std::uint64_t(p[3]) << 24 |
           std::uint64_t(p[4]) << 32 | std::uint64_t(p[5]) << 40 |
           std::uint64_t(p[6]) << 48 | std::uint64_t(p[7]) << 56;
}

inline void
storeLe16(unsigned char *p, std::uint16_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
}

inline void
storeLe32(unsigned char *p, std::uint32_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
    p[2] = static_cast<unsigned char>(v >> 16);
    p[3] = static_cast<unsigned char>(v >> 24);
}

inline void
storeLe64(unsigned char *p, std::uint64_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
    p[2] = static_cast<unsigned char>(v >> 16);
    p[3] = static_cast<unsigned char>(v >> 24);
    p[4] = static_cast<unsigned char>(v >> 32);
    p[5] = static_cast<unsigned char>(v >> 40);
    p[6] = static_cast<unsigned char>(v >> 48);
    p[7] = static_cast<unsigned char>(v >> 56);
}

} // namespace sap

#endif // SAP_BASE_BYTE_ORDER_HH
