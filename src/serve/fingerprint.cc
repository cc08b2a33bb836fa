#include "serve/fingerprint.hh"

#include <cstring>

#include "base/byte_order.hh"

namespace sap {

namespace {

constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;

inline std::uint64_t
rotl(std::uint64_t x, unsigned r)
{
    return (x << r) | (x >> (64 - r));
}

/** One word into one lane: the multiply-mix step. */
inline std::uint64_t
absorb(std::uint64_t lane, std::uint64_t word)
{
    return rotl(lane + word * kPrime2, 31) * kPrime1;
}

/** An in-memory Scalar's bit pattern. */
inline std::uint64_t
loadScalar(const unsigned char *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
}

/**
 * The streaming word digest: word i of the stream goes to lane
 * i mod 4, whatever mix of add() and addWords() delivered it, so a
 * matrix hashes the same from a header plus element storage as from
 * its contiguous wire bytes.
 */
class WordDigest
{
  public:
    void
    add(std::uint64_t word)
    {
        std::uint64_t &lane = lanes_[count_ % 4];
        lane = absorb(lane, word);
        ++count_;
    }

    template <typename Load>
    void
    addWords(const unsigned char *p, std::size_t n, Load load)
    {
        for (; n > 0 && count_ % 4 != 0; --n, p += 8)
            add(load(p));
        std::uint64_t l0 = lanes_[0], l1 = lanes_[1], l2 = lanes_[2],
                      l3 = lanes_[3];
        const std::size_t stripes = n / 4;
        for (std::size_t s = 0; s < stripes; ++s, p += 32) {
            l0 = absorb(l0, load(p));
            l1 = absorb(l1, load(p + 8));
            l2 = absorb(l2, load(p + 16));
            l3 = absorb(l3, load(p + 24));
        }
        lanes_[0] = l0;
        lanes_[1] = l1;
        lanes_[2] = l2;
        lanes_[3] = l3;
        count_ += 4 * stripes;
        for (n -= 4 * stripes; n > 0; --n, p += 8)
            add(load(p));
    }

    /** Merge the lanes with the total length in bytes and an
     *  optional tail of @p tail_len (< 8) bytes packed LE in
     *  @p tail, then finalize. */
    Digest
    finish(std::uint64_t tail = 0, std::size_t tail_len = 0) const
    {
        std::uint64_t h = rotl(lanes_[0], 1) + rotl(lanes_[1], 7) +
                          rotl(lanes_[2], 12) + rotl(lanes_[3], 18);
        for (std::uint64_t lane : lanes_)
            h = (h ^ absorb(0, lane)) * kPrime1 + kPrime4;
        h += count_ * 8 + tail_len;
        if (tail_len > 0)
            h = rotl(h ^ (tail * kPrime3), 27) * kPrime1 + kPrime4;
        return finalizeDigest(h);
    }

  private:
    std::uint64_t lanes_[4] = {kPrime1 + kPrime2, kPrime2, 0,
                               0 - kPrime1};
    std::uint64_t count_ = 0;
};

} // namespace

Digest
fingerprintDense(const Dense<Scalar> &a)
{
    static_assert(sizeof(Scalar) == 8, "Scalars hash as 64-bit words");
    WordDigest d;
    d.add(static_cast<std::uint64_t>(a.rows()));
    d.add(static_cast<std::uint64_t>(a.cols()));
    d.addWords(reinterpret_cast<const unsigned char *>(a.data().data()),
               a.data().size(), loadScalar);
    return d.finish();
}

Digest
fingerprintVec(const Vec<Scalar> &v)
{
    WordDigest d;
    d.add(static_cast<std::uint64_t>(v.size()));
    d.addWords(reinterpret_cast<const unsigned char *>(v.data().data()),
               v.data().size(), loadScalar);
    return d.finish();
}

Digest
fingerprintWords(const std::uint8_t *bytes, std::size_t count)
{
    WordDigest d;
    d.addWords(bytes, count, loadLe64);
    return d.finish();
}

Digest
fingerprintString(const std::string &s)
{
    const auto *p = reinterpret_cast<const unsigned char *>(s.data());
    const std::size_t words = s.size() / 8;
    WordDigest d;
    d.addWords(p, words, loadLe64);
    std::uint64_t tail = 0;
    const std::size_t tail_len = s.size() % 8;
    for (std::size_t i = 0; i < tail_len; ++i)
        tail |= std::uint64_t(p[8 * words + i]) << (8 * i);
    return d.finish(tail, tail_len);
}

Digest
combineDigests(Digest seed, Digest next)
{
    // Boost-style order-dependent mix.
    return seed ^ (next + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                   (seed >> 2));
}

Digest
finalizeDigest(Digest x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace sap
