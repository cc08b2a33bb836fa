/**
 * @file
 * Deterministic byte-level fuzzing support for the net/ and obs/
 * parsers: a seedable xorshift generator, a hex corpus-file loader,
 * and a small set of structure-blind mutators.
 *
 * Everything here is reproducible by construction — the only entropy
 * source is Xorshift64, so a failing iteration can be replayed from
 * its (seed, iteration) pair printed by the test. No libFuzzer or
 * sanitizer runtime is required: the harness is an ordinary gtest
 * binary, which also means the nightly ASan+UBSan job fuzzes the
 * exact code the default build ships.
 *
 * Corpus files live in tests/data/fuzz/ as hex dumps (pairs of hex
 * digits; whitespace ignored; '#' starts a comment running to end of
 * line) so that malformed-byte seeds can be reviewed in a diff like
 * any other fixture.
 */

#ifndef SAP_TESTS_FUZZ_CORPUS_HH
#define SAP_TESTS_FUZZ_CORPUS_HH

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <dirent.h>

namespace sap {
namespace fuzz {

/**
 * xorshift64* — tiny, fast, and good enough to pick mutation sites;
 * never used where statistical quality matters.
 */
class Xorshift64
{
  public:
    explicit Xorshift64(std::uint64_t seed)
        : state_(seed ? seed : 0x9e3779b97f4a7c15ull)
    {
    }

    std::uint64_t next()
    {
        std::uint64_t x = state_;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state_ = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /** Uniform-ish draw in [0, bound); bound 0 yields 0. */
    std::size_t below(std::size_t bound)
    {
        return bound ? static_cast<std::size_t>(next() % bound) : 0;
    }

    std::uint8_t byte() { return static_cast<std::uint8_t>(next()); }

  private:
    std::uint64_t state_;
};

/** One corpus entry: where it came from plus its bytes. */
struct CorpusEntry
{
    std::string name;
    std::vector<std::uint8_t> bytes;
};

/**
 * Parse a hex dump (see the file comment for the grammar).
 * @throws std::runtime_error on an odd digit count or a non-hex,
 *         non-space, non-comment character.
 */
inline std::vector<std::uint8_t>
parseHexDump(const std::string &text, const std::string &what)
{
    std::vector<std::uint8_t> bytes;
    int hi = -1;
    bool in_comment = false;
    for (char c : text) {
        if (c == '\n') {
            in_comment = false;
            continue;
        }
        if (in_comment)
            continue;
        if (c == '#') {
            in_comment = true;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c)))
            continue;
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            digit = c - 'A' + 10;
        else
            throw std::runtime_error(what + ": stray character '" +
                                     std::string(1, c) +
                                     "' in hex dump");
        if (hi < 0) {
            hi = digit;
        } else {
            bytes.push_back(
                static_cast<std::uint8_t>((hi << 4) | digit));
            hi = -1;
        }
    }
    if (hi >= 0)
        throw std::runtime_error(what + ": odd number of hex digits");
    return bytes;
}

/** The bytes of the corpus seed @p name under @p dir. */
inline std::vector<std::uint8_t>
loadHexSeed(const std::string &dir, const std::string &name)
{
    std::ifstream is(dir + "/" + name);
    if (!is)
        throw std::runtime_error("cannot open corpus seed " + name);
    std::ostringstream text;
    text << is.rdbuf();
    return parseHexDump(text.str(), name);
}

/**
 * Load every *.hex file under @p dir, sorted by name so corpus order
 * (and therefore every derived mutation) is stable across platforms.
 * @throws std::runtime_error if the directory cannot be read or is
 *         empty — a silently-missing corpus would turn the fuzz
 *         suite into a no-op that still reports PASS.
 */
inline std::vector<CorpusEntry>
loadHexCorpus(const std::string &dir)
{
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        throw std::runtime_error("cannot open corpus dir " + dir);
    std::vector<std::string> names;
    while (dirent *ent = ::readdir(d)) {
        std::string name = ent->d_name;
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".hex") == 0)
            names.push_back(name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());

    std::vector<CorpusEntry> corpus;
    for (const std::string &name : names)
        corpus.push_back({name, loadHexSeed(dir, name)});
    if (corpus.empty())
        throw std::runtime_error("empty corpus dir " + dir);
    return corpus;
}

/**
 * Apply one structure-blind mutation to @p bytes in place. The
 * mutation menu is the classic byte-fuzzer set: flip a bit, smash a
 * byte, truncate, insert garbage, zero a run, duplicate a slice, or
 * perturb a byte by a small delta (which walks length fields past
 * their buffers one step at a time — the most profitable shape for a
 * length-prefixed protocol).
 */
inline void
mutateOnce(std::vector<std::uint8_t> *bytes, Xorshift64 *rng)
{
    std::vector<std::uint8_t> &b = *bytes;
    switch (rng->below(7)) {
    case 0: // flip one bit
        if (!b.empty())
            b[rng->below(b.size())] ^=
                static_cast<std::uint8_t>(1u << rng->below(8));
        break;
    case 1: // overwrite one byte
        if (!b.empty())
            b[rng->below(b.size())] = rng->byte();
        break;
    case 2: // truncate to a random prefix
        if (!b.empty())
            b.resize(rng->below(b.size()));
        break;
    case 3: { // insert up to 8 random bytes
        std::size_t pos = rng->below(b.size() + 1);
        std::size_t n = 1 + rng->below(8);
        std::vector<std::uint8_t> junk(n);
        for (std::uint8_t &j : junk)
            j = rng->byte();
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(pos),
                 junk.begin(), junk.end());
        break;
    }
    case 4: { // zero a short run
        if (b.empty())
            break;
        std::size_t pos = rng->below(b.size());
        std::size_t n = std::min(1 + rng->below(16), b.size() - pos);
        std::fill_n(b.begin() + static_cast<std::ptrdiff_t>(pos), n,
                    std::uint8_t{0});
        break;
    }
    case 5: { // duplicate a slice (grows the input)
        if (b.empty() || b.size() > (1u << 20))
            break;
        std::size_t pos = rng->below(b.size());
        std::size_t n = std::min(1 + rng->below(32), b.size() - pos);
        std::vector<std::uint8_t> slice(
            b.begin() + static_cast<std::ptrdiff_t>(pos),
            b.begin() + static_cast<std::ptrdiff_t>(pos + n));
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(pos),
                 slice.begin(), slice.end());
        break;
    }
    default: { // +/- small delta on one byte
        if (b.empty())
            break;
        std::size_t pos = rng->below(b.size());
        int delta = 1 + static_cast<int>(rng->below(4));
        if (rng->below(2))
            delta = -delta;
        b[pos] = static_cast<std::uint8_t>(b[pos] + delta);
        break;
    }
    }
}

/**
 * Derive one fuzz input: copy a corpus entry chosen by @p rng and
 * mutate it 1–@p max_mutations times.
 */
inline std::vector<std::uint8_t>
deriveInput(const std::vector<CorpusEntry> &corpus, Xorshift64 *rng,
            std::size_t max_mutations = 8)
{
    std::vector<std::uint8_t> bytes =
        corpus[rng->below(corpus.size())].bytes;
    std::size_t n = 1 + rng->below(max_mutations);
    for (std::size_t i = 0; i < n; ++i)
        mutateOnce(&bytes, rng);
    return bytes;
}

} // namespace fuzz
} // namespace sap

#endif // SAP_TESTS_FUZZ_CORPUS_HH
