/**
 * @file
 * Cycle-accurate model of the Kung/Leiserson hexagonal systolic
 * array for band matrix-matrix multiplication (the paper's
 * reference /5/), sized w×w as in §3 of the paper.
 *
 * Geometry: PEs are indexed (r, q) with r = the Ā-diagonal a datum
 * travels on (r = k−i) and q = the B̄-diagonal (q = k−j). Streams:
 *
 *   a  moves in −q direction (enters edge q = w−1)
 *   b  moves in −r direction (enters edge r = w−1)
 *   c  moves in +(r,q) diagonal direction (enters edges r=0 / q=0,
 *      exits edges r=w−1 / q=w−1); c rides on C̄-diagonal δ = r−q
 *
 * Every PE computes c' = c + a·b when all three operands are valid;
 * otherwise samples pass through unchanged. All three streams
 * advance one hop per cycle; drivers space items three cycles apart
 * on each stream, which is what caps hexagonal utilization at 1/3.
 *
 * Registers are indexed by the entry cycle of the item they hold.
 * An item advances one hop per cycle, so on cycle τ the item at PE
 * (r, q) entered its line a fixed number of cycles earlier: w−1−q
 * for a (row r), w−1−r for b (column q) and min(r, q) for c
 * (diagonal r−q). Each line is a ring of registers keyed by entry
 * cycle, so moving every stream one hop is a change of τ, not a
 * copy; a MAC updates its c item where it sits. step() still
 * evaluates every PE on every cycle: the array models the hardware
 * and assumes nothing about the driver's phase.
 *
 * Schedule alignment invariant: at PE (r, q) on cycle τ the three
 * streams can only hold samples belonging to the unique index
 * triple (i, j, k) with k−i = r, k−j = q, i+j+k = τ−(w−1), so a
 * valid MAC always combines true partners (asserted in tests).
 */

#ifndef SAP_SIM_HEX_ARRAY_HH
#define SAP_SIM_HEX_ARRAY_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "sim/sample.hh"

namespace sap {

/** The hexagonally-connected w×w array. */
class HexArray
{
  public:
    /** @param w Array size (w×w PEs, bandwidth w operands). */
    explicit HexArray(Index w);

    /** Array size. */
    Index size() const { return w_; }
    /** Total PE count A = w². */
    Index peCount() const { return w_ * w_; }

    /** Present the a sample entering row r (edge PE (r, w−1)). */
    void
    setAIn(Index r, Sample s)
    {
        SAP_ASSERT(r >= 0 && r < w_, "a row ", r, " out of range");
        a_[slot(r, now_)] = s;
    }
    /** Present the b sample entering column q (edge PE (w−1, q)). */
    void
    setBIn(Index q, Sample s)
    {
        SAP_ASSERT(q >= 0 && q < w_, "b column ", q, " out of range");
        b_[slot(q, now_)] = s;
    }
    /**
     * Present the c sample entering C̄-diagonal δ in [−(w−1), w−1]
     * (edge PE (δ, 0) for δ >= 0, (0, −δ) for δ < 0).
     */
    void
    setCIn(Index delta, Sample s)
    {
        SAP_ASSERT(delta > -w_ && delta < w_, "diagonal ", delta,
                   " out of range");
        c_[slot(delta + w_ - 1, now_)] = s;
    }

    /** Advance one clock cycle: every PE computes, then every stream
     *  moves one hop. */
    void step();

    /**
     * The c sample that finished its traversal of diagonal δ during
     * the last step() (registered at exit PE (w−1, w−1−δ) for
     * δ >= 0, (w−1+δ, w−1) for δ < 0). It entered w − |δ| cycles
     * before now().
     */
    Sample
    cOut(Index delta) const
    {
        SAP_ASSERT(delta > -w_ && delta < w_, "diagonal ", delta,
                   " out of range");
        const Index hops = w_ - (delta >= 0 ? delta : -delta);
        return c_[slot(delta + w_ - 1, now_ - hops)];
    }

    /** Cycles executed. */
    Cycle now() const { return now_; }
    /** Total valid multiply-accumulates performed. */
    Index usefulMacs() const { return useful_macs_; }
    /** Cycle of the first valid MAC (−1 if none yet). */
    Cycle firstMacCycle() const { return first_mac_; }

  private:
    /** Register of @p line holding the item that entered on cycle
     *  @p entry (may be negative before the first cycles). */
    std::size_t
    slot(Index line, Cycle entry) const
    {
        return static_cast<std::size_t>(line) * ring_ +
               static_cast<std::size_t>(static_cast<std::uint64_t>(entry) &
                                        mask_);
    }

    Index w_;
    /** Registers per line: a power of two above w, so the item that
     *  entered ring_ cycles ago has left the array, even through the
     *  exit register cOut() reads. */
    std::size_t ring_;
    std::uint64_t mask_;
    Cycle now_ = 0;
    Index useful_macs_ = 0;
    Cycle first_mac_ = -1;

    std::vector<Sample> a_; ///< w rows × ring_
    std::vector<Sample> b_; ///< w columns × ring_
    std::vector<Sample> c_; ///< 2w−1 diagonals (δ + w − 1) × ring_
};

} // namespace sap

#endif // SAP_SIM_HEX_ARRAY_HH
