/**
 * @file
 * DBT transformations for matrix-matrix multiplication (§3 of the
 * paper): C = A·B + E on the w-by-w hexagonal array.
 *
 * Ā (upper band, bandwidth w, square of order N = w·p̄n̄m̄ + w − 1):
 *   1. apply DBT-by-rows to A            -> band period Ā^b
 *   2. juxtapose m̄ copies of Ā^b, append the triangular tail U'
 *      (the leading (w−1)×(w−1) corner of Ā^b).
 *
 * B̄ (lower band, bandwidth w, same order):
 *   1. split B into m̄ column blocks B_c (p × w)
 *   2. B̄^b_c = (DBT-by-rows(B_cᵀ))ᵀ      -> lower band period
 *   3. juxtapose n̄ copies of each B̄^b_c  -> B̄^d_c
 *   4. concatenate B̄^d_0 … B̄^d_{m̄−1}, append the tail L'
 *      (the leading (w−1)×(w−1) corner of B̄^b_0).
 *
 * Block-level provenance (all derived in DESIGN.md §4.3): for band
 * block row k with r = ⌊(k mod n̄p̄)/p̄⌋, s = k mod p̄, c = ⌊k/(n̄p̄)⌋:
 *
 *   Ā(k,k)   = U^A_{r,s}        Ā(k,k+1) = L^A_{r,(s+1) mod p̄}
 *   B̄(k,k)   = L⁺^B_{s,c}       B̄(k,k−1) = U⁻^B_{s,⌊(k−1)/(n̄p̄)⌋}
 *
 * where U^A/L^A split A-blocks with the diagonal in U, and
 * L⁺/U⁻ split B-blocks with the diagonal in L.
 *
 * Both bands are a re-addressing of A and B that depends on the shape
 * alone: each band row is at most two contiguous segments of one row
 * of A (B), zero past its edges. So a transform keeps one copy of A
 * and of B and reads Ā and B̄ through its shape's MatMulBandMap, which
 * every plan of the shape shares; the provenance blocks above are
 * read the same way.
 */

#ifndef SAP_DBT_MATMUL_TRANSFORM_HH
#define SAP_DBT_MATMUL_TRANSFORM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "mat/dense.hh"

namespace sap {

/** Problem dimensions of a DBT mat-mul instance. */
struct MatMulDims
{
    Index n;    ///< rows of A and C
    Index p;    ///< cols of A = rows of B
    Index m;    ///< cols of B and C
    Index w;    ///< hexagonal array size (w×w PEs)
    Index nbar; ///< ⌈n/w⌉
    Index pbar; ///< ⌈p/w⌉
    Index mbar; ///< ⌈m/w⌉

    /** Band block rows before the tail: K = p̄·n̄·m̄. */
    Index blockCount() const { return pbar * nbar * mbar; }
    /** Scalar order of Ā and B̄: N = w·K + w − 1. */
    Index order() const { return blockCount() * w + w - 1; }

    /** The dims of A (n×p) times B (p×m) on a w×w array; asserts
     *  that the pair is one. */
    static MatMulDims of(const Dense<Scalar> &a, const Dense<Scalar> &b,
                         Index w);

    /** Original A block-row index r of band block row k. */
    Index rOf(Index k) const { return (k % (nbar * pbar)) / pbar; }
    /** Original A block-column (= B block-row) index s of row k. */
    Index sOf(Index k) const { return k % pbar; }
    /** Original B block-column index c of row k. */
    Index cOf(Index k) const { return k / (nbar * pbar); }

    /**
     * Single-copy coverage of the block schedule, a property of the
     * shape alone: every U^A block appears exactly m̄ times (once per
     * copy of Ā^b) and every L⁺^B block exactly n̄ times.
     */
    bool coverageHolds() const;
};

/**
 * The band layout of one shape: for every storage slot of Ā and B̄,
 * the row-major offset in A (B) of the element it holds, or kPad for
 * a padding zero. Each band stores N rows of w slots back to back:
 * Ā's row i holds columns i … i+w−1, B̄'s row i columns i−w+1 … i.
 *
 * A function of the shape alone, so MatMulSkeleton builds it once per
 * shape and every plan of the shape reads its A and B through it.
 * Building one asserts the placement: every Ā diagonal block (the
 * tail's U' included) maps U^A of its provenance block, worked out
 * from A's coordinates rather than through the runs.
 */
class MatMulBandMap
{
  public:
    /** The offset of a slot that holds a padding zero. */
    static constexpr std::uint32_t kPad = UINT32_MAX;

    explicit MatMulBandMap(const MatMulDims &dims);

    const MatMulDims &dims() const { return dims_; }
    /** Ā's slots: ā(i, k) is slot i·(w − 1) + k. */
    const std::vector<std::uint32_t> &a() const { return a_; }
    /** B̄'s slots: b̄(k, j) is slot k·(w − 1) + j + w − 1. */
    const std::vector<std::uint32_t> &b() const { return b_; }

    /** What a slot mapped to @p from reads out of @p src. */
    static Scalar
    read(const Scalar *src, std::uint32_t from)
    {
        return from == kPad ? 0 : src[from];
    }

  private:
    MatMulDims dims_;
    std::vector<std::uint32_t> a_;
    std::vector<std::uint32_t> b_;
};

/**
 * Ā or B̄ read out of A or B through a MatMulBandMap's slots, neither
 * of them owned: reads as the square Band<Scalar> of @p sub sub- and
 * @p super super-diagonals it maps does, zero outside the band.
 */
class MappedBand
{
  public:
    MappedBand(const Scalar *src, const std::uint32_t *slots,
               Index order, Index sub, Index super)
        : src_(src), slots_(slots), order_(order), sub_(sub),
          super_(super)
    {
    }

    Index rows() const { return order_; }
    Index cols() const { return order_; }
    Index sub() const { return sub_; }
    Index super() const { return super_; }

    /** Element (r, c); zero outside the band. */
    Scalar
    at(Index r, Index c) const
    {
        SAP_ASSERT(r >= 0 && r < order_ && c >= 0 && c < order_,
                   "index (", r, ",", c, ") out of order ", order_);
        const Index off = c - r;
        if (off < -sub_ || off > super_)
            return 0;
        return MatMulBandMap::read(
            src_, slots_[r * (sub_ + super_ + 1) + off + sub_]);
    }

  private:
    const Scalar *src_;
    const std::uint32_t *slots_;
    Index order_, sub_, super_;
};

/**
 * The transformed pair (Ā, B̄): one copy of A and of B, read through
 * their shape's MatMulBandMap, plus provenance accessors.
 */
class MatMulTransform
{
  public:
    /** Keep @p a (n×p) and @p b (p×m), read through @p map, which
     *  must map their shape (asserted). */
    MatMulTransform(const Dense<Scalar> &a, const Dense<Scalar> &b,
                    std::shared_ptr<const MatMulBandMap> map);
    /** As above, with a map of its own for array size @p w. */
    MatMulTransform(const Dense<Scalar> &a, const Dense<Scalar> &b,
                    Index w);

    const MatMulDims &dims() const { return map_->dims(); }
    const MatMulBandMap &map() const { return *map_; }
    const Dense<Scalar> &a() const { return a_; }
    const Dense<Scalar> &b() const { return b_; }

    /** Ā: square upper band, bandwidth w; valid while this lives. */
    MappedBand
    abar() const
    {
        return {a_.elems(), map_->a().data(), dims().order(), 0,
                dims().w - 1};
    }
    /** B̄: square lower band, bandwidth w; valid while this lives. */
    MappedBand
    bbar() const
    {
        return {b_.elems(), map_->b().data(), dims().order(),
                dims().w - 1, 0};
    }

    //-----------------------------------------------------------------
    // Block-level provenance (k in [0, blockCount()], where
    // blockCount() is the tail row), read out of the bands. The
    // indices r, s, c of row k are dims().rOf/sOf/cOf(k).
    //-----------------------------------------------------------------

    /** Ā(k,k): the U^A block (w×w dense copy; tail-clipped at K). */
    Dense<Scalar> aDiagBlock(Index k) const;
    /** Ā(k,k+1): the L^A block; zero block at the tail. */
    Dense<Scalar> aSuperBlock(Index k) const;
    /** B̄(k,k): the L⁺ block (tail-clipped at K). */
    Dense<Scalar> bDiagBlock(Index k) const;
    /** B̄(k,k−1): the U⁻ block (k in [1, blockCount()]). */
    Dense<Scalar> bSubBlock(Index k) const;

  private:
    Dense<Scalar> a_;
    Dense<Scalar> b_;
    std::shared_ptr<const MatMulBandMap> map_;
};

} // namespace sap

#endif // SAP_DBT_MATMUL_TRANSFORM_HH
