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
 * Both bands are gathered straight from A's and B's rows: each band
 * row is at most two contiguous segments of one source row, zero past
 * the source's edges. No padded copy of A or B is kept, and the
 * provenance blocks above are read back out of the bands.
 */

#ifndef SAP_DBT_MATMUL_TRANSFORM_HH
#define SAP_DBT_MATMUL_TRANSFORM_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "mat/band.hh"
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
 * Where the bands of one shape keep one copy of every element of A
 * and of B: for each element, its storage slot in Ā (B̄) and its
 * row-major offset in A (B). The map is a function of the shape, so
 * MatMulSkeleton builds it once per shape, and a plan-cache hit is
 * confirmed through it in two flat loops (MatMulTransform::
 * builtFrom()). Walking the bands' own runs instead, about 1,780 runs
 * of 1–4 words at 48², w = 4, took three to four times as long.
 */
class MatMulCopyMap
{
  public:
    /** One mapped element: Ā (B̄) storage slot, A (B) offset. */
    struct Copy
    {
        std::uint32_t slot;
        std::uint32_t offset;
    };

    /** Map the shape @p dims by the bands' gather layout. */
    explicit MatMulCopyMap(const MatMulDims &dims);

    /** The shape mapped. */
    const MatMulDims &dims() const { return dims_; }
    /** One copy of each element of A, in Ā's storage order. */
    const std::vector<Copy> &a() const { return a_; }
    /** One copy of each element of B. */
    const std::vector<Copy> &b() const { return b_; }

  private:
    MatMulDims dims_;
    std::vector<Copy> a_;
    std::vector<Copy> b_;
};

/**
 * The transformed pair (Ā, B̄) plus provenance accessors.
 */
class MatMulTransform
{
  public:
    /**
     * Gather both bands and assert the placement: every Ā diagonal
     * block equals its provenance block of A, read by coordinates.
     *
     * @param a Dense A (n×p).
     * @param b Dense B (p×m).
     * @param w Hexagonal array size.
     */
    MatMulTransform(const Dense<Scalar> &a, const Dense<Scalar> &b,
                    Index w);

    const MatMulDims &dims() const { return dims_; }

    /** Ā: square upper band, bandwidth w. */
    const Band<Scalar> &abar() const { return abar_; }
    /** B̄: square lower band, bandwidth w. */
    const Band<Scalar> &bbar() const { return bbar_; }

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

    /**
     * True if these are bit for bit the bands of (@p a, @p b): the
     * same shape, and the stored copy of every element of A and of B
     * that @p copies maps holds that element's bits. This confirms a
     * plan-cache hit without a copy of A or B.
     *
     * @pre @p copies maps this transform's shape (asserted).
     */
    bool builtFrom(const Dense<Scalar> &a, const Dense<Scalar> &b,
                   const MatMulCopyMap &copies) const;

    /**
     * Structural validation of the block schedule: single-copy
     * coverage (dims().coverageHolds()). The placement of values is
     * asserted once, at construction, while A is at hand.
     */
    bool validate() const;

  private:
    MatMulDims dims_;
    Band<Scalar> abar_;
    Band<Scalar> bbar_;
};

} // namespace sap

#endif // SAP_DBT_MATMUL_TRANSFORM_HH
