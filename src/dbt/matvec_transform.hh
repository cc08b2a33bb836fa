/**
 * @file
 * DBT-by-rows: the paper's Dense-to-Band transformation by
 * Triangular block partitioning for matrix-vector multiplication
 * (§2).
 *
 * Given the original problem y = A·x + b with A of shape (n, m) and
 * a target array size w, the transformation produces:
 *
 *  - Ā: an upper-band matrix of bandwidth exactly w whose band is
 *    completely filled with (copies of) the triangular halves of the
 *    w-by-w blocks of A:
 *        Ū_k = U_{r,s},  r = ⌊k/m̄⌋, s = k mod m̄
 *        L̄_k = L_{r,s'}, s' = (k mod m̄ + 1) mod m̄
 *  - x̄: n̄m̄ sub-vectors x_{k mod m̄} plus a final (w−1)-element tail;
 *  - b̄/ȳ schedules describing which band block rows take an external
 *    b sub-vector vs. the fed-back previous partial result, and which
 *    block rows emit a final y sub-vector vs. recirculate.
 *
 * The band is gathered straight from A: each band row is at most two
 * contiguous segments of one A row, zero past A's edges, so the
 * transform keeps no padded copy of A and makes no per-block
 * temporaries. The class also verifies the paper's three structural
 * conditions and the filled-band property.
 */

#ifndef SAP_DBT_MATVEC_TRANSFORM_HH
#define SAP_DBT_MATVEC_TRANSFORM_HH

#include "base/types.hh"
#include "mat/band.hh"
#include "mat/dense.hh"
#include "mat/vector.hh"

namespace sap {

/** Problem dimensions of a DBT mat-vec instance. */
struct MatVecDims
{
    Index n;    ///< original rows of A (= length of y, b)
    Index m;    ///< original cols of A (= length of x)
    Index w;    ///< array size = block size = bandwidth
    Index nbar; ///< ⌈n/w⌉
    Index mbar; ///< ⌈m/w⌉

    /** Number of transformed band block rows, n̄·m̄. */
    Index blockCount() const { return nbar * mbar; }
    /** Scalar rows of Ā (= length of ȳ and b̄). */
    Index barRows() const { return blockCount() * w; }
    /** Scalar cols of Ā (= length of x̄) = n̄m̄w + w − 1. */
    Index barCols() const { return blockCount() * w + w - 1; }
};

/** Where a b̄ sub-vector comes from. */
enum class BSource
{
    External, ///< fresh b sub-vector from the host (k mod m̄ == 0)
    Feedback, ///< previous partial result ȳ_{k−1} through the loop
};

/** Where a ȳ sub-vector goes. */
enum class YSink
{
    Emit,        ///< final result sub-vector ((k+1) mod m̄ == 0)
    Recirculate, ///< partial result, re-enters as b̄_{k+1}
};

/**
 * Result of applying DBT-by-rows to a dense matrix.
 *
 * Owns the transformed band matrix; the provenance and feedback
 * schedules the drivers and the result extractor need are derived
 * from the shape on demand. A itself is read only during
 * construction.
 */
class MatVecTransform
{
  public:
    /** Provenance of band block row k. */
    struct BlockPair
    {
        Index uRow, uCol; ///< Ū_k = U_{uRow,uCol}
        Index lRow, lCol; ///< L̄_k = L_{lRow,lCol}
    };

    /**
     * Apply DBT-by-rows.
     *
     * @param a Original dense matrix (any shape >= 1x1).
     * @param w Target array size (>= 1).
     */
    MatVecTransform(const Dense<Scalar> &a, Index w);

    /** Dimensions record. */
    const MatVecDims &dims() const { return dims_; }

    /** The transformed band matrix Ā (upper band, bandwidth w). */
    const Band<Scalar> &abar() const { return abar_; }

    /** Block provenance for band block row k (paper §2, rules a),
     *  derived from the shape on each call. */
    BlockPair pair(Index k) const;

    /** b̄ source for band block row k (paper rule: k mod m̄). */
    BSource bSourceOf(Index k) const;

    /** ȳ sink for band block row k (paper rule: (k+1) mod m̄). */
    YSink ySinkOf(Index k) const;

    /**
     * Build the transformed vector x̄ from the original x
     * (length m; padded internally).
     *
     * Layout: n̄m̄ blocks of x_{k mod m̄} followed by the (w−1)-element
     * tail x^∂ (leading elements of x_0).
     */
    Vec<Scalar> transformX(const Vec<Scalar> &x) const;

    /**
     * External b̄ scalar for transformed scalar row i.
     *
     * @pre scalarIsExternalB(i) is true.
     */
    Scalar externalB(const Vec<Scalar> &b, Index i) const;

    /** True if transformed scalar row i takes a fresh b element. */
    bool scalarIsExternalB(Index i) const;

    /** True if transformed scalar row i emits a final y element. */
    bool scalarIsFinalY(Index i) const;

    /**
     * Original y index for a final transformed scalar row i.
     *
     * @pre scalarIsFinalY(i). May point into the padded region; the
     * extractor drops padded entries.
     */
    Index finalYIndex(Index i) const;

    /**
     * Gather the final y (length n) from the full transformed ȳ
     * (length barRows()).
     */
    Vec<Scalar> extractY(const Vec<Scalar> &ybar) const;

    /**
     * True if this is bit for bit the transform of @p a: the same
     * shape, and every band row holds the same bits as the gather
     * that built it would read from @p a (compared in place). This
     * confirms a plan-cache hit without a copy of A.
     */
    bool builtFrom(const Dense<Scalar> &a) const;

    /**
     * Check the paper's conditions 1-3 on the block sequence plus
     * the filled-band property (the latter only when all blocks of
     * the padded matrix are fully nonzero).
     *
     * @param check_filled Also require a completely filled band.
     * @return true if all structural conditions hold.
     */
    bool validate(bool check_filled) const;

  private:
    /**
     * The layout of the band, which the constructor gathers by and
     * builtFrom() compares by: calls seg(row, col, len, slot) for
     * each run of A's row @p row, columns col … col+len−1, that the
     * band holds from storage slot @p slot on. Slots count from the
     * band's first, its rows back to back, w slots each (as Band
     * stores them); the runs cover every slot.
     */
    template <typename Seg>
    void forEachSegment(Seg &&seg) const;

    MatVecDims dims_;
    Band<Scalar> abar_;
};

} // namespace sap

#endif // SAP_DBT_MATVEC_TRANSFORM_HH
