/**
 * @file
 * Sparsity-aware DBT — the extension sketched in the paper's
 * conclusions: "In the case of computing with matrices of a known
 * degree of sparsity, transformation algorithms can be devised …
 * to exclude the need of zero-valued elements sub-matrices. A
 * reduction of computational time would be the consequence."
 *
 * The variant drops every band block row k whose (Ū_k, L̄_k) pair is
 * entirely zero — such a row contributes nothing to any y — and
 * stitches the feedback chain across the gap: the b̄-injection /
 * ȳ-emission flags of the surviving rows are recomputed so partial
 * results still chain within each original block row.
 */

#ifndef SAP_DBT_SPARSE_DBT_HH
#define SAP_DBT_SPARSE_DBT_HH

#include <vector>

#include "dbt/matvec_transform.hh"
#include "sim/linear_driver.hh"

namespace sap {

/**
 * A compressed transformed problem: only the nonzero block rows of
 * the DBT band, with correctly re-stitched feedback scheduling.
 *
 * Non-copyable: specs returned by spec() point into this object.
 */
class SparseDbt
{
  public:
    /**
     * @param a Dense (block-sparse) matrix.
     * @param w Array size.
     */
    SparseDbt(const Dense<Scalar> &a, Index w);

    SparseDbt(const SparseDbt &) = delete;
    SparseDbt &operator=(const SparseDbt &) = delete;

    /** Band block rows kept (out of dims().blockCount()). */
    Index keptBlocks() const { return static_cast<Index>(kept_.size()); }
    /** Band block rows of the dense (non-sparse) transformation. */
    Index denseBlocks() const { return full_.dims().blockCount(); }

    /** Array-ready spec for x and b. */
    BandMatVecSpec spec(const Vec<Scalar> &x, const Vec<Scalar> &b);

    /** Extract y (length n) from the compressed ȳ. */
    Vec<Scalar> extractY(const Vec<Scalar> &ybar) const;

    /** The underlying full transform (for comparison). */
    const MatVecTransform &fullTransform() const { return full_; }

  private:
    MatVecTransform full_;
    std::vector<Index> kept_;    ///< original k per row (−1 = separator)
    std::vector<std::uint8_t> first_in_row_; ///< row takes external b
    std::vector<std::uint8_t> last_in_row_;  ///< row emits final y
    std::vector<Index> x_blocks_; ///< x sub-vector per row
    std::vector<Index> row_r_;    ///< original block row (−1 = none)
    Index tail_x_block_ = 0;      ///< x sub-vector of the band tail
    Band<Scalar> band_;
    Vec<Scalar> xbar_;            ///< rebuilt per spec() call
    std::vector<std::uint8_t> b_external_; ///< rebuilt per spec() call
    Vec<Scalar> b_padded_;        ///< retained for extractY()
};

} // namespace sap

#endif // SAP_DBT_SPARSE_DBT_HH
