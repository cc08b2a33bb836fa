/**
 * @file
 * Partitioning of a transformed problem into two disjoint
 * sub-problems (the dotted line in the paper's Fig. 2.b).
 *
 * Feedback chains run along the band block rows of one original
 * block row r (k = r·m̄ .. r·m̄+m̄−1), so any cut at a multiple of m̄
 * yields two independent band problems that can be interleaved on
 * alternate cycles of the same array.
 */

#ifndef SAP_DBT_INTERLEAVE_HH
#define SAP_DBT_INTERLEAVE_HH

#include "dbt/matvec_transform.hh"
#include "sim/linear_driver.hh"

namespace sap {

/**
 * Owned storage for the two sub-problems of a split transformed
 * problem. Non-copyable: the specs returned by first()/second()
 * point into this object.
 */
class SplitProblem
{
  public:
    /**
     * Split the transformed problem after original block row
     * ⌈n̄/2⌉ (the paper's optimal balanced cut).
     *
     * @param t The DBT transform of A.
     * @param x Original input vector (length m).
     * @param b Original additive vector (length n).
     * @pre t.dims().nbar >= 2.
     */
    SplitProblem(const MatVecTransform &t, const Vec<Scalar> &x,
                 const Vec<Scalar> &b);

    SplitProblem(const SplitProblem &) = delete;
    SplitProblem &operator=(const SplitProblem &) = delete;

    /** Array-ready spec of the first half (band rows [0, cut)). */
    const BandMatVecSpec &first() const { return spec_first_; }
    /** Array-ready spec of the second half. */
    const BandMatVecSpec &second() const { return spec_second_; }

    /** Block row count of the first half (multiple of m̄). */
    Index cutBlocks() const { return cut_blocks_; }

    /**
     * Merge the two half results back into the full ȳ ordering and
     * extract the final y (length n).
     */
    Vec<Scalar> extractY(const Vec<Scalar> &ybar_first,
                         const Vec<Scalar> &ybar_second) const;

  private:
    /** One half's storage: its band slice and routing flags. */
    struct Half
    {
        Band<Scalar> band;
        std::vector<std::uint8_t> bExternal;
    };

    /** Build the half of block rows [k0, k1) from the full x̄. */
    void buildHalf(Index k0, Index k1, Half &half, BandMatVecSpec &spec,
                   const Vec<Scalar> &xbar_full, const Vec<Scalar> &b);

    const MatVecTransform &t_;
    Index cut_blocks_;
    Half half_first_;
    Half half_second_;
    BandMatVecSpec spec_first_;
    BandMatVecSpec spec_second_;
};

} // namespace sap

#endif // SAP_DBT_INTERLEAVE_HH
