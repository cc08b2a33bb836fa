/**
 * @file
 * The block-copy construction of the DBT bands, kept as the oracle
 * for the row gathers in src/dbt/ and src/solve/ and for the mat-mul
 * band map (sameBand()). It partitions the
 * matrix into zero-padded w×w blocks (BlockPartition), copies each
 * block out, splits it with triPartOf and places it element by
 * element, exactly as §2–§3 of the paper describe. Slow, and
 * independent of the production code it checks.
 */

#ifndef SAP_TESTS_DBT_ORACLE_HH
#define SAP_TESTS_DBT_ORACLE_HH

#include <algorithm>
#include <vector>

#include "block.hh"
#include "dbt/matmul_transform.hh"
#include "mat/band.hh"
#include "mat/dense.hh"
#include "mat/triangular.hh"

namespace sap {
namespace oracle {

/** Ā of DBT-by-rows (§2) for @p a on array size @p w. */
inline Band<Scalar>
matVecBand(const Dense<Scalar> &a, Index w)
{
    BlockPartition<Scalar> part(a, w);
    const Index mbar = part.blockCols();
    const Index blocks = part.blockRows() * mbar;
    Band<Scalar> abar(blocks * w, blocks * w + w - 1, 0, w - 1);
    for (Index k = 0; k < blocks; ++k) {
        const Index r = k / mbar, s = k % mbar;
        Dense<Scalar> u = triPartOf(part.block(r, s),
                                    TriPart::UpperWithDiag);
        Dense<Scalar> l = triPartOf(part.block(r, (s + 1) % mbar),
                                    TriPart::LowerStrict);
        for (Index i = 0; i < w; ++i) {
            for (Index j = i; j < w; ++j)
                abar.ref(k * w + i, k * w + j) = u(i, j);
            for (Index j = 0; j < i; ++j)
                abar.ref(k * w + i, (k + 1) * w + j) = l(i, j);
        }
    }
    return abar;
}

/**
 * Ā and B̄ of the mat-mul DBT (§3) plus the provenance blocks of
 * band block row k, taken from the partitions of A and B.
 */
class MatMul
{
  public:
    MatMul(const Dense<Scalar> &a, const Dense<Scalar> &b, Index w)
        : w_(w), ablocks_(a, w), bblocks_(b, w),
          nbar_(ablocks_.blockRows()), pbar_(ablocks_.blockCols()),
          mbar_(bblocks_.blockCols()), K_(pbar_ * nbar_ * mbar_),
          abar_(K_ * w + w - 1, K_ * w + w - 1, 0, w - 1),
          bbar_(K_ * w + w - 1, K_ * w + w - 1, w - 1, 0)
    {
        const Index N = K_ * w + w - 1;
        for (Index k = 0; k < K_; ++k) {
            Dense<Scalar> u = aDiagBlock(k);
            Dense<Scalar> l = aSuperBlock(k);
            Dense<Scalar> lp = bDiagBlock(k);
            for (Index i = 0; i < w; ++i) {
                for (Index j = i; j < w; ++j)
                    abar_.ref(k * w + i, k * w + j) = u(i, j);
                for (Index j = 0; j < i; ++j)
                    abar_.ref(k * w + i, (k + 1) * w + j) = l(i, j);
                for (Index j = 0; j <= i; ++j)
                    bbar_.ref(k * w + i, k * w + j) = lp(i, j);
            }
        }
        for (Index k = 1; k <= K_; ++k) {
            Dense<Scalar> um = bSubBlock(k);
            for (Index i = 0; i < w && k * w + i < N; ++i)
                for (Index j = i + 1; j < w; ++j)
                    bbar_.ref(k * w + i, (k - 1) * w + j) = um(i, j);
        }
        // Tails U' and L': leading (w−1)×(w−1) corners of block (0, 0).
        Dense<Scalar> a00 = ablocks_.block(0, 0);
        Dense<Scalar> b00 = bblocks_.block(0, 0);
        for (Index i = 0; i + 1 < w; ++i) {
            for (Index j = i; j + 1 < w; ++j)
                abar_.ref(K_ * w + i, K_ * w + j) = a00(i, j);
            for (Index j = 0; j <= i; ++j)
                bbar_.ref(K_ * w + i, K_ * w + j) = b00(i, j);
        }
    }

    /** Ā(k,k): U^A_{r,s}; at the tail, U^A_{0,0} minus its last row
     *  and column. */
    Dense<Scalar>
    aDiagBlock(Index k) const
    {
        if (k < K_)
            return triPartOf(ablocks_.block(r(k), s(k)),
                             TriPart::UpperWithDiag);
        return clipped(triPartOf(ablocks_.block(0, 0),
                                 TriPart::UpperWithDiag));
    }

    /** Ā(k,k+1): L^A_{r,(s+1) mod p̄}; zero at the tail. */
    Dense<Scalar>
    aSuperBlock(Index k) const
    {
        if (k == K_)
            return Dense<Scalar>(w_, w_);
        return triPartOf(ablocks_.block(r(k), (s(k) + 1) % pbar_),
                         TriPart::LowerStrict);
    }

    /** B̄(k,k): L⁺ of B block (s, c); at the tail, L⁺_{0,0} minus its
     *  last row and column. */
    Dense<Scalar>
    bDiagBlock(Index k) const
    {
        if (k < K_)
            return triPartOf(bblocks_.block(s(k), k / (nbar_ * pbar_)),
                             TriPart::LowerWithDiag);
        return clipped(triPartOf(bblocks_.block(0, 0),
                                 TriPart::LowerWithDiag));
    }

    /** B̄(k,k−1): U⁻ of B block (k mod p̄, ⌊(k−1)/(n̄p̄)⌋), k >= 1. */
    Dense<Scalar>
    bSubBlock(Index k) const
    {
        return triPartOf(bblocks_.block(k % pbar_,
                                        (k - 1) / (nbar_ * pbar_)),
                         TriPart::UpperStrict);
    }

    /** K = p̄n̄m̄, the tail's block row. */
    Index blockCount() const { return K_; }
    /** Ā, placed block by block. */
    const Band<Scalar> &abar() const { return abar_; }
    /** B̄, placed block by block. */
    const Band<Scalar> &bbar() const { return bbar_; }

  private:
    Index r(Index k) const { return (k % (nbar_ * pbar_)) / pbar_; }
    Index s(Index k) const { return k % pbar_; }

    Dense<Scalar>
    clipped(Dense<Scalar> blk) const
    {
        for (Index t = 0; t < w_; ++t) {
            blk(w_ - 1, t) = 0;
            blk(t, w_ - 1) = 0;
        }
        return blk;
    }

    Index w_;
    BlockPartition<Scalar> ablocks_;
    BlockPartition<Scalar> bblocks_;
    Index nbar_, pbar_, mbar_, K_;
    Band<Scalar> abar_;
    Band<Scalar> bbar_;
};

/**
 * True if @p got, a band read through its map, has @p want's shape
 * and reads at every position of the band the bits @p want stores
 * there (sameBits: +0 and −0 differ).
 */
inline bool
sameBand(const MappedBand &got, const Band<Scalar> &want)
{
    if (got.rows() != want.rows() || got.cols() != want.cols() ||
        got.sub() != want.sub() || got.super() != want.super())
        return false;
    for (Index r = 0; r < want.rows(); ++r) {
        for (Index c = std::max(Index{0}, r - want.sub());
             c <= std::min(want.cols() - 1, r + want.super()); ++c) {
            const Scalar g = got.at(r, c), e = want.at(r, c);
            if (!sameBits(&g, &e, 1))
                return false;
        }
    }
    return true;
}

/** The tri-solve plan's matrix-bound blocks, from L's partition. */
struct TriSolveBlocks
{
    /** L_{r,r}'s lower triangle (zero above the diagonal), with the
     *  padded diagonal entries patched to 1. */
    std::vector<Dense<Scalar>> diag;
    /** panels[r−1] = [L_{r,0} … L_{r,r−1}] as one w × r·w matrix. */
    std::vector<Dense<Scalar>> panels;
};

inline TriSolveBlocks
triSolveBlocks(const Dense<Scalar> &l, Index w)
{
    BlockPartition<Scalar> part(l, w);
    const Dense<Scalar> &padded = part.padded();
    TriSolveBlocks out;
    for (Index r = 0; r < part.blockRows(); ++r) {
        out.diag.push_back(part.block(r, r));
        Dense<Scalar> &blk = out.diag.back();
        for (Index i = 0; i < w; ++i) {
            for (Index j = i + 1; j < w; ++j)
                blk(i, j) = 0;
            if (r * w + i >= l.rows())
                blk(i, i) = 1;
        }
    }
    for (Index r = 1; r < part.blockRows(); ++r) {
        Dense<Scalar> panel(w, r * w);
        for (Index i = 0; i < w; ++i)
            for (Index j = 0; j < r * w; ++j)
                panel(i, j) = padded(r * w + i, j);
        out.panels.push_back(panel);
    }
    return out;
}

/** The array sizes of the edge sweep. */
inline std::vector<Index>
sweepArraySizes()
{
    return {1, 2, 3, 4, 5, 8};
}

/**
 * The edge sizes for array size @p w: {1, w−1, w, w+1, 2w+3}, minus
 * the empty size, without repeats. They put every padding case (none,
 * one short, one over, w > n) on each matrix edge.
 */
inline std::vector<Index>
sweepEdgeSizes(Index w)
{
    std::vector<Index> sizes{1, w - 1, w, w + 1, 2 * w + 3};
    sizes.erase(std::remove(sizes.begin(), sizes.end(), Index{0}),
                sizes.end());
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    return sizes;
}

} // namespace oracle
} // namespace sap

#endif // SAP_TESTS_DBT_ORACLE_HH
