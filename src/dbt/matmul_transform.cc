#include "dbt/matmul_transform.hh"

#include <vector>

#include "base/logging.hh"
#include "base/math_util.hh"
#include "mat/triangular.hh"

namespace sap {

namespace {

/**
 * The w×w block (kr, kc) of @p band restricted to @p part, zero
 * where the block leaves the matrix (the tail's missing last row
 * and column).
 */
Dense<Scalar>
bandBlock(const Band<Scalar> &band, Index w, Index kr, Index kc,
          TriPart part)
{
    Dense<Scalar> blk(w, w);
    for (Index i = 0; i < w; ++i) {
        for (Index j = 0; j < w; ++j) {
            const Index row = kr * w + i, col = kc * w + j;
            if (inTriPart(part, i, j) && row < band.rows() &&
                col < band.cols())
                blk(i, j) = band.at(row, col);
        }
    }
    return blk;
}

/**
 * Placement: every Ā diagonal block (the tail's U' included) holds
 * U^A of its provenance block, read here element by element from A's
 * coordinates rather than through the row gather.
 */
bool
diagBlocksMatchA(const Band<Scalar> &abar, const MatMulDims &d,
                 const Dense<Scalar> &a)
{
    const Index w = d.w;
    for (Index k = 0; k <= d.blockCount(); ++k) {
        const Index r = d.rOf(k), s = d.sOf(k); // (0, 0) at the tail
        for (Index i = 0; i < w; ++i) {
            for (Index j = i; j < w; ++j) {
                const Index col = k * w + j;
                if (col >= d.order())
                    continue;
                const Index ar = r * w + i, ac = s * w + j;
                const Scalar expect =
                    ar < a.rows() && ac < a.cols() ? a(ar, ac) : 0;
                if (abar.at(k * w + i, col) != expect)
                    return false;
            }
        }
    }
    return true;
}

} // namespace

bool
MatMulDims::coverageHolds() const
{
    std::vector<Index> u_count(nbar * pbar, 0);
    std::vector<Index> l_count(pbar * mbar, 0);
    for (Index k = 0; k < blockCount(); ++k) {
        ++u_count[rOf(k) * pbar + sOf(k)];
        ++l_count[sOf(k) * mbar + cOf(k)];
    }
    for (Index v : u_count)
        if (v != mbar)
            return false;
    for (Index v : l_count)
        if (v != nbar)
            return false;
    return true;
}

MatMulTransform::MatMulTransform(const Dense<Scalar> &a,
                                 const Dense<Scalar> &b, Index w)
    : dims_{a.rows(), a.cols(), b.cols(), w,
            ceilDiv(a.rows(), w), ceilDiv(a.cols(), w),
            ceilDiv(b.cols(), w)},
      abar_(dims_.order(), dims_.order(), 0, w - 1),
      bbar_(dims_.order(), dims_.order(), w - 1, 0)
{
    SAP_ASSERT(w >= 1, "block size must be >= 1");
    SAP_ASSERT(a.rows() >= 1 && a.cols() >= 1 && b.cols() >= 1,
               "cannot partition an empty matrix");
    SAP_ASSERT(a.cols() == b.rows(), "A cols ", a.cols(),
               " != B rows ", b.rows());
    const Index K = dims_.blockCount();

    // ---- Ā -------------------------------------------------------
    // Row k·w+i stores columns k·w+i … k·w+i+w−1: row i of Ū_k =
    // U^A_{r,s} (local columns i … w−1), then row i of L̄_k =
    // L^A_{r,(s+1) mod p̄} (local columns 0 … i−1), both from A's
    // row r·w+i. Unless s+1 wraps to 0, the two are one run of A.
    for (Index k = 0; k < K; ++k) {
        const Index src = dims_.rOf(k) * w;
        const Index s = dims_.sOf(k), s_next = (s + 1) % dims_.pbar;
        for (Index i = 0; i < w; ++i) {
            Scalar *row = abar_.rowPtr(k * w + i);
            if (s_next == s + 1) {
                a.gatherRow(src + i, s * w + i, w, row);
                continue;
            }
            a.gatherRow(src + i, s * w + i, w - i, row);
            a.gatherRow(src + i, s_next * w, i, row + (w - i));
        }
    }
    // Tail U': leading (w−1)×(w−1) corner of U^A_{0,0}; the slots
    // past column N−1 stay zero.
    for (Index i = 0; i + 1 < w; ++i)
        a.gatherRow(i, i, w - 1 - i, abar_.rowPtr(K * w + i));

    // ---- B̄ -------------------------------------------------------
    // Row k·w+i stores columns k·w+i−w+1 … k·w+i: row i of U⁻_k (B
    // block (k mod p̄, c(k−1)), local columns i+1 … w−1; none at
    // k = 0), then row i of L⁺_k (B block (s, c), local columns
    // 0 … i), both from B's row (k mod p̄)·w+i. The tail row k = K
    // has w−1 rows and its L' is the leading corner of L⁺_{0,0}.
    for (Index k = 0; k <= K; ++k) {
        const Index src = dims_.sOf(k) * w;
        const Index c_diag = k < K ? dims_.cOf(k) : 0;
        const Index rows = k < K ? w : w - 1;
        for (Index i = 0; i < rows; ++i) {
            Scalar *row = bbar_.rowPtr(k * w + i);
            if (k >= 1)
                b.gatherRow(src + i, dims_.cOf(k - 1) * w + i + 1,
                            w - 1 - i, row);
            b.gatherRow(src + i, c_diag * w, i + 1, row + (w - 1 - i));
        }
    }

    SAP_ASSERT(diagBlocksMatchA(abar_, dims_, a),
               "Ā diagonal blocks differ from A's provenance blocks");
}

Dense<Scalar>
MatMulTransform::aDiagBlock(Index k) const
{
    SAP_ASSERT(k >= 0 && k <= dims_.blockCount(), "block row ", k,
               " out of range");
    return bandBlock(abar_, dims_.w, k, k, TriPart::UpperWithDiag);
}

Dense<Scalar>
MatMulTransform::aSuperBlock(Index k) const
{
    const Index K = dims_.blockCount();
    SAP_ASSERT(k >= 0 && k <= K, "block row ", k, " out of range");
    if (k == K)
        return Dense<Scalar>(dims_.w, dims_.w); // no super block at tail
    return bandBlock(abar_, dims_.w, k, k + 1, TriPart::LowerStrict);
}

Dense<Scalar>
MatMulTransform::bDiagBlock(Index k) const
{
    SAP_ASSERT(k >= 0 && k <= dims_.blockCount(), "block row ", k,
               " out of range");
    return bandBlock(bbar_, dims_.w, k, k, TriPart::LowerWithDiag);
}

Dense<Scalar>
MatMulTransform::bSubBlock(Index k) const
{
    SAP_ASSERT(k >= 1 && k <= dims_.blockCount(), "sub block row ", k,
               " out of range");
    return bandBlock(bbar_, dims_.w, k, k - 1, TriPart::UpperStrict);
}

bool
MatMulTransform::validate() const
{
    return dims_.coverageHolds();
}

} // namespace sap
