#include "dbt/matmul_transform.hh"

#include <cstdint>
#include <cstring>
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

/**
 * The layout of Ā's block rows [k0, k1), k1 <= blockCount() + 1 (the
 * tail), which the constructor gathers by and MatMulCopyMap maps by:
 * calls seg(row, col, len, slot) for each run of A's row @p row,
 * columns col … col+len−1, that Ā holds from storage slot @p slot on.
 * Slots count from Ā's first, its rows back to back, w slots each (as
 * Band stores them); slots no run covers are zero.
 */
template <typename Seg>
void
forEachASegment(const MatMulDims &d, Index k0, Index k1, Seg &&seg)
{
    const Index w = d.w, K = d.blockCount();
    // r and s of block row k, stepped along with k.
    Index r = d.rOf(k0), s = d.sOf(k0);
    for (Index k = k0; k < k1; ++k) {
        const Index first = k * w * w;
        if (k == K) {
            // Tail U': leading (w−1)×(w−1) corner of U^A_{0,0}; the
            // slots past column N−1 are zero.
            for (Index i = 0; i + 1 < w; ++i)
                seg(i, i, w - 1 - i, first + i * w);
            return;
        }
        // Row k·w+i stores columns k·w+i … k·w+i+w−1: row i of Ū_k =
        // U^A_{r,s} (local columns i … w−1), then row i of L̄_k =
        // L^A_{r,(s+1) mod p̄} (local columns 0 … i−1), both from A's
        // row r·w+i. Unless s+1 wraps to 0, the two are one run of A.
        const Index s_next = s + 1 == d.pbar ? 0 : s + 1;
        for (Index i = 0; i < w; ++i) {
            const Index src = r * w + i, slot = first + i * w;
            if (s_next == s + 1) {
                seg(src, s * w + i, w, slot);
                continue;
            }
            seg(src, s * w + i, w - i, slot);
            seg(src, s_next * w, i, slot + (w - i));
        }
        if (++s == d.pbar) {
            s = 0;
            if (++r == d.nbar)
                r = 0;
        }
    }
}

/** As forEachASegment(), for B̄ and B. */
template <typename Seg>
void
forEachBSegment(const MatMulDims &d, Index k0, Index k1, Seg &&seg)
{
    const Index w = d.w, K = d.blockCount();
    // r, s and c of block row k, stepped along with k; at the tail
    // k = K they read (0, 0, m̄).
    Index r = d.rOf(k0), s = d.sOf(k0), c = d.cOf(k0);
    for (Index k = k0; k < k1; ++k) {
        // Row k·w+i stores columns k·w+i−w+1 … k·w+i: row i of U⁻_k
        // (B block (s, c(k−1)), local columns i+1 … w−1; none at
        // k = 0, whose slots lie left of column 0), then row i of
        // L⁺_k (B block (s, c), local columns 0 … i), both from B's
        // row s·w+i. The tail row k = K has w−1 rows and its L' is
        // the leading corner of L⁺_{0,0}.
        const Index first = k * w * w;
        const Index c_diag = k < K ? c : 0;
        const Index c_sub = r == 0 && s == 0 ? c - 1 : c;
        const Index rows = k < K ? w : w - 1;
        for (Index i = 0; i < rows; ++i) {
            const Index src = s * w + i, slot = first + i * w;
            if (k >= 1)
                seg(src, c_sub * w + i + 1, w - 1 - i, slot);
            seg(src, c_diag * w, i + 1, slot + (w - 1 - i));
        }
        if (++s == d.pbar) {
            s = 0;
            if (++r == d.nbar) {
                r = 0;
                ++c;
            }
        }
    }
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
    Scalar *abar = abar_.rowPtr(0);
    forEachASegment(dims_, 0, dims_.blockCount() + 1,
                    [&](Index row, Index col, Index len, Index slot) {
                        a.gatherRow(row, col, len, abar + slot);
                    });
    Scalar *bbar = bbar_.rowPtr(0);
    forEachBSegment(dims_, 0, dims_.blockCount() + 1,
                    [&](Index row, Index col, Index len, Index slot) {
                        b.gatherRow(row, col, len, bbar + slot);
                    });

    SAP_ASSERT(diagBlocksMatchA(abar_, dims_, a),
               "Ā diagonal blocks differ from A's provenance blocks");
}

MatMulCopyMap::MatMulCopyMap(const MatMulDims &dims) : dims_(dims)
{
    // One copy of each element of A and of B, not all its m̄ (n̄):
    // every plan of this shape gathers its bands by the same layout,
    // so once one copy of every element matches, every copy does. By
    // the single-copy coverage (dims.coverageHolds()), Ā's first
    // period, block rows k < n̄·p̄ (c = 0), holds U^A and L^A of every
    // A block once. B̄'s block rows with r = 0 hold L⁺ of every B
    // block and U⁻ of all but the last block of B's first block row,
    // whose U⁻ is in the tail. Slots past A's and B's edges are zero
    // in every plan of the shape and are not mapped.
    const MatMulDims &d = dims_;
    const Index limit = Index{UINT32_MAX};
    SAP_ASSERT(d.order() * d.w <= limit && d.n * d.p <= limit &&
                   d.p * d.m <= limit,
               "bands too large to map");
    auto mapper = [](Index rows, Index cols, std::vector<Copy> *out) {
        return [=](Index row, Index col, Index len, Index slot) {
            if (row >= rows)
                return;
            for (Index j = 0; j < len && col + j < cols; ++j)
                out->push_back(
                    {static_cast<std::uint32_t>(slot + j),
                     static_cast<std::uint32_t>(row * cols + col + j)});
        };
    };
    const Index period = d.nbar * d.pbar;
    a_.reserve(static_cast<std::size_t>(d.n * d.p));
    forEachASegment(d, 0, period, mapper(d.n, d.p, &a_));
    b_.reserve(static_cast<std::size_t>(d.p * d.m));
    for (Index c = 0; c < d.mbar; ++c)
        forEachBSegment(d, c * period, c * period + d.pbar,
                        mapper(d.p, d.m, &b_));
    forEachBSegment(d, d.blockCount(), d.blockCount() + 1,
                    mapper(d.p, d.m, &b_));
}

namespace {

/** True if @p band holds at every mapped slot the bits of the
 *  element of @p m it maps to. */
bool
copiesMatch(const std::vector<MatMulCopyMap::Copy> &copies,
            const Band<Scalar> &band, const Dense<Scalar> &m)
{
    const Scalar *stored = band.rowPtr(0);
    const Scalar *src = m.data().data();
    std::uint64_t diff = 0;
    for (const MatMulCopyMap::Copy &c : copies) {
        std::uint64_t x = 0, y = 0;
        std::memcpy(&x, stored + c.slot, sizeof x);
        std::memcpy(&y, src + c.offset, sizeof y);
        diff |= x ^ y;
    }
    return diff == 0;
}

} // namespace

bool
MatMulTransform::builtFrom(const Dense<Scalar> &a, const Dense<Scalar> &b,
                           const MatMulCopyMap &copies) const
{
    const MatMulDims &d = copies.dims();
    SAP_ASSERT(d.n == dims_.n && d.p == dims_.p && d.m == dims_.m &&
                   d.w == dims_.w,
               "copy map of another shape");
    return a.rows() == d.n && a.cols() == d.p && b.rows() == d.p &&
           b.cols() == d.m && copiesMatch(copies.a(), abar_, a) &&
           copiesMatch(copies.b(), bbar_, b);
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
