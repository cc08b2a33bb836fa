#include "dbt/matvec_transform.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "base/math_util.hh"

namespace sap {

MatVecTransform::MatVecTransform(const Dense<Scalar> &a, Index w)
    : dims_{a.rows(), a.cols(), w,
            ceilDiv(a.rows(), w), ceilDiv(a.cols(), w)},
      abar_(dims_.barRows(), dims_.barCols(), /*sub=*/0, /*super=*/w - 1)
{
    SAP_ASSERT(w >= 1, "block size must be >= 1");
    SAP_ASSERT(a.rows() >= 1 && a.cols() >= 1,
               "cannot partition an empty matrix");
    // Gather the band straight from A.
    Scalar *abar = abar_.rowPtr(0);
    forEachSegment([&](Index row, Index col, Index len, Index slot) {
        a.gatherRow(row, col, len, abar + slot);
    });
}

template <typename Seg>
void
MatVecTransform::forEachSegment(Seg &&seg) const
{
    // Band row k·w+i stores columns k·w+i … k·w+i+w−1: row i of Ū_k
    // (block column k, local columns i … w−1) followed by row i of
    // L̄_k (block column k+1, local columns 0 … i−1). Both are
    // segments of A's row uRow·w+i, and together they fill the whole
    // band. Unless L̄_k wraps around to A's first block column, the
    // two segments are adjacent in A and are one run. The block pair
    // (pair(k), rules a) is stepped along with k.
    const Index w = dims_.w;
    Index r = 0, s = 0;
    for (Index k = 0; k < dims_.blockCount(); ++k) {
        const Index s_next = s + 1 == dims_.mbar ? 0 : s + 1;
        for (Index i = 0; i < w; ++i) {
            const Index src = r * w + i, slot = (k * w + i) * w;
            if (s_next == s + 1) {
                seg(src, s * w + i, w, slot);
                continue;
            }
            seg(src, s * w + i, w - i, slot);
            seg(src, s_next * w, i, slot + (w - i));
        }
        if (++s == dims_.mbar) {
            s = 0;
            ++r;
        }
    }
}

bool
MatVecTransform::builtFrom(const Dense<Scalar> &a) const
{
    if (a.rows() != dims_.n || a.cols() != dims_.m)
        return false;
    bool same = true;
    const Scalar *abar = abar_.rowPtr(0);
    forEachSegment([&](Index row, Index col, Index len, Index slot) {
        same &= a.matchesGather(row, col, len, abar + slot);
    });
    return same;
}

MatVecTransform::BlockPair
MatVecTransform::pair(Index k) const
{
    SAP_ASSERT(k >= 0 && k < dims_.blockCount(), "block ", k,
               " out of range");
    // DBT-by-rows block selection (paper §2, rules a).
    const Index r = k / dims_.mbar;
    const Index s = k % dims_.mbar;
    return {r, s, r, (s + 1) % dims_.mbar};
}

BSource
MatVecTransform::bSourceOf(Index k) const
{
    SAP_ASSERT(k >= 0 && k < dims_.blockCount(), "block ", k,
               " out of range");
    return (k % dims_.mbar == 0) ? BSource::External : BSource::Feedback;
}

YSink
MatVecTransform::ySinkOf(Index k) const
{
    SAP_ASSERT(k >= 0 && k < dims_.blockCount(), "block ", k,
               " out of range");
    return ((k + 1) % dims_.mbar == 0) ? YSink::Emit
                                       : YSink::Recirculate;
}

Vec<Scalar>
MatVecTransform::transformX(const Vec<Scalar> &x) const
{
    SAP_ASSERT(x.size() == dims_.m, "x has ", x.size(),
               " elements, expected ", dims_.m);
    const Index w = dims_.w;
    // x̄ starts zero: the padding of x past its m elements.
    Vec<Scalar> xbar(dims_.barCols());
    Scalar *out = xbar.elems();
    // The first len elements of sub-vector x_s, clipped to x.
    auto put = [&](Index s, Index len) {
        std::copy_n(x.elems() + s * w, std::min(len, dims_.m - s * w),
                    out);
        out += len;
    };
    for (Index k = 0, s = 0; k < dims_.blockCount(); ++k) {
        put(s, w); // block k carries x_{k mod m̄}
        if (++s == dims_.mbar)
            s = 0;
    }
    // Tail x^∂: the first w-1 elements of the block that follows the
    // last L̄ (for DBT-by-rows this is x_0).
    put(dims_.blockCount() % dims_.mbar, w - 1);
    SAP_ASSERT(out == xbar.elems() + dims_.barCols(), "x̄ fill mismatch");
    return xbar;
}

bool
MatVecTransform::scalarIsExternalB(Index i) const
{
    SAP_ASSERT(i >= 0 && i < dims_.barRows(), "scalar row ", i,
               " out of range");
    return bSourceOf(i / dims_.w) == BSource::External;
}

Scalar
MatVecTransform::externalB(const Vec<Scalar> &b, Index i) const
{
    SAP_ASSERT(scalarIsExternalB(i), "row ", i, " is fed back");
    SAP_ASSERT(b.size() == dims_.n, "b has ", b.size(),
               " elements, expected ", dims_.n);
    Index k = i / dims_.w;
    Index t = i % dims_.w;
    Index r = k / dims_.mbar;
    Index src = r * dims_.w + t;
    // Padded rows take a zero initial value.
    return src < dims_.n ? b[src] : Scalar{0};
}

bool
MatVecTransform::scalarIsFinalY(Index i) const
{
    SAP_ASSERT(i >= 0 && i < dims_.barRows(), "scalar row ", i,
               " out of range");
    return ySinkOf(i / dims_.w) == YSink::Emit;
}

Index
MatVecTransform::finalYIndex(Index i) const
{
    SAP_ASSERT(scalarIsFinalY(i), "row ", i, " recirculates");
    Index k = i / dims_.w;
    Index t = i % dims_.w;
    Index r = k / dims_.mbar;
    return r * dims_.w + t;
}

Vec<Scalar>
MatVecTransform::extractY(const Vec<Scalar> &ybar) const
{
    SAP_ASSERT(ybar.size() == dims_.barRows(), "ȳ has ", ybar.size(),
               " elements, expected ", dims_.barRows());
    const Index w = dims_.w;
    Vec<Scalar> y(dims_.n);
    // Block row r's final sub-vector is the ȳ of its last band block
    // row, k = r·m̄ + m̄ − 1 (ySinkOf); elements past n are padding.
    for (Index r = 0; r < dims_.nbar; ++r)
        std::copy_n(ybar.elems() + (r * dims_.mbar + dims_.mbar - 1) * w,
                    std::min(w, dims_.n - r * w), y.elems() + r * w);
    return y;
}

bool
MatVecTransform::validate(bool check_filled) const
{
    const Index blocks = dims_.blockCount();

    // Condition 1: Ū_k and L̄_k come from the same original block row.
    for (Index k = 0; k < blocks; ++k)
        if (pair(k).uRow != pair(k).lRow)
            return false;

    // Condition 2: L̄_k and Ū_{k+1} come from the same original block
    // column (they share the x sub-vector flowing between them).
    for (Index k = 0; k + 1 < blocks; ++k)
        if (pair(k).lCol != pair(k + 1).uCol)
            return false;

    // Condition 3: exactly one copy of every U_ij and every L_ij.
    std::vector<int> seen_u(blocks, 0), seen_l(blocks, 0);
    for (Index k = 0; k < blocks; ++k) {
        const BlockPair p = pair(k);
        ++seen_u[p.uRow * dims_.mbar + p.uCol];
        ++seen_l[p.lRow * dims_.mbar + p.lCol];
    }
    for (Index q = 0; q < blocks; ++q)
        if (seen_u[q] != 1 || seen_l[q] != 1)
            return false;

    if (check_filled && !abar_.bandCompletelyFilled())
        return false;
    return true;
}

} // namespace sap
