#include "dbt/interleave.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/math_util.hh"

namespace sap {

SplitProblem::SplitProblem(const MatVecTransform &t, const Vec<Scalar> &x,
                           const Vec<Scalar> &b)
    : t_(t)
{
    const MatVecDims &d = t.dims();
    SAP_ASSERT(d.nbar >= 2,
               "cannot split a problem with a single block row");

    // Cut after ⌈n̄/2⌉ original block rows = a multiple of m̄ band
    // block rows, so no feedback chain crosses the cut.
    Index half_rows = ceilDiv(d.nbar, 2);
    cut_blocks_ = half_rows * d.mbar;

    const Vec<Scalar> xbar_full = t.transformX(x);
    buildHalf(0, cut_blocks_, half_first_, spec_first_, xbar_full, b);
    buildHalf(cut_blocks_, d.blockCount(), half_second_, spec_second_,
              xbar_full, b);
}

void
SplitProblem::buildHalf(Index k0, Index k1, Half &half,
                        BandMatVecSpec &spec, const Vec<Scalar> &xbar_full,
                        const Vec<Scalar> &b)
{
    const MatVecDims &d = t_.dims();
    const Index w = d.w;
    const Index rows = (k1 - k0) * w;

    // Both bands store w slots per row, every one inside the matrix,
    // so the half's rows are a contiguous run of the full band's.
    half.band = Band<Scalar>(rows, rows + w - 1, 0, w - 1);
    const Scalar *src = t_.abar().rowPtr(k0 * w);
    std::copy(src, src + rows * w, half.band.rowPtr(0));

    half.bExternal.assign(static_cast<std::size_t>(rows), 0);
    spec.abar = &half.band;
    spec.xbar = xbar_full.slice(k0 * w, rows + w - 1);
    spec.bIsExternal = &half.bExternal;
    spec.externalB = Vec<Scalar>(rows);
    for (Index i = 0; i < rows; ++i) {
        Index gi = k0 * w + i;
        half.bExternal[i] = t_.scalarIsExternalB(gi) ? 1 : 0;
        if (half.bExternal[i])
            spec.externalB[i] = t_.externalB(b, gi);
    }
}

Vec<Scalar>
SplitProblem::extractY(const Vec<Scalar> &ybar_first,
                       const Vec<Scalar> &ybar_second) const
{
    Vec<Scalar> full = ybar_first;
    full.append(ybar_second);
    return t_.extractY(full);
}

} // namespace sap
