#include "dbt/matvec_plan.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/math_util.hh"

namespace sap {

MatVecPlan::MatVecPlan(const Dense<Scalar> &a, Index w)
    : transform_(a, w)
{
    SAP_ASSERT(transform_.validate(/*check_filled=*/false),
               "DBT structural conditions violated");

    // One pass over the block rows: every scalar row of block row k
    // shares its b̄ source.
    const MatVecDims &d = dims();
    b_external_.resize(static_cast<std::size_t>(d.barRows()));
    for (Index k = 0; k < d.blockCount(); ++k)
        std::fill_n(b_external_.begin() +
                        static_cast<std::ptrdiff_t>(k * d.w),
                    d.w, transform_.bSourceOf(k) == BSource::External);
}

BandMatVecSpec
MatVecPlan::makeSpec(const Vec<Scalar> &x, const Vec<Scalar> &b) const
{
    const MatVecDims &d = dims();
    SAP_ASSERT(b.size() == d.n, "b has ", b.size(),
               " elements, expected ", d.n);
    BandMatVecSpec spec;
    spec.abar = &transform_.abar();
    spec.xbar = transform_.transformX(x);
    spec.bIsExternal = &b_external_;
    // Band block row r·m̄ opens original block row r: its rows take
    // b_r (transform_.externalB), zero past b's end. Every other row
    // is fed back and reads no external value.
    spec.externalB = Vec<Scalar>(d.barRows());
    for (Index r = 0; r < d.nbar; ++r)
        std::copy_n(b.elems() + r * d.w, std::min(d.w, d.n - r * d.w),
                    spec.externalB.elems() + r * d.mbar * d.w);
    return spec;
}

std::array<BandMatVecSpec, 2>
MatVecPlan::makeSplitSpecs(const Vec<Scalar> &x, const Vec<Scalar> &b) const
{
    const MatVecDims &d = dims();
    SAP_ASSERT(d.nbar >= 2,
               "cannot split a problem with a single block row");
    const BandMatVecSpec whole = makeSpec(x, b);
    auto range = [&](Index first, Index rows) {
        BandMatVecSpec half;
        half.abar = whole.abar;
        half.bIsExternal = whole.bIsExternal;
        half.firstRow = first;
        half.rowCount = rows;
        half.xbar = whole.xbar.slice(first, rows + d.w - 1);
        half.externalB = whole.externalB.slice(first, rows);
        return half;
    };
    const Index cut = ceilDiv(d.nbar, 2) * d.mbar * d.w;
    return {range(0, cut), range(cut, d.barRows() - cut)};
}

MatVecPlanResult
MatVecPlan::run(const Vec<Scalar> &x, const Vec<Scalar> &b,
                bool record_trace) const
{
    BandMatVecSpec spec = makeSpec(x, b);
    LinearRunResult r = runBandMatVec(spec, record_trace);

    MatVecPlanResult out;
    out.y = transform_.extractY(r.ybar);
    out.stats = r.stats;
    out.observedFeedbackDelay = r.observedFeedbackDelay;
    out.feedbackRegisters = r.feedbackRegisters;
    out.trace = r.trace;
    return out;
}

MatVecPlanResult
MatVecPlan::runOverlapped(const Vec<Scalar> &x, const Vec<Scalar> &b) const
{
    const std::array<BandMatVecSpec, 2> halves = makeSplitSpecs(x, b);
    InterleavedRunResult r = runInterleaved(halves[0], halves[1]);

    MatVecPlanResult out;
    r.first.ybar.append(r.second.ybar);
    out.y = transform_.extractY(r.first.ybar);
    out.stats = r.combined;
    out.observedFeedbackDelay = r.first.observedFeedbackDelay;
    out.feedbackRegisters = r.first.feedbackRegisters;
    return out;
}

GroupedRunResult
MatVecPlan::runGroupedPlan(const Vec<Scalar> &x, const Vec<Scalar> &b) const
{
    BandMatVecSpec spec = makeSpec(x, b);
    return runGrouped(spec);
}

TwoProblemResult
runTwoProblems(const MatVecPlan &pa, const Vec<Scalar> &xa,
               const Vec<Scalar> &ba, const MatVecPlan &pb,
               const Vec<Scalar> &xb, const Vec<Scalar> &bb)
{
    BandMatVecSpec sa = pa.makeSpec(xa, ba);
    BandMatVecSpec sb = pb.makeSpec(xb, bb);
    InterleavedRunResult r = runInterleaved(sa, sb);

    TwoProblemResult out;
    out.first.y = pa.transform().extractY(r.first.ybar);
    out.first.stats = r.first.stats;
    out.first.observedFeedbackDelay = r.first.observedFeedbackDelay;
    out.second.y = pb.transform().extractY(r.second.ybar);
    out.second.stats = r.second.stats;
    out.second.observedFeedbackDelay = r.second.observedFeedbackDelay;
    out.combined = r.combined;
    return out;
}

} // namespace sap
