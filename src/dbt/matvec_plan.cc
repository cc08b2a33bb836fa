#include "dbt/matvec_plan.hh"

#include <algorithm>

#include "base/logging.hh"
#include "dbt/interleave.hh"

namespace sap {

MatVecPlan::MatVecPlan(const Dense<Scalar> &a, Index w)
    : transform_(a, w)
{
    SAP_ASSERT(transform_.validate(/*check_filled=*/false),
               "DBT structural conditions violated");

    // One pass over the block rows: every scalar row of block row k
    // shares its b̄ source and ȳ sink.
    const MatVecDims &d = dims();
    b_external_.resize(static_cast<std::size_t>(d.barRows()));
    y_final_.resize(static_cast<std::size_t>(d.barRows()));
    for (Index k = 0; k < d.blockCount(); ++k) {
        const auto at = static_cast<std::ptrdiff_t>(k * d.w);
        std::fill_n(b_external_.begin() + at, d.w,
                    transform_.bSourceOf(k) == BSource::External);
        std::fill_n(y_final_.begin() + at, d.w,
                    transform_.ySinkOf(k) == YSink::Emit);
    }
}

BandMatVecSpec
MatVecPlan::makeSpec(const Vec<Scalar> &x, const Vec<Scalar> &b) const
{
    const MatVecDims &d = dims();
    BandMatVecSpec spec;
    spec.abar = &transform_.abar();
    spec.xbar = transform_.transformX(x);
    spec.bIsExternal = b_external_;
    spec.yIsFinal = y_final_;
    spec.externalB = Vec<Scalar>(d.barRows());
    for (Index i = 0; i < d.barRows(); ++i) {
        if (b_external_[i])
            spec.externalB[i] = transform_.externalB(b, i);
    }
    return spec;
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
    SplitProblem split(transform_, x, b);
    InterleavedRunResult r = runInterleaved(split.first(),
                                            split.second());

    MatVecPlanResult out;
    out.y = split.extractY(r.first.ybar, r.second.ybar);
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
