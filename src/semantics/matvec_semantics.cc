/**
 * @file
 * Semantics (fast-mode) execution of the linear-family mat-vec
 * plans: plain, overlapped, and grouped. Results are bit-identical
 * to the cycle simulators (the band kernel replays the array's
 * accumulation order); the statistics are the closed-form step
 * counts of analysis/formulas.hh, which the simulators are asserted
 * against elsewhere in the test suite.
 */

#include <algorithm>

#include "analysis/formulas.hh"
#include "base/math_util.hh"
#include "dbt/matvec_plan.hh"
#include "semantics/band_kernel.hh"

namespace sap {

MatVecPlanResult
MatVecPlan::runSemantics(const Vec<Scalar> &x,
                         const Vec<Scalar> &b) const
{
    BandMatVecSpec spec = makeSpec(x, b);
    BandMatVecSemantics sem = runBandMatVecSemantics(spec);

    const MatVecDims &d = dims();
    MatVecPlanResult out;
    out.y = transform_.extractY(sem.ybar);
    out.stats.cycles = formulas::tMatVec(d.w, d.nbar, d.mbar);
    out.stats.peCount = d.w;
    // Every in-band element fires exactly one MAC.
    out.stats.usefulMacs = d.barRows() * d.w;
    out.observedFeedbackDelay =
        sem.usedFeedback ? formulas::linearFeedbackDelay(d.w) : -1;
    out.feedbackRegisters = formulas::linearFeedbackRegisters(d.w);
    return out;
}

MatVecPlanResult
MatVecPlan::runOverlappedSemantics(const Vec<Scalar> &x,
                                   const Vec<Scalar> &b) const
{
    const std::array<BandMatVecSpec, 2> halves = makeSplitSpecs(x, b);
    const BandMatVecSpec &s1 = halves[0];
    const BandMatVecSpec &s2 = halves[1];
    BandMatVecSemantics r1 = runBandMatVecSemantics(s1);
    BandMatVecSemantics r2 = runBandMatVecSemantics(s2);

    const Index w = dims().w;
    // Lane completion cycles (lane 2 is offset by one); the halves
    // of an odd split are unbalanced, so this is the exact measured
    // max, not tMatVecOverlap (which assumes the balanced total).
    const Cycle last1 = 2 * (s1.rows() - 1) + 2 * w - 2;
    const Cycle last2 = 2 * (s2.rows() - 1) + 2 * w - 2 + 1;

    MatVecPlanResult out;
    r1.ybar.append(r2.ybar);
    out.y = transform_.extractY(r1.ybar);
    out.stats.cycles = std::max(last1, last2) + 1;
    out.stats.peCount = w;
    out.stats.usefulMacs = (s1.rows() + s2.rows()) * w;
    out.observedFeedbackDelay =
        r1.usedFeedback ? formulas::linearFeedbackDelay(w) : -1;
    out.feedbackRegisters = formulas::linearFeedbackRegisters(w);
    return out;
}

GroupedRunResult
MatVecPlan::runGroupedSemantics(const Vec<Scalar> &x,
                                const Vec<Scalar> &b) const
{
    BandMatVecSpec spec = makeSpec(x, b);
    BandMatVecSemantics sem = runBandMatVecSemantics(spec);

    const MatVecDims &d = dims();
    GroupedRunResult res;
    res.logical.ybar = std::move(sem.ybar);
    res.logical.stats.cycles = formulas::tMatVec(d.w, d.nbar, d.mbar);
    res.logical.stats.peCount = d.w;
    res.logical.stats.usefulMacs = d.barRows() * d.w;
    res.logical.observedFeedbackDelay =
        sem.usedFeedback ? formulas::linearFeedbackDelay(d.w) : -1;
    res.logical.feedbackRegisters =
        formulas::linearFeedbackRegisters(d.w);
    res.grouped = res.logical.stats;
    res.grouped.peCount = ceilDiv(d.w, 2);
    // Adjacent contraflow cells are busy on opposite parities, so
    // 2:1 grouping is conflict-free by construction; the simulator
    // proves this cycle-by-cycle, validate mode cross-checks it.
    res.conflictFree = true;
    return res;
}

} // namespace sap
