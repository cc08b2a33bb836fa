/**
 * @file
 * Semantics (fast-mode) execution of the blocked triangular solve:
 * panel updates replayed through the mat-vec semantics kernel, each
 * diagonal block forward-substituted in the back-substitution
 * array's retirement order (row i sheds l_ik·y_k for ascending
 * k < i, then divides by l_ii).
 */

#include "analysis/formulas.hh"
#include "base/logging.hh"
#include "solve/trisolve_plan.hh"

namespace sap {

TriSolvePlanResult
TriSolvePlan::runSemantics(const Vec<Scalar> &b) const
{
    SAP_ASSERT(b.size() == n_, "b length ", b.size(), " != order ",
               n_);
    Vec<Scalar> bp = b.paddedTo(nbar_ * w_);

    TriSolvePlanResult res;
    res.stats.peCount = w_;
    Vec<Scalar> y(nbar_ * w_);

    for (Index r = 0; r < nbar_; ++r) {
        Vec<Scalar> rhs = bp.slice(r * w_, w_);
        if (r > 0) {
            const MatVecPlan &panel =
                panels_[static_cast<std::size_t>(r - 1)];
            MatVecPlanResult pr = panel.runSemantics(
                y.slice(0, r * w_), Vec<Scalar>(w_));
            for (Index i = 0; i < w_; ++i)
                rhs[i] -= pr.y[i];
            res.stats.cycles += pr.stats.cycles;
            res.stats.usefulMacs += pr.stats.usefulMacs;
        }

        // Diagonal block: only its lower triangle is stored (zero
        // above the diagonal, which the array never reads).
        const Dense<Scalar> &blk =
            diag_[static_cast<std::size_t>(r)];
        for (Index i = 0; i < w_; ++i) {
            Scalar s = rhs[i];
            for (Index k = 0; k < i; ++k)
                s = s - blk(i, k) * y[r * w_ + k];
            y[r * w_ + i] = s / blk(i, i);
        }
        res.stats.cycles += 2 * w_ - 1;
        // Cell k performs one op per row i >= k: w(w+1)/2 divides
        // and MACs per block (TriArray::usefulOps()).
        res.stats.usefulMacs += w_ * (w_ + 1) / 2;
    }

    res.y = y.slice(0, n_);
    return res;
}

} // namespace sap
