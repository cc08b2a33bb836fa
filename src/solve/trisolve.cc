#include "solve/trisolve.hh"

#include "base/logging.hh"
#include "base/math_util.hh"
#include "dbt/matvec_plan.hh"

namespace sap {

TriSolveResult
triSolve(const Dense<Scalar> &l, const Vec<Scalar> &b, Index w)
{
    const Index n = l.rows();
    SAP_ASSERT(l.cols() == n, "L must be square");
    SAP_ASSERT(b.size() == n, "shape mismatch");

    // L and b read zero past their edges, up to n̄·w (§2.a), except
    // that a padded diagonal entry reads 1, so the padded sub-systems
    // stay solvable (their solutions are 0).
    const Index nbar = ceilDiv(n, w);
    Vec<Scalar> bp = b.paddedTo(nbar * w);
    auto lp = [&l, n](Index i, Index j) {
        return i < n && j < n ? l(i, j) : Scalar(i == j ? 1 : 0);
    };

    TriSolveResult res;
    res.arrayStats.peCount = w;
    Vec<Scalar> y(nbar * w);

    for (Index r = 0; r < nbar; ++r) {
        // Update: rhs_r = b_r − [L_{r,0} … L_{r,r−1}]·y_{0..r−1},
        // computed on the array as one DBT mat-vec over the panel.
        Vec<Scalar> rhs = bp.slice(r * w, w);
        if (r > 0) {
            // The panel, gathered row by row from L (zero past its
            // last row), as TriSolvePlan gathers it.
            Dense<Scalar> panel(w, r * w);
            for (Index i = 0; i < w; ++i)
                l.gatherRow(r * w + i, 0, r * w, &panel(i, 0));
            MatVecPlan plan(panel, w);
            MatVecPlanResult pr = plan.run(y.slice(0, r * w),
                                           Vec<Scalar>(w));
            for (Index i = 0; i < w; ++i)
                rhs[i] -= pr.y[i];
            res.hostOps += w;
            res.arrayStats.cycles += pr.stats.cycles;
            res.arrayStats.usefulMacs += pr.stats.usefulMacs;
        }

        // Host: solve the w×w diagonal triangular system.
        for (Index i = 0; i < w; ++i) {
            Scalar acc = rhs[i];
            for (Index j = 0; j < i; ++j) {
                acc -= lp(r * w + i, r * w + j) * y[r * w + j];
                ++res.hostOps;
            }
            Scalar diag = lp(r * w + i, r * w + i);
            SAP_ASSERT(diag != 0, "zero diagonal at ", r * w + i);
            y[r * w + i] = acc / diag;
            ++res.hostOps;
        }
    }

    res.y = y.slice(0, n);
    return res;
}

} // namespace sap
