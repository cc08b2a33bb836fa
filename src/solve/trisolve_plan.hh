/**
 * @file
 * Reusable, size-independent execution plan for triangular systems
 * L·y = b on the fixed-size array pair — the engine-layer backend of
 * the paper's §4 scheme.
 *
 * The decomposition mirrors triSolve() (solve/trisolve.hh): the
 * system is partitioned into w-wide block rows; the O(n²) panel
 * update b_r − Σ_{s<r} L_{r,s}·y_s streams through the linear
 * contraflow array as a DBT mat-vec, and each w×w diagonal block is
 * then solved on the cycle-level back-substitution array
 * (sim/tri_array.hh) instead of the host. Both arrays are w cells
 * wide, so the plan models one installation whose cells gain a
 * divide path — the matrix-bound artifact (panel plans + diagonal
 * coefficient blocks, both copied row by row straight from L) is
 * built once per (L, w) and any number of right-hand sides stream
 * through it, which is what the serving layer caches.
 *
 * Thread-compatibility: const member functions are safe to call
 * concurrently (each run builds its own simulators).
 */

#ifndef SAP_SOLVE_TRISOLVE_PLAN_HH
#define SAP_SOLVE_TRISOLVE_PLAN_HH

#include <vector>

#include "analysis/metrics.hh"
#include "dbt/matvec_plan.hh"
#include "mat/dense.hh"
#include "mat/vector.hh"
#include "sim/trace.hh"

namespace sap {

/** Result of a planned systolic triangular solve. */
struct TriSolvePlanResult
{
    /** The solution of L·y = b (length n). */
    Vec<Scalar> y;
    /** Accumulated over every panel and diagonal-block array run. */
    RunStats stats;
    /** Diagonal-block port events when requested (see run()). */
    Trace trace;
};

/**
 * Blocked forward-substitution plan for one (L, w) pair.
 *
 * The paper's step-count claims compose: each panel r costs
 * tMatVec(w, 1, r) = 2wr + 2w − 3 cycles on the linear array and
 * each diagonal block costs 2w − 1 cycles on the back-substitution
 * array, so T = n̄(2w−1) + Σ_{r=1}^{n̄−1}(2wr + 2w − 3)
 * (formulas::tTriSolve).
 */
class TriSolvePlan
{
  public:
    /**
     * @param l Lower-triangular matrix (n×n; elements above the
     *          diagonal are ignored, matching forwardSolve()).
     * @param w The fixed systolic array size.
     * @throws EngineError if any diagonal element of @p l is zero
     *         (a singular system is the caller's input problem, not
     *         an internal invariant).
     */
    TriSolvePlan(const Dense<Scalar> &l, Index w);

    /** Order of the bound system. */
    Index n() const { return n_; }
    /** Array size. */
    Index w() const { return w_; }
    /** Number of w-wide block rows n̄ = ceil(n/w). */
    Index nbar() const { return nbar_; }

    /** The w×w diagonal block L_{r,r} as the array sees it (see
     *  diag_), r in [0, n̄). */
    const Dense<Scalar> &diagBlock(Index r) const;
    /** The panel plan of block row r: it binds
     *  [L_{r,0} … L_{r,r−1}], r in [1, n̄). */
    const MatVecPlan &panel(Index r) const;

    /**
     * True if this is bit for bit the plan of (@p l, w()): the same
     * order, every diagonal-block row gathered again from @p l holds
     * the same bits, and so does every panel's band
     * (MatVecTransform::builtFrom()). Elements above the diagonal
     * are in no part of the plan, so two systems that differ only
     * there share one.
     */
    bool builtFrom(const Dense<Scalar> &l) const;

    /**
     * Solve L·y = b on the simulated arrays.
     *
     * @param b Right-hand side (length n).
     * @param record_trace Record the diagonal-block array's port
     *        events (rhs in, coefficients, solutions out) on a
     *        global cycle timeline; panel mat-vec runs contribute
     *        cycles but no events.
     */
    TriSolvePlanResult run(const Vec<Scalar> &b,
                           bool record_trace = false) const;

    /**
     * Semantics replay of run() (src/semantics/): panels through
     * the mat-vec semantics kernel, diagonal blocks forward-
     * substituted in the array's retirement order; y bit-identical
     * to the simulation, stats from analysis/formulas.hh, no trace.
     */
    TriSolvePlanResult runSemantics(const Vec<Scalar> &b) const;

  private:
    Index n_;
    Index w_;
    Index nbar_;
    /** The w×w diagonal blocks L_{r,r}: the lower triangle, zero
     *  above the diagonal and past L's edges, with padded diagonal
     *  entries patched to 1 (the off-diagonal panels live
     *  inside panels_; keeping only these bounds the prepared
     *  artifact at panels + n̄·w² scalars). */
    std::vector<Dense<Scalar>> diag_;
    /** Panel plans: panels_[r−1] binds [L_{r,0} … L_{r,r−1}]. */
    std::vector<MatVecPlan> panels_;
};

} // namespace sap

#endif // SAP_SOLVE_TRISOLVE_PLAN_HH
