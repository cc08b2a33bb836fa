/**
 * @file
 * Block-level algebraic executor for the transformed mat-vec
 * problem.
 *
 * Computes ȳ = Ā·x̄ + b̄ sequentially, honoring the feedback
 * semantics (b̄ of a fed-back block row *is* the previous block
 * row's ȳ). The tests cross-check the cycle-accurate simulator
 * against it.
 */

#ifndef SAP_TESTS_MATVEC_EXEC_HH
#define SAP_TESTS_MATVEC_EXEC_HH

#include "base/logging.hh"
#include "dbt/matvec_transform.hh"
#include "mat/vector.hh"

namespace sap {

/** Result of an algebraic transformed-problem execution. */
struct MatVecExecResult
{
    Vec<Scalar> ybar; ///< full transformed result vector
    Vec<Scalar> y;    ///< extracted original result (length n)
};

/**
 * Execute the transformed problem ȳ = Ā·x̄ + b̄ with feedback.
 *
 * @param t The DBT transform of A.
 * @param x Original x (length m).
 * @param b Original b (length n).
 */
inline MatVecExecResult
execTransformed(const MatVecTransform &t, const Vec<Scalar> &x,
                const Vec<Scalar> &b)
{
    const MatVecDims &d = t.dims();
    const Band<Scalar> &abar = t.abar();
    Vec<Scalar> xbar = t.transformX(x);

    Vec<Scalar> ybar(d.barRows());
    for (Index i = 0; i < d.barRows(); ++i) {
        // b̄_i: external injection or feedback of ȳ_{i−w} (the scalar
        // w rows earlier — same in-block offset, previous block row).
        Scalar acc;
        if (t.scalarIsExternalB(i)) {
            acc = t.externalB(b, i);
        } else {
            SAP_ASSERT(i - d.w >= 0, "feedback before first block");
            acc = ybar[i - d.w];
        }
        for (Index off = 0; off <= d.w - 1; ++off) {
            Index j = i + off;
            if (j < d.barCols())
                acc += abar.at(i, j) * xbar[j];
        }
        ybar[i] = acc;
    }

    return {ybar, t.extractY(ybar)};
}

} // namespace sap

#endif // SAP_TESTS_MATVEC_EXEC_HH
