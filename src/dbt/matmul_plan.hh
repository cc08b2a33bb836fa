/**
 * @file
 * End-to-end mat-mul execution plan: DBT transformation, cycle-
 * accurate hexagonal execution with spiral feedback, and result
 * extraction. The user-facing API for C = A·B + E on a fixed w×w
 * hexagonal array.
 */

#ifndef SAP_DBT_MATMUL_PLAN_HH
#define SAP_DBT_MATMUL_PLAN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "dbt/matmul_exec.hh"
#include "dbt/matmul_io.hh"
#include "dbt/matmul_transform.hh"
#include "sim/hex_driver.hh"
#include "sim/spiral_feedback.hh"

namespace sap {

/** Result of a planned systolic mat-mul execution. */
struct MatMulPlanResult
{
    /** The final C = A·B + E (original n×m shape). */
    Dense<Scalar> c;
    /** Measured statistics (paper step-count convention). */
    RunStats stats;
    /** Raw edge-to-edge cycles. */
    Cycle totalCycles = 0;
    /** Feedback measurements (delays, storage, topology audit). */
    std::shared_ptr<SpiralFeedback> feedback;
};

/**
 * Reusable execution plan for one (A, B) pair on one array size.
 *
 * Construction does *all* plan work: the DBT transform, the Appendix
 * I/O composition, and the scalar-level routing tables (where every
 * I-band input comes from, where every O-band output goes). run(e)
 * only streams data through the array, so a plan cached by the
 * serving layer amortizes the full dense→band build across requests.
 * The plan stores nothing per cycle: the hex driver derives every
 * port event from the bands' shape (sim/hex_driver.hh).
 *
 * Thread-compatibility: const member functions are safe to call
 * concurrently (each run owns its transient state).
 */
class MatMulPlan
{
  public:
    /**
     * @param a Dense A (n×p).
     * @param b Dense B (p×m).
     * @param w Hexagonal array size.
     */
    MatMulPlan(const Dense<Scalar> &a, const Dense<Scalar> &b, Index w);

    /** The underlying transform. */
    const MatMulTransform &transform() const { return transform_; }
    /** The Appendix I/O composer. */
    const IoComposer &composer() const { return composer_; }
    /** Dimensions record. */
    const MatMulDims &dims() const { return transform_.dims(); }

    /**
     * Execute C = A·B + E on the simulated hexagonal array with
     * spiral feedback. Every addition happens inside the array; the
     * host only routes the feedback values at their scheduled
     * cycles.
     *
     * @param e Additive matrix (n×m); zero matrix for plain C = A·B.
     */
    MatMulPlanResult run(const Dense<Scalar> &e) const;

    /** Fast block-level execution (the algebraic oracle). */
    MatMulExecResult runBlockLevel(const Dense<Scalar> &e) const;

    /**
     * Semantics replay of run() (src/semantics/): every O value
     * accumulated in the array's MAC order with the feedback
     * composition replayed through the routing tables, so C is
     * bit-identical to the simulation (runBlockLevel() is not —
     * it accumulates block-wise); stats from analysis/formulas.hh,
     * no feedback measurement object.
     */
    MatMulPlanResult runSemantics(const Dense<Scalar> &e) const;

  private:
    /** Precomputed source of one in-band I position. */
    struct InputRoute
    {
        enum class Kind : std::uint8_t { Zero, FromE, FromO };
        Kind kind = Kind::Zero;
        bool irregular = false; ///< FromO: irregular spiral transfer
        Index r = 0;            ///< FromE: padded E row; FromO: O row
        Index c = 0;            ///< FromE: padded E col; FromO: O col
    };

    /** Flat index of in-band position (i, j), |i−j| <= w−1. */
    std::size_t bandIdx(Index i, Index j) const;

    MatMulTransform transform_;
    IoComposer composer_;

    // Scalar routing tables keyed by bandIdx(): built once at
    // construction, read-only during run().
    std::vector<InputRoute> routes_;
    std::vector<Index> extract_row_; ///< padded C row, −1 = discard
    std::vector<Index> extract_col_;
    /** FromO routes per SpiralFeedback delay class, so run() sizes
     *  its feedback records once. */
    Index main_diag_transfers_ = 0;
    Index pair_transfers_ = 0;
    Index irregular_transfers_ = 0;
};

} // namespace sap

#endif // SAP_DBT_MATMUL_PLAN_HH
