/**
 * @file
 * End-to-end mat-mul execution plan: DBT transformation, cycle-
 * accurate hexagonal execution with spiral feedback, and result
 * extraction. The user-facing API for C = A·B + E on a fixed w×w
 * hexagonal array. A plan is its per-matrix A and B plus a per-shape
 * skeleton, the band layout and routing tables that every plan of
 * one shape shares.
 *
 * The spiral-feedback records are per shape too. Each transfer is a
 * FromO route plus two cycles: the closed-form entry cycle of its
 * input and exit cycle of its source (sim/hex_driver.hh). Every run
 * asserts that port timing, every O value valid at its exit cycle
 * and every fed-back value captured before it is consumed, so the
 * skeleton records the transfers once and each result shares them.
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
    /** Feedback measurements (delays, storage, topology audit),
     *  shared with every run of the plan's shape. */
    std::shared_ptr<const SpiralFeedback> feedback;
};

/**
 * The shape-only half of a MatMulPlan: everything it needs that
 * depends on (n, p, m, w) and never on the matrix values. That is
 * the MatMulBandMap through which a plan reads Ā and B̄ out of its A
 * and B, the Appendix I/O composer, the scalar routing tables (where
 * every I-band input comes from, where every O-band output goes),
 * and the spiral-feedback records of a run (file comment).
 *
 * Immutable once built, so every plan of one shape shares one
 * skeleton through intern(). Building one runs the shape-only
 * checks: the map's placement assert, IoComposer::validate(), the
 * block-schedule coverage, the range assert of every feedback route,
 * and the feedback audit (no value re-enters before it leaves, none
 * leaves its loop).
 */
class MatMulSkeleton
{
  public:
    /** Precomputed source of one in-band I position. */
    struct InputRoute
    {
        enum class Kind : std::uint8_t { Zero, FromE, FromO };
        Kind kind = Kind::Zero;
        bool irregular = false; ///< FromO: irregular spiral transfer
        Index r = 0;            ///< FromE: padded E row; FromO: O row
        Index c = 0;            ///< FromE: padded E col; FromO: O col
    };

    /** Build the tables for @p dims and run the shape-only checks. */
    explicit MatMulSkeleton(const MatMulDims &dims);

    /**
     * The skeleton of @p dims's shape: the live one if some plan
     * still holds it, else a new one. The process-wide table keeps
     * only weak references, so a skeleton lives exactly as long as a
     * plan uses it and memory stays bounded by the plan caches.
     *
     * @param reused Set to true when a live skeleton was found, false
     *        when this call built one.
     */
    static std::shared_ptr<const MatMulSkeleton>
    intern(const MatMulDims &dims, bool *reused);

    /** Where the bands of this shape read A and B. */
    const std::shared_ptr<const MatMulBandMap> &map() const { return map_; }
    /** The Appendix I/O composer. */
    const IoComposer &composer() const { return composer_; }

    /** Flat index of in-band position (i, j), |i−j| <= w−1. */
    std::size_t bandIdx(Index i, Index j) const;
    /** Number of bandIdx() slots: N·(2w−1). */
    std::size_t slots() const { return routes_.size(); }

    /** Where the I value of bandIdx slot @p slot comes from. */
    const InputRoute &route(std::size_t slot) const
    {
        return routes_[slot];
    }
    /** Padded C position of the O value at @p slot; row −1 means
     *  the value is not part of C. */
    Index extractRow(std::size_t slot) const { return extract_row_[slot]; }
    /** @copydoc extractRow() */
    Index extractCol(std::size_t slot) const { return extract_col_[slot]; }

    /** The feedback transfers of a run of this shape, in the order
     *  a run injects them. */
    const std::shared_ptr<const SpiralFeedback> &feedback() const
    {
        return feedback_;
    }

  private:
    MatMulDims dims_;
    std::shared_ptr<const MatMulBandMap> map_;
    IoComposer composer_;
    // Routing tables keyed by bandIdx().
    std::vector<InputRoute> routes_;
    std::vector<Index> extract_row_;
    std::vector<Index> extract_col_;
    std::shared_ptr<const SpiralFeedback> feedback_;
};

/**
 * Reusable execution plan for one (A, B) pair on one array size.
 *
 * Construction does all plan work, in two parts. The per-matrix part
 * is one copy of A and of B. The per-shape part is the MatMulSkeleton,
 * built once per (n, p, m, w) and shared by every live plan of that
 * shape, whose band map reads Ā and B̄ out of A and B. run(e) only
 * streams data through the array, so a plan-cache miss on a shape
 * already live pays only for copying A and B. The plan stores nothing
 * per cycle: the hex driver derives every port event from the bands'
 * shape (sim/hex_driver.hh), and a run records no feedback; it shares
 * its skeleton's records.
 *
 * Thread-compatibility: const member functions are safe to call
 * concurrently (each run owns its transient state); construction is
 * safe from any number of threads.
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
    const IoComposer &composer() const { return skeleton_->composer(); }
    /** Dimensions record. */
    const MatMulDims &dims() const { return transform_.dims(); }

    /** The shape-only tables, shared with every plan of this shape. */
    const std::shared_ptr<const MatMulSkeleton> &skeleton() const
    {
        return skeleton_;
    }
    /** True if construction found this shape's skeleton live. */
    bool reusedSkeleton() const { return reused_skeleton_; }

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
    bool reused_skeleton_ = false;
    std::shared_ptr<const MatMulSkeleton> skeleton_;
    MatMulTransform transform_;
};

} // namespace sap

#endif // SAP_DBT_MATMUL_PLAN_HH
