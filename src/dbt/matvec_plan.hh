/**
 * @file
 * End-to-end mat-vec execution plan: DBT transformation + systolic
 * execution + result extraction.
 *
 * This is the library's primary user-facing API for y = A·x + b on a
 * fixed-size linear array: construct a plan once per matrix, then
 * run it against any number of (x, b) pairs.
 */

#ifndef SAP_DBT_MATVEC_PLAN_HH
#define SAP_DBT_MATVEC_PLAN_HH

#include <array>
#include <memory>

#include "dbt/matvec_transform.hh"
#include "sim/grouped_array.hh"
#include "sim/linear_driver.hh"

namespace sap {

/** Result of a planned systolic mat-vec execution. */
struct MatVecPlanResult
{
    /** The final y = A·x + b (length n). */
    Vec<Scalar> y;
    /** Measured execution statistics. */
    RunStats stats;
    /** Observed feedback delay (paper: equals w). */
    Cycle observedFeedbackDelay = -1;
    /** Registers in the feedback chain (paper: w). */
    Index feedbackRegisters = 0;
    /** Port trace when requested. */
    Trace trace;
};

/**
 * Reusable execution plan for one matrix on one array size. It keeps
 * the transformed band and its per-row routing flags, nothing per
 * cycle: each run derives the port timing from the band's shape.
 *
 * Thread-compatibility: const member functions are safe to call
 * concurrently from multiple threads (each run builds its own
 * simulator).
 */
class MatVecPlan
{
  public:
    /**
     * @param a The dense matrix A (any shape).
     * @param w The fixed systolic array size.
     */
    MatVecPlan(const Dense<Scalar> &a, Index w);

    /** The underlying DBT transform. */
    const MatVecTransform &transform() const { return transform_; }

    /** Convenience access to the dimensions record. */
    const MatVecDims &dims() const { return transform_.dims(); }

    /**
     * Execute y = A·x + b on the simulated array.
     *
     * @param x Input vector (length m).
     * @param b Additive vector (length n).
     * @param record_trace Record port events for figure dumps.
     */
    MatVecPlanResult run(const Vec<Scalar> &x, const Vec<Scalar> &b,
                         bool record_trace = false) const;

    /**
     * Execute with the paper's "overlapping" optimization: the
     * transformed problem is split into two disjoint sub-problems
     * (at an original-block-row boundary, the dotted line of
     * Fig. 2.b) that interleave on alternate cycles.
     *
     * @pre dims().nbar >= 2 (a single block row cannot be split
     *      without breaking a feedback chain).
     */
    MatVecPlanResult runOverlapped(const Vec<Scalar> &x,
                                   const Vec<Scalar> &b) const;

    /**
     * Execute with 2:1 PE grouping (A = ⌈w/2⌉ physical PEs).
     * Returns both logical results and grouped statistics.
     */
    GroupedRunResult runGroupedPlan(const Vec<Scalar> &x,
                                    const Vec<Scalar> &b) const;

    /**
     * Semantics replay of run() (src/semantics/): the band
     * accumulation performed as host arithmetic in the array's
     * operation order, so y is bit-identical to the simulation;
     * stats come from analysis/formulas.hh instead of measurement,
     * and no trace is produced.
     */
    MatVecPlanResult runSemantics(const Vec<Scalar> &x,
                                  const Vec<Scalar> &b) const;

    /** Semantics replay of runOverlapped() (bit-identical, no
     *  trace, formula-derived stats). */
    MatVecPlanResult runOverlappedSemantics(const Vec<Scalar> &x,
                                            const Vec<Scalar> &b) const;

    /** Semantics replay of runGroupedPlan(); conflictFree is true
     *  by construction (the schedule proof lives in the sim). */
    GroupedRunResult runGroupedSemantics(const Vec<Scalar> &x,
                                         const Vec<Scalar> &b) const;

    /**
     * Build the array-ready spec (exposed for drivers and tests).
     * The returned spec points at this plan's band matrix and
     * routing flags, so the plan must outlive it; only x̄ and the
     * external b̄ values are built per call.
     */
    BandMatVecSpec makeSpec(const Vec<Scalar> &x,
                            const Vec<Scalar> &b) const;

    /**
     * The two halves of makeSpec(x, b) that runOverlapped()
     * interleaves: band rows [0, cut) and [cut, end), cut after
     * ⌈n̄/2⌉ original block rows (the paper's balanced cut). The cut
     * is a multiple of m̄ band block rows, so no feedback chain
     * crosses it. Both specs point at this plan's band and flags.
     *
     * @pre dims().nbar >= 2.
     */
    std::array<BandMatVecSpec, 2> makeSplitSpecs(const Vec<Scalar> &x,
                                                 const Vec<Scalar> &b) const;

  private:
    MatVecTransform transform_;
    /** Per scalar row: b̄ is external (else fed back). It depends on
     *  the shape alone, so every run's spec borrows it. */
    std::vector<std::uint8_t> b_external_;
};

/**
 * Run two *independent* problems on one array, interleaved
 * (the paper's other overlapping option). Both plans must share w.
 */
struct TwoProblemResult
{
    MatVecPlanResult first;
    MatVecPlanResult second;
    RunStats combined;
};

TwoProblemResult runTwoProblems(const MatVecPlan &pa,
                                const Vec<Scalar> &xa,
                                const Vec<Scalar> &ba,
                                const MatVecPlan &pb,
                                const Vec<Scalar> &xb,
                                const Vec<Scalar> &bb);

} // namespace sap

#endif // SAP_DBT_MATVEC_PLAN_HH
