/**
 * @file
 * Baseline: blocked mat-vec WITHOUT the paper's feedback.
 *
 * Each w×w block A_ij is PRT-packed and run through the array as an
 * independent band problem; partial results are accumulated on the
 * host ("calculation external to the array", which the paper's
 * feedback eliminates). Consecutive block problems cannot overlap in
 * the array — a fresh problem's y stream would collide with the
 * previous one's — so each block pays the full pipeline fill/drain,
 * and the host performs n̄·m̄·w additional adds.
 *
 * This is the natural straw-man the paper improves on: same
 * triangular packing, no inter-block chaining.
 */

#ifndef SAP_BASELINE_BLOCK_NO_FEEDBACK_HH
#define SAP_BASELINE_BLOCK_NO_FEEDBACK_HH

#include <vector>

#include "analysis/metrics.hh"
#include "dbt/matvec_plan.hh"
#include "mat/dense.hh"
#include "mat/vector.hh"

namespace sap {

/** Result of the no-feedback blocked execution. */
struct BlockNoFeedbackResult
{
    Vec<Scalar> y;        ///< y = A·x + b
    RunStats stats;       ///< combined over all block runs
    Index hostAdds = 0;   ///< accumulations done outside the array
    Cycle perBlockCycles = 0; ///< array steps per block problem
};

/**
 * Reusable no-feedback plan for one (A, w) pair: the n̄·m̄ per-block
 * PRT plans are built once, and any number of (x, b) operand pairs
 * stream through them — the baseline's analogue of the prepared-
 * plan protocol, so the registry-wrapped engine ("no-feedback")
 * amortizes exactly like the paper's topologies even though each
 * block still pays the full fill/drain (4w − 3 cycles) and the host
 * performs n̄·m̄·w + n accumulations per request.
 *
 * Thread-compatibility: const member functions are safe to call
 * concurrently (each run builds its own simulators).
 */
class BlockNoFeedbackPlan
{
  public:
    /**
     * @param a The dense matrix A (any shape).
     * @param w The fixed systolic array size.
     */
    BlockNoFeedbackPlan(const Dense<Scalar> &a, Index w);

    /**
     * True if this is bit for bit the plan of (@p a, w): the same
     * shape, and every block plan's band is the band of the block
     * gathered again from @p a (MatVecTransform::builtFrom()).
     */
    bool builtFrom(const Dense<Scalar> &a) const;

    /** Execute y = A·x + b, one isolated array run per block. */
    BlockNoFeedbackResult run(const Vec<Scalar> &x,
                              const Vec<Scalar> &b) const;

    /**
     * Semantics replay of run() (src/semantics/): blocks replayed
     * through the mat-vec semantics kernel in the same order; y
     * bit-identical, stats from analysis/formulas.hh.
     */
    BlockNoFeedbackResult runSemantics(const Vec<Scalar> &x,
                                       const Vec<Scalar> &b) const;

  private:
    Index w_;
    Index rows_, cols_;
    Index nbar_, mbar_;
    /** Row-major (i·m̄ + j) per-block plans. */
    std::vector<MatVecPlan> blocks_;
};

/**
 * Solve y = A·x + b by running every w×w block separately and
 * summing on the host (one-shot convenience over
 * BlockNoFeedbackPlan).
 */
BlockNoFeedbackResult runBlockNoFeedback(const Dense<Scalar> &a,
                                         const Vec<Scalar> &x,
                                         const Vec<Scalar> &b, Index w);

} // namespace sap

#endif // SAP_BASELINE_BLOCK_NO_FEEDBACK_HH
