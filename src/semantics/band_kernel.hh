/**
 * @file
 * Semantics replay of the linear contraflow array: the band mat-vec
 * accumulation performed as plain host arithmetic, in exactly the
 * order the array performs it.
 *
 * The paper's DBT scheme fixes the operation order independently of
 * problem size: row i of the band starts from b̄_i (external or the
 * fed-back ȳ_{i−w}) and accumulates a(i, i+d)·x̄_{i+d} for
 * d = 0 … w−1 as it traverses the array from PE w−1 down to PE 0.
 * Replaying that order with the same `acc + a·x` expression the PE
 * evaluates (sim/linear_array.cc) makes the result bit-identical to
 * the cycle simulation — which is what lets the fast execution mode
 * (engine/engine.hh, ExecMode::Fast) serve numerics without paying
 * for simulation, and what validate mode diffs against.
 *
 * The kernel walks each band row through Band::rowPtr: one plain
 * load of a and of x̄ per MAC, with the spec's shape checked once
 * up front. Multiply and add stay separate expressions; no flag may
 * contract them into a fused multiply-add, which would round once
 * where the array rounds twice.
 */

#ifndef SAP_SEMANTICS_BAND_KERNEL_HH
#define SAP_SEMANTICS_BAND_KERNEL_HH

#include "mat/vector.hh"
#include "sim/linear_driver.hh"

namespace sap {

/** Output of the band mat-vec semantics kernel. */
struct BandMatVecSemantics
{
    /** Complete transformed output ȳ (finals and partials),
     *  bit-identical to LinearRunResult::ybar. */
    Vec<Scalar> ybar;
    /** True if any row consumed the feedback path (m̄ ≥ 2). */
    bool usedFeedback = false;
};

/**
 * Replay @p spec in the array's operation order on the host.
 *
 * @pre spec passes BandMatVecSpec::validate().
 */
BandMatVecSemantics runBandMatVecSemantics(const BandMatVecSpec &spec);

} // namespace sap

#endif // SAP_SEMANTICS_BAND_KERNEL_HH
