/**
 * @file
 * Input scheduling and execution driver for band matrix-vector
 * multiplication on the linear contraflow array, including the
 * paper's feedback loop.
 *
 * Schedule (derived in DESIGN.md §4.2, 0-based cycles):
 *
 *   x_j       enters PE 0    at cycle 2j
 *   b̄_i/fb_i  enters PE w-1  at cycle 2i + w - 1
 *   a(i, i+d) fires in PE (w-1-d) at cycle 2i + w - 1 + d
 *   ȳ_i       is computed by PE 0 during cycle 2i + 2w - 2
 *
 * The driver computes every port event from these formulas as it
 * runs (a coefficient is due in PE p when t − p is even, so each
 * cycle visits every other PE). With these schedules the transformed
 * problem of the paper needs exactly T = 2w·n̄m̄ + 2w − 3 cycles and
 * the feedback path is a depth-w register chain — both asserted by
 * tests.
 */

#ifndef SAP_SIM_LINEAR_DRIVER_HH
#define SAP_SIM_LINEAR_DRIVER_HH

#include <cstdint>
#include <vector>

#include "analysis/metrics.hh"
#include "base/types.hh"
#include "mat/band.hh"
#include "mat/vector.hh"
#include "sim/trace.hh"

namespace sap {

/**
 * A band mat-vec problem instance in array-ready form.
 *
 * This is deliberately independent of the DBT layer: a plain band
 * matrix problem is the special case where every b is external. The
 * DBT plan fills in the feedback schedule. Which ȳ are final is the
 * extractor's business (MatVecTransform::extractY), not the array's.
 *
 * The band and the routing flags are borrowed: they depend on the
 * matrix alone, so a plan builds them once and every run's spec
 * points at them. Their owner must outlive the spec. A spec may run
 * a range of the band's rows, so the two halves of a split problem
 * are two ranges of one band; its x̄ and b̄ are the range's own.
 */
struct BandMatVecSpec
{
    /** Upper-band matrix (sub() == 0, super() == w-1). */
    const Band<Scalar> *abar = nullptr;
    /** Transformed input vector x̄ (length rows() + w − 1). */
    Vec<Scalar> xbar;
    /** Per band row (abar->rows() entries): 1 = inject externalB,
     *  0 = take the fed-back ȳ_{i−w}. */
    const std::vector<std::uint8_t> *bIsExternal = nullptr;
    /** External injection values, one per row of the range (only
     *  read where bIsExternal). */
    Vec<Scalar> externalB;
    /** The range: band rows [firstRow, firstRow + rows()); row i of
     *  the spec is band row firstRow + i. */
    Index firstRow = 0;
    /** Rows in the range; −1 = through the band's last row. */
    Index rowCount = -1;

    /** Array size = bandwidth of abar. */
    Index w() const { return abar->super() + 1; }
    /** Scalar rows. */
    Index rows() const
    {
        return rowCount < 0 ? abar->rows() - firstRow : rowCount;
    }
    /** Row i's w coefficients a(i, i) … a(i, i+w−1). */
    const Scalar *aRow(Index i) const { return abar->rowPtr(firstRow + i); }
    /** True if row i injects externalB[i]. */
    bool external(Index i) const
    {
        return (*bIsExternal)[static_cast<std::size_t>(firstRow + i)] != 0;
    }

    /** Basic shape consistency checks (asserts on failure). */
    void validate() const;
};

/** Result of one driven execution. */
struct LinearRunResult
{
    /** Complete transformed output ȳ (finals and partials). */
    Vec<Scalar> ybar;
    /** Measured statistics. */
    RunStats stats;
    /**
     * Observed feedback delay in cycles (output availability to
     * reuse); the paper's claim is that this equals w.
     */
    Cycle observedFeedbackDelay = -1;
    /** Registers in the feedback chain (delay line depth). */
    Index feedbackRegisters = 0;
    /** Optional port-level event log. */
    Trace trace;
};

/**
 * Execute one band mat-vec problem on the linear array.
 *
 * @param spec Problem in array-ready form.
 * @param record_trace Record port events (Fig. 3 reproduction).
 */
LinearRunResult runBandMatVec(const BandMatVecSpec &spec,
                              bool record_trace = false);

/**
 * As runBandMatVec, additionally recording the per-cycle PE activity
 * bitmap (activity[cycle][pe]). Used by the PE-grouping model to
 * prove realizability.
 */
LinearRunResult
runBandMatVecWithActivity(const BandMatVecSpec &spec,
                          std::vector<std::vector<bool>> &activity);

/**
 * Execute two independent problems on one array, interleaved on
 * alternate cycles (the paper's "overlapping" utilization booster).
 *
 * @pre Both specs share the same bandwidth w.
 * @return Per-problem results plus combined stats; the combined
 *         cycle count realizes T = w·n̄m̄ + 2w − 2 when the two
 *         problems are the halves of one transformed problem.
 */
struct InterleavedRunResult
{
    LinearRunResult first;
    LinearRunResult second;
    RunStats combined;
};

InterleavedRunResult runInterleaved(const BandMatVecSpec &first,
                                    const BandMatVecSpec &second);

} // namespace sap

#endif // SAP_SIM_LINEAR_DRIVER_HH
