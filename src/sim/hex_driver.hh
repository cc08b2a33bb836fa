/**
 * @file
 * Input scheduling and execution driver for band matrix-matrix
 * multiplication on the hexagonal array.
 *
 * Schedule (derived in DESIGN.md §4.4; 0-based cycles with a global
 * staging offset of w−1 so that all stream items can enter at the
 * array edges). These formulas are the implementation: the driver
 * computes every port event from them as it runs and stores no
 * per-cycle lists.
 *
 *   MAC for (i, j, k)  fires in PE (k−i, k−j) at τ = i+j+k + (w−1)
 *   a(i, k)  enters row r = k−i   at τ = i + 2k          = 3k − r
 *   b(k, j)  enters col q = k−j   at τ = 2k + j          = 3k − q
 *   c(i, j)  enters diagonal δ = j−i at τ = i + j + max(i,j) + w−1
 *                                      = 3·min(i,j) + 2|δ| + w−1
 *   c(i, j)  exits after step       τ = i + j + min(i,j) + 2w−2
 *                                      = 3·min(i,j) + |δ| + 2w−2
 *
 * Every port therefore fires every third cycle on a fixed phase
 * (r, q ≡ −τ; |δ| ≡ −(τ−w+1) on entry and ≡ τ−2w+2 on exit, all
 * mod 3), so on each cycle a driver visits only the ports that are
 * due, stepping through them three apart.
 *
 * The paper's step count T = 3w·p̄n̄m̄ + 4w − 5 counts from the first
 * useful MAC to the last exit (inclusive); the driver measures both
 * this and the raw edge-to-edge cycle count.
 */

#ifndef SAP_SIM_HEX_DRIVER_HH
#define SAP_SIM_HEX_DRIVER_HH

#include <functional>

#include "analysis/metrics.hh"
#include "base/types.hh"
#include "mat/band.hh"
#include "mat/dense.hh"

namespace sap {

/**
 * A band mat-mul problem in array-ready form: O = band(Ā·B̄) + I.
 *
 * The input band I and output band O are 2w−1 wide. `inputValue`
 * abstracts where I comes from: for a plain product it reads a
 * constant band; for the DBT plan it implements the Appendix
 * composition (E or fed-back O values).
 */
struct HexBandSpec
{
    /** Upper band Ā (square, sub()==0, super()==w−1). */
    const Band<Scalar> *abar = nullptr;
    /** Lower band B̄ (square, sub()==w−1, super()==0). */
    const Band<Scalar> *bbar = nullptr;

    /**
     * I-band value for position (i, j); called exactly once per
     * in-band position, in nondecreasing injection-time order.
     */
    std::function<Scalar(Index i, Index j)> inputValue;

    /**
     * Observer invoked when the O-band value at (i, j) leaves the
     * array after cycle `exit_cycle`.
     */
    std::function<void(Index i, Index j, Scalar v, Cycle exit_cycle)>
        onOutput;

    /** Array size = bandwidth. */
    Index w() const { return abar->super() + 1; }
    /** Scalar order N. */
    Index order() const { return abar->rows(); }

    /** Shape consistency checks (asserts on failure). */
    void validate() const;
};

/** Result of one hexagonal execution. */
struct HexRunResult
{
    /** Measured statistics; cycles uses the paper's convention
     *  (first MAC to last exit, inclusive). */
    RunStats stats;
    /** Raw edge-to-edge cycles executed. */
    Cycle totalCycles = 0;
    /** Cycle of the first useful MAC. */
    Cycle firstMac = -1;
    /** Cycle after which the last O item left the array. */
    Cycle lastExit = -1;
};

/** Last cycle of an order-@p n problem: the exit of (n−1, n−1). */
inline Cycle
hexLastCycle(Index n, Index w)
{
    return 3 * (n - 1) + 2 * w - 2;
}

/**
 * Call f(i, j) for every O position of an order-@p n problem that
 * leaves a width-@p w array after cycle @p tau (the exit formula
 * above, visiting only the due diagonals).
 */
template <class F>
void
forEachHexExit(Index n, Index w, Cycle tau, F &&f)
{
    const Cycle s = tau - (2 * w - 2); // = 3·min(i,j) + |δ|
    if (s < 0)
        return;
    // min(i,j) + |δ| = max(i,j) grows with |δ|: stop at the edge.
    for (Index d = s % 3; d < w && d <= s; d += 3) {
        const Index m = (s - d) / 3;
        if (m + d >= n)
            break;
        f(m, m + d);
        if (d > 0)
            f(m + d, m);
    }
}

/**
 * Execute one band mat-mul problem on the hexagonal array.
 * Input/output routing is delegated to the spec's callbacks.
 */
HexRunResult runHexBandMatMul(const HexBandSpec &spec);

} // namespace sap

#endif // SAP_SIM_HEX_DRIVER_HH
