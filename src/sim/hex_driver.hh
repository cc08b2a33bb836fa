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
 * runHexBandMatMul() is a template on its bands and its I and O
 * callables, so a caller's band layout and routing compile into the
 * cycle loop instead of going through a type-erased call per port
 * event; there is one driver.
 *
 * The paper's step count T = 3w·p̄n̄m̄ + 4w − 5 counts from the first
 * useful MAC to the last exit (inclusive); the driver measures both
 * this and the raw edge-to-edge cycle count.
 */

#ifndef SAP_SIM_HEX_DRIVER_HH
#define SAP_SIM_HEX_DRIVER_HH

#include <algorithm>

#include "analysis/metrics.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "sim/hex_array.hh"

namespace sap {

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

/** Cycle after which the O value at (i, j) leaves a width-@p w
 *  array (the exit formula above). */
inline Cycle
hexExitCycle(Index i, Index j, Index w)
{
    return i + j + std::min(i, j) + 2 * w - 2;
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
 * Call f(i, j) for every I position of an order-@p n problem that
 * enters a width-@p w array on cycle @p tau (the c-entry formula,
 * visiting only the due diagonals).
 */
template <class F>
void
forEachHexEntry(Index n, Index w, Cycle tau, F &&f)
{
    const Cycle s = tau - (w - 1); // = 3·min(i,j) + 2|δ|
    if (s < 0)
        return;
    // max(i,j) = min(i,j) + |δ| grows with |δ|: stop at the edge.
    for (Index d = (3 - s % 3) % 3; d < w && 2 * d <= s; d += 3) {
        const Index m = (s - 2 * d) / 3;
        if (m + d >= n)
            break;
        f(m, m + d);
        if (d > 0)
            f(m + d, m);
    }
}

/**
 * Execute one band mat-mul problem O = band(Ā·B̄) + I on the
 * hexagonal array. The input band I and output band O are 2w−1
 * wide, where w = Ā.super() + 1 is the array size.
 *
 * @param abar Upper band Ā (square, sub()==0, super()==w−1): a
 *        Band<Scalar>, or a MappedBand that reads it out of A.
 * @param bbar Lower band B̄ (square, sub()==w−1, super()==0), as Ā.
 * @param input_value Scalar(Index i, Index j): the I value of
 *        in-band position (i, j); called exactly once per position,
 *        in nondecreasing injection-time order.
 * @param on_output void(Index i, Index j, Scalar v, Cycle exit):
 *        the O value at (i, j) left the array after cycle exit.
 */
template <class ABand, class BBand, class In, class Out>
HexRunResult
runHexBandMatMul(const ABand &abar, const BBand &bbar, In &&input_value,
                 Out &&on_output)
{
    SAP_ASSERT(abar.sub() == 0 && bbar.super() == 0 &&
                   abar.super() == bbar.sub(),
               "Ā and B̄ must be upper and lower bands of one bandwidth");
    SAP_ASSERT(abar.rows() == abar.cols() && bbar.rows() == bbar.cols() &&
                   abar.rows() == bbar.rows(),
               "Ā and B̄ must be square of equal order");
    const Index w = abar.super() + 1;
    const Index N = abar.rows();
    HexArray array(w);

    const Cycle horizon = hexLastCycle(N, w);

    HexRunResult res;
    for (Cycle tau = 0; tau <= horizon; ++tau) {
        // a(i, k) enters row r = k − i and b(k, j) column q = k − j
        // at 3k − r: the due ports are r ≡ −τ (mod 3), each with
        // k = (τ + r)/3, while i = k − r >= 0 and k <= N − 1.
        const Cycle rmax =
            std::min<Cycle>({w - 1, tau / 2, 3 * (N - 1) - tau});
        for (Index r = (3 - tau % 3) % 3; r <= rmax; r += 3) {
            const Index k = (tau + r) / 3;
            array.setAIn(r, Sample::of(abar.at(k - r, k)));
            array.setBIn(r, Sample::of(bbar.at(k, k - r)));
        }

        forEachHexEntry(N, w, tau, [&](Index i, Index j) {
            array.setCIn(j - i, Sample::of(input_value(i, j)));
        });

        array.step();

        forEachHexExit(N, w, tau, [&](Index i, Index j) {
            Sample out = array.cOut(j - i);
            SAP_ASSERT(out.valid, "missing output at (", i, ",", j,
                       ") cycle ", tau);
            on_output(i, j, out.value, tau);
            res.lastExit = tau;
        });
    }

    res.totalCycles = horizon + 1;
    res.firstMac = array.firstMacCycle();
    res.stats.peCount = array.peCount();
    res.stats.usefulMacs = array.usefulMacs();
    // The paper's step count: from the first useful MAC to the
    // delivery of the last output through the exit-edge register
    // (one cycle after its final hop), both inclusive. Under this
    // convention the measurement reproduces T = 3w·p̄n̄m̄ + 4w − 5
    // exactly for every shape (see EXPERIMENTS.md).
    res.stats.cycles = (res.lastExit + 1) - res.firstMac + 1;
    return res;
}

} // namespace sap

#endif // SAP_SIM_HEX_DRIVER_HH
