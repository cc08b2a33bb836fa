#include "sim/hex_driver.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sim/hex_array.hh"

namespace sap {

namespace {

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

} // namespace

void
HexBandSpec::validate() const
{
    SAP_ASSERT(abar != nullptr && bbar != nullptr, "missing bands");
    SAP_ASSERT(abar->sub() == 0, "Ā must be an upper band");
    SAP_ASSERT(bbar->super() == 0, "B̄ must be a lower band");
    SAP_ASSERT(abar->super() == bbar->sub(),
               "Ā and B̄ must share the bandwidth");
    SAP_ASSERT(abar->rows() == abar->cols() &&
               bbar->rows() == bbar->cols() &&
               abar->rows() == bbar->rows(),
               "Ā and B̄ must be square of equal order");
    SAP_ASSERT(inputValue && onOutput, "missing I/O callbacks");
}

HexRunResult
runHexBandMatMul(const HexBandSpec &spec)
{
    spec.validate();
    const Index w = spec.w();
    const Index N = spec.order();
    const Band<Scalar> &abar = *spec.abar;
    const Band<Scalar> &bbar = *spec.bbar;
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
            array.setCIn(j - i, Sample::of(spec.inputValue(i, j)));
        });

        array.step();

        forEachHexExit(N, w, tau, [&](Index i, Index j) {
            Sample out = array.cOut(j - i);
            SAP_ASSERT(out.valid, "missing output at (", i, ",", j,
                       ") cycle ", tau);
            spec.onOutput(i, j, out.value, tau);
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
