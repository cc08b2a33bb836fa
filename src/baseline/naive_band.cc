#include "baseline/naive_band.hh"

#include "base/logging.hh"
#include "mat/band.hh"
#include "sim/linear_driver.hh"

namespace sap {

NaiveBandCost
runNaiveBand(const Dense<Scalar> &a, const Vec<Scalar> &x,
             const Vec<Scalar> &b, Index w, Vec<Scalar> *y_out)
{
    const Index n = a.rows();
    const Index m = a.cols();
    SAP_ASSERT(x.size() == m && b.size() == n, "shape mismatch");

    NaiveBandCost cost;
    cost.arraySize = n + m - 1;
    cost.fitsFixedArray = cost.arraySize <= w;

    // Embed the dense matrix as an upper band of bandwidth n+m−1:
    // band row i, band column i+d holds A(i, i+d−(n−1)) — i.e. the
    // matrix is skewed so its leftmost diagonal becomes offset 0.
    const Index bw = cost.arraySize;
    Band<Scalar> band(n, n + bw - 1, 0, bw - 1);
    for (Index i = 0; i < n; ++i) {
        for (Index d = 0; d < bw; ++d) {
            Index j = i + d - (n - 1);
            if (j >= 0 && j < m)
                band.ref(i, i + d) = a(i, j);
        }
    }
    Vec<Scalar> xbar(n + bw - 1);
    for (Index col = 0; col < n + bw - 1; ++col) {
        Index j = col - (n - 1);
        if (j >= 0 && j < m)
            xbar[col] = x[j];
    }

    const std::vector<std::uint8_t> external(static_cast<std::size_t>(n),
                                             1);
    BandMatVecSpec spec;
    spec.abar = &band;
    spec.xbar = xbar;
    spec.externalB = b;
    spec.bIsExternal = &external;

    LinearRunResult r = runBandMatVec(spec);
    cost.steps = r.stats.cycles;
    // Only the n·m genuine products count as useful work; the
    // zero-padded band slots are waste, which is the point of the
    // comparison.
    cost.utilization =
        static_cast<double>(n * m) /
        (static_cast<double>(cost.arraySize) *
         static_cast<double>(cost.steps));
    if (y_out)
        *y_out = r.ybar;
    return cost;
}

} // namespace sap
