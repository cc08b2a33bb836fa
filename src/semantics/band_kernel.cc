#include "semantics/band_kernel.hh"

namespace sap {

BandMatVecSemantics
runBandMatVecSemantics(const BandMatVecSpec &spec)
{
    // validate() ties x̄, the flags and b̄ to the band's shape, so the
    // loop below checks nothing per element.
    spec.validate();
    const Index w = spec.w();
    const Index rows = spec.rows();
    const std::uint8_t *external =
        spec.bIsExternal->data() + spec.firstRow;
    const Scalar *xbar = spec.xbar.elems();
    const Scalar *b = spec.externalB.elems();

    BandMatVecSemantics res;
    res.ybar = Vec<Scalar>(rows);
    Scalar *ybar = res.ybar.elems();
    for (Index i = 0; i < rows; ++i) {
        Scalar acc;
        if (external[i]) {
            acc = b[i];
        } else {
            // Feedback: ȳ_{i−w} re-enters as b̄_i (validate()
            // guarantees i >= w for feedback rows).
            acc = ybar[i - w];
            res.usedFeedback = true;
        }
        // Row i stores a(i, i) … a(i, i+w−1) (sub() == 0), against
        // x̄_i … x̄_{i+w−1}. ȳ_i enters at PE w−1 and sheds one
        // diagonal per cell on its way to PE 0: ascending d is the
        // array's MAC order, padding zeros included.
        const Scalar *a = spec.aRow(i);
        const Scalar *x = xbar + i;
        for (Index d = 0; d < w; ++d)
            acc = acc + a[d] * x[d];
        ybar[i] = acc;
    }
    return res;
}

} // namespace sap
