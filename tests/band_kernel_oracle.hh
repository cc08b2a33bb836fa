/**
 * @file
 * The band mat-vec semantics kernel as first written: every
 * coefficient read through the bounds-checked Band::at(i, i + d) and
 * every vector element through Vec::operator[]. Same operation
 * order as runBandMatVecSemantics, checked at every step, which
 * makes it the row-pointer kernel's bit-identity oracle.
 */

#ifndef SAP_TESTS_BAND_KERNEL_ORACLE_HH
#define SAP_TESTS_BAND_KERNEL_ORACLE_HH

#include "semantics/band_kernel.hh"

namespace sap {
namespace oracle {

inline BandMatVecSemantics
bandMatVecAt(const BandMatVecSpec &spec)
{
    spec.validate();
    const Index w = spec.w();
    const Index rows = spec.rows();
    const Band<Scalar> &abar = *spec.abar;
    const Index first = spec.firstRow;

    BandMatVecSemantics res;
    res.ybar = Vec<Scalar>(rows);
    for (Index i = 0; i < rows; ++i) {
        Scalar acc;
        if ((*spec.bIsExternal)[static_cast<std::size_t>(first + i)]) {
            acc = spec.externalB[i];
        } else {
            acc = res.ybar[i - w];
            res.usedFeedback = true;
        }
        for (Index d = 0; d < w; ++d)
            acc = acc + abar.at(first + i, first + i + d) * spec.xbar[i + d];
        res.ybar[i] = acc;
    }
    return res;
}

} // namespace oracle
} // namespace sap

#endif // SAP_TESTS_BAND_KERNEL_ORACLE_HH
