#include "sim/hex_driver.hh"

namespace sap {

void
validateHexBands(const Band<Scalar> &abar, const Band<Scalar> &bbar)
{
    SAP_ASSERT(abar.sub() == 0, "Ā must be an upper band");
    SAP_ASSERT(bbar.super() == 0, "B̄ must be a lower band");
    SAP_ASSERT(abar.super() == bbar.sub(),
               "Ā and B̄ must share the bandwidth");
    SAP_ASSERT(abar.rows() == abar.cols() &&
               bbar.rows() == bbar.cols() &&
               abar.rows() == bbar.rows(),
               "Ā and B̄ must be square of equal order");
}

} // namespace sap
