#include "sim/linear_array.hh"

#include "base/logging.hh"

namespace sap {

LinearArray::LinearArray(Index w)
    : w_(w), x_regs_(static_cast<std::size_t>(w)),
      y_regs_(static_cast<std::size_t>(w)),
      a_in_(static_cast<std::size_t>(w)),
      pe_macs_(static_cast<std::size_t>(w), 0),
      last_active_(static_cast<std::size_t>(w), false)
{
    SAP_ASSERT(w >= 1, "array needs at least one PE");
}

void
LinearArray::step()
{
    // Combinational input wires for this cycle.
    //   x wire of PE p: external x_in for p == 0, else x_regs_[p-1].
    //   y wire of PE p: external y_in for p == w-1, else y_regs_[p+1].
    //
    // Both passes update the stream registers in place — this is the
    // simulator's hottest loop and must not allocate per cycle. The
    // ascending y pass may write y_regs_[p] before reading
    // y_regs_[p+1] because iteration p only reads the register that
    // iteration p+1 writes; the x shift runs afterwards so the x
    // wires above still see the pre-shift registers.
    for (Index p = 0; p < w_; ++p) {
        Sample a = a_in_[p];
        Sample x = (p == 0) ? x_in_ : x_regs_[p - 1];
        Sample y = (p == w_ - 1) ? y_in_ : y_regs_[p + 1];
        last_active_[p] = a.valid && x.valid && y.valid;
        if (last_active_[p]) {
            y_regs_[p] = Sample::of(y.value + a.value * x.value);
            ++useful_macs_;
            ++pe_macs_[p];
        } else {
            // No coefficient (or no partner): the y sample passes
            // through unchanged; a lone coefficient is dropped.
            y_regs_[p] = y;
        }
    }
    y_out_ = y_regs_[0];

    // Commit the x shift (synchronous update).
    x_out_ = x_regs_[w_ - 1];
    for (Index p = w_ - 1; p > 0; --p)
        x_regs_[p] = x_regs_[p - 1];
    x_regs_[0] = x_in_;

    // Inputs are consumed; clear for the next cycle.
    x_in_ = Sample::bubble();
    y_in_ = Sample::bubble();
    for (Index p = 0; p < w_; ++p)
        a_in_[p] = Sample::bubble();

    ++now_;
}

} // namespace sap
