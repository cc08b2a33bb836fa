#include "sim/hex_array.hh"

#include <algorithm>

#include "base/logging.hh"

namespace sap {

HexArray::HexArray(Index w)
    : w_(w),
      a_reg_(static_cast<std::size_t>(w * w)),
      b_reg_(static_cast<std::size_t>(w * w)),
      c_reg_(static_cast<std::size_t>(w * w)),
      a_in_(static_cast<std::size_t>(w)),
      b_in_(static_cast<std::size_t>(w)),
      c_in_(static_cast<std::size_t>(2 * w - 1))
{
    SAP_ASSERT(w >= 1, "hex array needs at least one PE");
}

void
HexArray::step()
{
    // Every stream shifts in place: step() is the hot loop and must
    // neither allocate nor copy a register file per cycle.
    //
    // b moves −r and passes through unchanged: shift whole rows
    // first (ascending r reads row r+1 before overwriting it), so
    // each PE's b register then holds its input wire.
    std::copy(b_reg_.begin() + w_, b_reg_.end(), b_reg_.begin());
    std::copy(b_in_.begin(), b_in_.end(), b_reg_.end() - w_);

    // a moves −q and c moves +(r, q): descending r reads c at
    // (r−1, q−1) and ascending q reads a at (r, q+1), each before
    // it is overwritten.
    for (Index r = w_ - 1; r >= 0; --r) {
        for (Index q = 0; q < w_; ++q) {
            const Sample a =
                (q == w_ - 1) ? a_in_[r] : a_reg_[idx(r, q + 1)];
            const Sample &b = b_reg_[idx(r, q)];
            const Sample c =
                (r == 0 || q == 0)
                    ? c_in_[static_cast<std::size_t>((r - q) + w_ - 1)]
                    : c_reg_[idx(r - 1, q - 1)];

            // Inner product step.
            a_reg_[idx(r, q)] = a;
            if (a.valid && b.valid && c.valid) {
                c_reg_[idx(r, q)] = Sample::of(c.value + a.value * b.value);
                ++useful_macs_;
                if (first_mac_ < 0)
                    first_mac_ = now_;
            } else {
                c_reg_[idx(r, q)] = c;
            }
        }
    }

    for (Index r = 0; r < w_; ++r)
        a_in_[r] = Sample::bubble();
    for (Index q = 0; q < w_; ++q)
        b_in_[q] = Sample::bubble();
    for (Index dlt = 0; dlt < 2 * w_ - 1; ++dlt)
        c_in_[static_cast<std::size_t>(dlt)] = Sample::bubble();

    ++now_;
}

} // namespace sap
