#include "sim/hex_array.hh"

#include <algorithm>

#include "base/logging.hh"

namespace sap {

namespace {

std::size_t
ringFor(Index w)
{
    std::size_t ring = 2;
    while (ring <= static_cast<std::size_t>(w))
        ring *= 2;
    return ring;
}

} // namespace

HexArray::HexArray(Index w)
    : w_(w), ring_(ringFor(w)), mask_(ring_ - 1),
      a_(static_cast<std::size_t>(w) * ring_),
      b_(static_cast<std::size_t>(w) * ring_),
      c_(static_cast<std::size_t>(2 * w - 1) * ring_)
{
    SAP_ASSERT(w >= 1, "hex array needs at least one PE");
}

void
HexArray::step()
{
    // Nothing moves: on cycle τ the item at PE (r, q) is found by its
    // entry cycle (file comment), and a MAC updates its c item in
    // place. Each c item is at one PE per cycle, so the PEs may run
    // in any order.
    const Cycle tau = now_;
    for (Index r = 0; r < w_; ++r) {
        for (Index q = 0; q < w_; ++q) {
            const Sample &a = a_[slot(r, tau - (w_ - 1 - q))];
            const Sample &b = b_[slot(q, tau - (w_ - 1 - r))];
            Sample &c = c_[slot(r - q + w_ - 1, tau - std::min(r, q))];
            // Inner product step.
            if (a.valid && b.valid && c.valid) {
                c.value = c.value + a.value * b.value;
                ++useful_macs_;
                if (first_mac_ < 0)
                    first_mac_ = tau;
            }
        }
    }
    ++now_;

    // The registers the next cycle's items enter held items that
    // entered ring_ cycles ago and have left: they start as bubbles.
    for (Index line = 0; line < w_; ++line) {
        a_[slot(line, now_)] = Sample::bubble();
        b_[slot(line, now_)] = Sample::bubble();
    }
    for (Index line = 0; line < 2 * w_ - 1; ++line)
        c_[slot(line, now_)] = Sample::bubble();
}

} // namespace sap
