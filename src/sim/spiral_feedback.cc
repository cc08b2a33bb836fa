#include "sim/spiral_feedback.hh"

#include <algorithm>

#include "base/logging.hh"

namespace sap {

SpiralFeedback::SpiralFeedback(Index w) : w_(w)
{
    SAP_ASSERT(w >= 1, "need at least one diagonal");
}

Index
SpiralFeedback::loopOf(Index w, Index delta)
{
    SAP_ASSERT(delta > -w && delta < w, "diagonal ", delta,
               " out of range");
    return delta >= 0 ? delta : delta + w;
}

Index
SpiralFeedback::diagonalPeCount(Index w, Index delta)
{
    return w - (delta >= 0 ? delta : -delta);
}

Index
SpiralFeedback::loopPeCount(Index loop) const
{
    SAP_ASSERT(loop >= 0 && loop < w_, "loop ", loop, " out of range");
    if (loop == 0)
        return diagonalPeCount(w_, 0);
    return diagonalPeCount(w_, loop) +
           diagonalPeCount(w_, loop - w_);
}

void
SpiralFeedback::reserve(Index main_diag, Index pair, Index irregular)
{
    main_diag_delays_.reserve(static_cast<std::size_t>(main_diag));
    pair_delays_.reserve(static_cast<std::size_t>(pair));
    irregular_delays_.reserve(static_cast<std::size_t>(irregular));
    regular_intervals_.reserve(
        static_cast<std::size_t>(main_diag + pair));
    irregular_intervals_.reserve(static_cast<std::size_t>(irregular));
}

void
SpiralFeedback::recordTransfer(Index delta_out, Index delta_in,
                               Cycle exit_cycle, Cycle enter_cycle,
                               bool irregular)
{
    ++transfer_count_;
    Index loop_out = loopOf(w_, delta_out);
    Index loop_in = loopOf(w_, delta_in);
    if (loop_out != loop_in)
        topology_ok_ = false;

    Cycle delay = delayOf(exit_cycle, enter_cycle);
    SAP_ASSERT(delay >= 0, "feedback arrives before it leaves: exit ",
               exit_cycle, " enter ", enter_cycle);

    Interval iv{exit_cycle + 1, enter_cycle - 1, loop_out};
    if (irregular) {
        irregular_delays_.push_back(delay);
        irregular_intervals_.push_back(iv);
    } else if (delta_out == 0) {
        main_diag_delays_.push_back(delay);
        regular_intervals_.push_back(iv);
    } else {
        pair_delays_.push_back(delay);
        regular_intervals_.push_back(iv);
    }
}

Index
SpiralFeedback::peakOf(const std::vector<Interval> &intervals,
                       Index loop_filter)
{
    // Sweep line over hold intervals [from, to].
    std::vector<std::pair<Cycle, int>> events;
    for (const Interval &iv : intervals) {
        if (loop_filter >= 0 && iv.loop != loop_filter)
            continue;
        if (iv.to < iv.from)
            continue; // zero-length hold (delay 0)
        events.push_back({iv.from, +1});
        events.push_back({iv.to + 1, -1});
    }
    std::sort(events.begin(), events.end());
    Index cur = 0, peak = 0;
    for (const auto &[cycle, d] : events) {
        cur += d;
        peak = std::max(peak, cur);
    }
    return peak;
}

Index
SpiralFeedback::peakRegularOccupancy(Index loop) const
{
    return peakOf(regular_intervals_, loop);
}

Index
SpiralFeedback::peakIrregularOccupancy() const
{
    return peakOf(irregular_intervals_, -1);
}

} // namespace sap
