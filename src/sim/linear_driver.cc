#include "sim/linear_driver.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sim/delay_line.hh"
#include "sim/linear_array.hh"

namespace sap {

void
BandMatVecSpec::validate() const
{
    SAP_ASSERT(abar != nullptr, "spec has no band matrix");
    SAP_ASSERT(abar->sub() == 0,
               "mat-vec band must be upper-triangular banded");
    Index w_ = w();
    SAP_ASSERT(abar->cols() == abar->rows() + w_ - 1,
               "band shape must be rows x (rows + w - 1), got ",
               abar->rows(), "x", abar->cols());
    SAP_ASSERT(firstRow >= 0 && rows() >= 0 &&
                   firstRow + rows() <= abar->rows(),
               "rows [", firstRow, ", ", firstRow + rows(),
               ") out of the band's ", abar->rows());
    SAP_ASSERT(xbar.size() == rows() + w_ - 1, "x̄ length ", xbar.size(),
               " != range cols ", rows() + w_ - 1);
    SAP_ASSERT(bIsExternal != nullptr &&
                   static_cast<Index>(bIsExternal->size()) == abar->rows(),
               "bIsExternal size mismatch");
    SAP_ASSERT(externalB.size() == rows(), "externalB size mismatch");
    // The first scalar row can never be fed back (nothing precedes it).
    for (Index i = 0; i < std::min(rows(), w_); ++i)
        SAP_ASSERT(external(i),
                   "row ", i, " wants feedback before any output");
}

namespace {

/** Per-problem bookkeeping for (possibly interleaved) execution. */
struct Lane
{
    const BandMatVecSpec *spec;
    Index offset;             // cycle offset of this lane (0 or 1)
    Vec<Scalar> ybar;         // collected outputs
    std::vector<Cycle> outputCycle; // when ȳ_i was computed
    Cycle observedDelay = -1; // measured feedback delay
    Cycle lastOutput = -1;    // completion cycle (0-based)
    Trace trace;
    bool record;
};

/** Shared execution engine for one or two interleaved lanes. */
void
runLanes(std::vector<Lane> &lanes, LinearArray &array, DelayLine &fb_line,
         std::vector<std::vector<bool>> *activity_log = nullptr)
{
    const Index w = array.size();

    Cycle horizon = 0;
    for (const Lane &lane : lanes) {
        Cycle last = 2 * (lane.spec->rows() - 1) + 2 * w - 2 +
                     lane.offset;
        horizon = std::max(horizon, last);
    }

    Sample fb_pending = Sample::bubble();
    for (Cycle tau = 0; tau <= horizon; ++tau) {
        for (Lane &lane : lanes) {
            const BandMatVecSpec &spec = *lane.spec;
            const Index rows = spec.rows();
            const Index cols = spec.xbar.size();
            const Cycle t = tau - lane.offset;

            // x stream: x_j enters PE 0 at t = 2j.
            if (t >= 0 && t % 2 == 0 && t / 2 < cols) {
                Index j = t / 2;
                array.setXIn(Sample::of(spec.xbar[j]));
                if (lane.record)
                    lane.trace.add(tau, Port::XIn, j, spec.xbar[j]);
            }

            // y stream: b̄_i enters PE w-1 at t = 2i + w - 1.
            Cycle ty = t - (w - 1);
            if (ty >= 0 && ty % 2 == 0 && ty / 2 < rows) {
                Index i = ty / 2;
                if (spec.external(i)) {
                    array.setYIn(Sample::of(spec.externalB[i]));
                    if (lane.record)
                        lane.trace.add(tau, Port::BIn, i,
                                       spec.externalB[i]);
                } else {
                    SAP_ASSERT(fb_pending.valid,
                               "feedback bubble at row ", i,
                               " cycle ", tau);
                    array.setYIn(fb_pending);
                    // ȳ_{i-w} was computed at 2(i-w)+2w-2 (+offset);
                    // it re-enters (as a wire input) now.
                    Cycle computed = 2 * (i - w) + 2 * w - 2 +
                                     lane.offset;
                    Cycle delay = tau - computed - 1;
                    if (lane.observedDelay < 0)
                        lane.observedDelay = delay;
                    SAP_ASSERT(lane.observedDelay == delay,
                               "feedback delay must be constant");
                    if (lane.record)
                        lane.trace.add(tau, Port::FbIn, i,
                                       fb_pending.value);
                }
            }

            // a coefficients: diagonal d = w-1-p into PE p at
            // t = 2i + 2w - 2 - p. The PEs due are p ≡ t (mod 2),
            // from the first with i >= 0 to the last with i < rows.
            Index p = std::max(Index{0}, 2 * w - 2 - t);
            p += (p + t) & 1;
            const Index pend = std::min(w, 2 * rows + 2 * w - 2 - t);
            for (; p < pend; p += 2) {
                const Index r = spec.firstRow + (t - (2 * w - 2 - p)) / 2;
                array.setAIn(p, Sample::of(spec.abar->at(r, r + w - 1 - p)));
            }
        }

        array.step();
        if (activity_log)
            activity_log->push_back(array.lastActivity());
        Sample out = array.yOut();

        for (Lane &lane : lanes) {
            const Cycle t = tau - lane.offset;
            Cycle to = t - (2 * w - 2);
            if (to >= 0 && to % 2 == 0 && to / 2 < lane.spec->rows()) {
                Index i = to / 2;
                SAP_ASSERT(out.valid, "missing output for row ", i,
                           " at cycle ", tau);
                lane.ybar[i] = out.value;
                lane.outputCycle[i] = tau;
                lane.lastOutput = tau;
                if (lane.record)
                    lane.trace.add(tau, Port::YOut, i, out.value);
            }
        }

        // Feedback path: everything that leaves the array enters the
        // register chain; the schedule decides what gets reused.
        fb_pending = fb_line.shift(out);
    }
}

LinearRunResult
makeResult(const Lane &lane, const LinearArray &array, Index fb_regs)
{
    LinearRunResult res;
    res.ybar = lane.ybar;
    res.stats.cycles = lane.lastOutput + 1; // 0-based -> step count
    res.stats.peCount = array.size();
    // Every in-band element fires exactly one MAC.
    res.stats.usefulMacs = lane.spec->rows() * array.size();
    res.observedFeedbackDelay = lane.observedDelay;
    res.feedbackRegisters = fb_regs;
    res.trace = lane.trace;
    return res;
}

} // namespace

LinearRunResult
runBandMatVec(const BandMatVecSpec &spec, bool record_trace)
{
    spec.validate();
    const Index w = spec.w();
    LinearArray array(w);
    DelayLine fb_line(w);

    std::vector<Lane> lanes(1);
    lanes[0] = Lane{&spec, 0, Vec<Scalar>(spec.rows()),
                    std::vector<Cycle>(spec.rows(), -1), -1, -1, Trace{},
                    record_trace};
    runLanes(lanes, array, fb_line);

    LinearRunResult res = makeResult(lanes[0], array, fb_line.depth());
    SAP_ASSERT(array.usefulMacs() == spec.rows() * w,
               "MAC count mismatch: ", array.usefulMacs(), " vs ",
               spec.rows() * w);
    return res;
}

LinearRunResult
runBandMatVecWithActivity(const BandMatVecSpec &spec,
                          std::vector<std::vector<bool>> &activity)
{
    spec.validate();
    const Index w = spec.w();
    LinearArray array(w);
    DelayLine fb_line(w);

    std::vector<Lane> lanes(1);
    lanes[0] = Lane{&spec, 0, Vec<Scalar>(spec.rows()),
                    std::vector<Cycle>(spec.rows(), -1), -1, -1, Trace{},
                    false};
    activity.clear();
    runLanes(lanes, array, fb_line, &activity);
    return makeResult(lanes[0], array, fb_line.depth());
}

InterleavedRunResult
runInterleaved(const BandMatVecSpec &first, const BandMatVecSpec &second)
{
    first.validate();
    second.validate();
    SAP_ASSERT(first.w() == second.w(),
               "interleaved problems must share the array size");
    const Index w = first.w();
    LinearArray array(w);
    DelayLine fb_line(w);

    std::vector<Lane> lanes(2);
    lanes[0] = Lane{&first, 0, Vec<Scalar>(first.rows()),
                    std::vector<Cycle>(first.rows(), -1), -1, -1,
                    Trace{}, false};
    lanes[1] = Lane{&second, 1, Vec<Scalar>(second.rows()),
                    std::vector<Cycle>(second.rows(), -1), -1, -1,
                    Trace{}, false};
    runLanes(lanes, array, fb_line);

    InterleavedRunResult res;
    res.first = makeResult(lanes[0], array, fb_line.depth());
    res.second = makeResult(lanes[1], array, fb_line.depth());
    res.combined.cycles =
        std::max(lanes[0].lastOutput, lanes[1].lastOutput) + 1;
    res.combined.peCount = w;
    res.combined.usefulMacs = array.usefulMacs();
    SAP_ASSERT(res.combined.usefulMacs ==
                   (first.rows() + second.rows()) * w,
               "interleaved MAC count mismatch");
    return res;
}

} // namespace sap
