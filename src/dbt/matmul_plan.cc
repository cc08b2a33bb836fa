#include "dbt/matmul_plan.hh"

#include <algorithm>
#include <iterator>
#include <map>
#include <mutex>
#include <tuple>

#include "base/logging.hh"
#include "mat/triangular.hh"

namespace sap {

namespace {

/** Classify a scalar band position (i, j) into (block row, part). */
struct PartPos
{
    Index k;       ///< band block row
    BandPart part; ///< part class
    Index il, jl;  ///< local coordinates inside the w×w block
};

PartPos
classify(Index i, Index j, Index w)
{
    PartPos p;
    p.k = i / w;
    p.il = i % w;
    p.jl = j % w;
    Index jblk = j / w;
    if (jblk == p.k - 1) {
        p.part = BandPart::USub;
    } else if (jblk == p.k + 1) {
        p.part = BandPart::LSuper;
    } else {
        SAP_ASSERT(jblk == p.k, "position (", i, ",", j,
                   ") outside the block band");
        p.part = p.jl > p.il    ? BandPart::UDiag
                 : p.jl < p.il  ? BandPart::LDiag
                                : BandPart::Diag;
    }
    return p;
}

/** Scalar coordinates of an O slot (row k, part) element (il, jl). */
std::pair<Index, Index>
oScalarCoords(Index k, BandPart part, Index il, Index jl, Index w)
{
    Index i = k * w + il;
    Index jblk = k;
    if (part == BandPart::USub)
        jblk = k - 1;
    else if (part == BandPart::LSuper)
        jblk = k + 1;
    return {i, jblk * w + jl};
}

} // namespace

std::size_t
MatMulSkeleton::bandIdx(Index i, Index j) const
{
    const Index w = dims_.w;
    SAP_ASSERT(j - i > -w && j - i < w, "position (", i, ",", j,
               ") outside the width-", 2 * w - 1, " band");
    return static_cast<std::size_t>(i * (2 * w - 1) + (j - i) + w - 1);
}

MatMulSkeleton::MatMulSkeleton(const MatMulDims &dims)
    : dims_(dims), map_(std::make_shared<const MatMulBandMap>(dims)),
      composer_(dims)
{
    SAP_ASSERT(dims_.coverageHolds(), "mat-mul transform is malformed");
    SAP_ASSERT(composer_.validate(), "I/O composition is inconsistent");

    // Precompute the scalar routing tables so that run() is pure
    // streaming. Both tables are keyed by bandIdx() over the 2w−1
    // wide I/O band of the order-N transformed problem.
    const MatMulDims &d = dims_;
    const Index w = d.w;
    const Index N = d.order();
    const std::size_t slots = static_cast<std::size_t>(N * (2 * w - 1));

    // Input routing: where the I-band value of position (i, j)
    // comes from (zero, an E element, or a fed-back O value).
    routes_.assign(slots, InputRoute{});
    Index main_diag = 0, pair = 0, irregular = 0;
    for (Index i = 0; i < N; ++i) {
        for (Index j = std::max(Index{0}, i - w + 1);
             j <= std::min(N - 1, i + w - 1); ++j) {
            PartPos pos = classify(i, j, w);
            IoSource src = composer_.inputSource(pos.k, pos.part);
            InputRoute &rt = routes_[bandIdx(i, j)];
            switch (src.kind) {
              case IoSource::Kind::Zero:
                rt.kind = InputRoute::Kind::Zero;
                break;
              case IoSource::Kind::FromE:
                rt.kind = InputRoute::Kind::FromE;
                rt.r = src.eRow * w + pos.il;
                rt.c = src.eCol * w + pos.jl;
                break;
              case IoSource::Kind::FromO: {
                auto [oi, oj] = oScalarCoords(src.oRow, src.oPart,
                                              pos.il, pos.jl, w);
                rt.kind = InputRoute::Kind::FromO;
                rt.irregular = src.irregular;
                rt.r = oi;
                rt.c = oj;
                // Feedback sources must themselves be O-band
                // positions (checked here so run() can index
                // directly).
                bandIdx(oi, oj);
                // The delay classes of SpiralFeedback's records.
                if (rt.irregular)
                    ++irregular;
                else if (oi == oj)
                    ++main_diag;
                else
                    ++pair;
                break;
              }
            }
        }
    }

    // Extraction routing: O scalar position -> padded C position.
    extract_row_.assign(slots, -1);
    extract_col_.assign(slots, -1);
    for (Index bi = 0; bi < d.nbar; ++bi) {
        for (Index bj = 0; bj < d.mbar; ++bj) {
            for (BandPart part : {BandPart::UDiag, BandPart::Diag,
                                  BandPart::LDiag}) {
                ExtractSource src = composer_.extractSource(bi, bj,
                                                            part);
                TriPart shape = part == BandPart::UDiag
                                    ? TriPart::UpperStrict
                                : part == BandPart::LDiag
                                    ? TriPart::LowerStrict
                                    : TriPart::DiagOnly;
                for (Index il = 0; il < w; ++il) {
                    for (Index jl = 0; jl < w; ++jl) {
                        if (!inTriPart(shape, il, jl))
                            continue;
                        auto [oi, oj] = oScalarCoords(src.oRow,
                                                      src.oPart, il,
                                                      jl, w);
                        std::size_t slot = bandIdx(oi, oj);
                        extract_row_[slot] = bi * w + il;
                        extract_col_[slot] = bj * w + jl;
                    }
                }
            }
        }
    }

    // Feedback records: every FromO input, in the order a run
    // injects them, re-enters on its entry cycle after its source
    // left on its exit cycle (the closed forms every run asserts).
    auto feedback = std::make_shared<SpiralFeedback>(w);
    feedback->reserve(main_diag, pair, irregular);
    const Cycle last = hexLastCycle(N, w);
    for (Cycle tau = 0; tau <= last; ++tau) {
        forEachHexEntry(N, w, tau, [&](Index i, Index j) {
            const InputRoute &rt = routes_[bandIdx(i, j)];
            if (rt.kind == InputRoute::Kind::FromO)
                feedback->recordTransfer(rt.c - rt.r, j - i,
                                         hexExitCycle(rt.r, rt.c, w),
                                         tau, rt.irregular);
        });
    }
    SAP_ASSERT(feedback->topologyRespected(),
               "a feedback transfer left its spiral loop");
    feedback_ = std::move(feedback);
}

std::shared_ptr<const MatMulSkeleton>
MatMulSkeleton::intern(const MatMulDims &dims, bool *reused)
{
    using Key = std::tuple<Index, Index, Index, Index>;
    static std::mutex mutex;
    static std::map<Key, std::weak_ptr<const MatMulSkeleton>> live;
    const Key key{dims.n, dims.p, dims.m, dims.w};
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = live.find(key);
        if (it != live.end()) {
            if (std::shared_ptr<const MatMulSkeleton> found =
                    it->second.lock()) {
                *reused = true;
                return found;
            }
        }
    }

    // Build outside the lock, so that plans of other shapes do not
    // wait for this one's tables.
    auto built = std::make_shared<const MatMulSkeleton>(dims);
    *reused = false;

    std::lock_guard<std::mutex> lock(mutex);
    for (auto it = live.begin(); it != live.end();)
        it = it->second.expired() ? live.erase(it) : std::next(it);
    std::weak_ptr<const MatMulSkeleton> &slot = live[key];
    // A concurrent build of the same shape may have finished first:
    // adopt it, so that all live plans of a shape share one skeleton.
    if (std::shared_ptr<const MatMulSkeleton> incumbent = slot.lock())
        return incumbent;
    slot = built;
    return built;
}

MatMulPlan::MatMulPlan(const Dense<Scalar> &a, const Dense<Scalar> &b,
                       Index w)
    : skeleton_(MatMulSkeleton::intern(MatMulDims::of(a, b, w),
                                       &reused_skeleton_)),
      transform_(a, b, skeleton_->map())
{
}

MatMulExecResult
MatMulPlan::runBlockLevel(const Dense<Scalar> &e) const
{
    return execTransformedMatMul(transform_, e);
}

MatMulPlanResult
MatMulPlan::run(const Dense<Scalar> &e) const
{
    const MatMulDims &d = dims();
    const Index w = d.w;
    const MatMulSkeleton &sk = *skeleton_;
    using Route = MatMulSkeleton::InputRoute;
    SAP_ASSERT(e.rows() == d.n && e.cols() == d.m,
               "E must be n×m = ", d.n, "x", d.m);
    Dense<Scalar> e_pad = e.paddedTo(d.nbar * w, d.mbar * w);

    // Captured O values, keyed by bandIdx of the scalar position.
    struct Captured
    {
        Scalar value = 0;
        bool valid = false;
    };
    std::vector<Captured> captured(sk.slots());

    Dense<Scalar> c_pad(d.nbar * w, d.mbar * w);

    HexRunResult hex = runHexBandMatMul(
        transform_.abar(), transform_.bbar(),
        [&](Index i, Index j) -> Scalar {
            const Route &rt = sk.route(sk.bandIdx(i, j));
            switch (rt.kind) {
              case Route::Kind::Zero:
                return 0;
              case Route::Kind::FromE:
                return e_pad(rt.r, rt.c);
              case Route::Kind::FromO: {
                const Captured &cap = captured[sk.bandIdx(rt.r, rt.c)];
                SAP_ASSERT(cap.valid, "feedback for (", i, ",", j,
                           ") consumed before (", rt.r, ",", rt.c,
                           ") was produced");
                return cap.value;
              }
            }
            SAP_PANIC("unreachable");
        },
        [&](Index i, Index j, Scalar v, Cycle) {
            std::size_t slot = sk.bandIdx(i, j);
            captured[slot] = {v, true};
            if (sk.extractRow(slot) >= 0)
                c_pad(sk.extractRow(slot), sk.extractCol(slot)) = v;
        });

    MatMulPlanResult res;
    res.c = c_pad.topLeft(d.n, d.m);
    res.stats = hex.stats;
    res.totalCycles = hex.totalCycles;
    res.feedback = sk.feedback();
    return res;
}

} // namespace sap
