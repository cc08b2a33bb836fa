/**
 * @file
 * Semantics (fast-mode) execution of the hexagonal mat-mul plan:
 * every O-band value accumulated in the array's MAC order
 * (ascending k along the reduction), with the Appendix feedback
 * composition replayed through the plan's routing tables. O values
 * are processed in exit-cycle order, which topologically orders the
 * feedback dependencies (a value always exits strictly before the
 * cycle its consumer is injected).
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/formulas.hh"
#include "base/logging.hh"
#include "dbt/matmul_plan.hh"

namespace sap {

MatMulPlanResult
MatMulPlan::runSemantics(const Dense<Scalar> &e) const
{
    const MatMulDims &d = dims();
    const Index w = d.w;
    const Index N = d.order();
    const MatMulSkeleton &sk = *skeleton_;
    using Route = MatMulSkeleton::InputRoute;
    SAP_ASSERT(e.rows() == d.n && e.cols() == d.m,
               "E must be n×m = ", d.n, "x", d.m);
    Dense<Scalar> e_pad = e.paddedTo(d.nbar * w, d.mbar * w);

    // Captured O values, keyed by bandIdx of the scalar position.
    std::vector<Scalar> captured(sk.slots(), 0);
    Dense<Scalar> c_pad(d.nbar * w, d.mbar * w);
    // ā(i, k) and b̄(k, j) read through the shape's band map.
    const Scalar *a = transform_.a().elems(), *b = transform_.b().elems();
    const std::uint32_t *amap = transform_.map().a().data();
    const std::uint32_t *bmap = transform_.map().b().data();
    Index macs = 0;

    const Cycle last = hexLastCycle(N, w);
    for (Cycle t = 0; t <= last; ++t) {
        forEachHexExit(N, w, t, [&](Index i, Index j) {
            const std::size_t slot = sk.bandIdx(i, j);

            const Route &rt = sk.route(slot);
            Scalar acc = 0;
            switch (rt.kind) {
              case Route::Kind::Zero:
                acc = 0;
                break;
              case Route::Kind::FromE:
                acc = e_pad(rt.r, rt.c);
                break;
              case Route::Kind::FromO:
                acc = captured[sk.bandIdx(rt.r, rt.c)];
                break;
            }

            // The c value for (i, j) meets a(i, k)·b(k, j) at PE
            // (k−i, k−j) for ascending k — the array's MAC order.
            const Index klo = std::max(i, j);
            const Index khi = std::min(std::min(i, j) + w - 1, N - 1);
            const std::uint32_t *ak = amap + i * (w - 1) + klo;
            const std::uint32_t *bk = bmap + klo * (w - 1) + j + w - 1;
            for (Index k = klo; k <= khi; ++k, ++ak, bk += w - 1)
                acc = acc + MatMulBandMap::read(a, *ak) *
                                MatMulBandMap::read(b, *bk);
            macs += khi - klo + 1;

            captured[slot] = acc;
            if (sk.extractRow(slot) >= 0)
                c_pad(sk.extractRow(slot), sk.extractCol(slot)) = acc;
        });
    }

    MatMulPlanResult res;
    res.c = c_pad.topLeft(d.n, d.m);
    res.stats.cycles = formulas::tMatMul(w, d.pbar, d.nbar, d.mbar);
    res.stats.peCount = w * w;
    res.stats.usefulMacs = macs;
    res.totalCycles = last + 1;
    return res;
}

} // namespace sap
