/**
 * @file
 * The per-run recording of the spiral-feedback transfers, kept as the
 * oracle for the per-shape records MatMulSkeleton builds. It runs a
 * plan through the hex driver and records each FromO input as it is
 * injected, with the exit cycle the run captured for its source.
 * The skeleton instead derives both cycles in closed form, so the
 * two agree only if the closed forms match what a run does.
 */

#ifndef SAP_TESTS_HEX_FEEDBACK_ORACLE_HH
#define SAP_TESTS_HEX_FEEDBACK_ORACLE_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dbt/matmul_plan.hh"
#include "sim/hex_driver.hh"
#include "sim/spiral_feedback.hh"

namespace sap {
namespace oracle {

/** Run @p plan on additive matrix @p e, recording every feedback
 *  transfer as the run makes it. */
inline SpiralFeedback
recordFeedback(const MatMulPlan &plan, const Dense<Scalar> &e)
{
    const MatMulDims &d = plan.dims();
    const Index w = d.w;
    const MatMulSkeleton &sk = *plan.skeleton();
    using Route = MatMulSkeleton::InputRoute;
    const Dense<Scalar> e_pad = e.paddedTo(d.nbar * w, d.mbar * w);

    struct Captured
    {
        Scalar value = 0;
        Cycle exit = 0;
        bool valid = false;
    };
    std::vector<Captured> captured(sk.slots());
    SpiralFeedback feedback(w);
    runHexBandMatMul(
        plan.transform().abar(), plan.transform().bbar(),
        [&](Index i, Index j) -> Scalar {
            const Route &rt = sk.route(sk.bandIdx(i, j));
            switch (rt.kind) {
              case Route::Kind::Zero:
                return 0;
              case Route::Kind::FromE:
                return e_pad(rt.r, rt.c);
              case Route::Kind::FromO:
                break;
            }
            const Captured &cap = captured[sk.bandIdx(rt.r, rt.c)];
            SAP_ASSERT(cap.valid, "feedback for (", i, ",", j,
                       ") consumed before (", rt.r, ",", rt.c,
                       ") was produced");
            const Cycle enter = i + j + std::max(i, j) + w - 1;
            feedback.recordTransfer(rt.c - rt.r, j - i, cap.exit, enter,
                                    rt.irregular);
            return cap.value;
        },
        [&](Index i, Index j, Scalar v, Cycle exit_cycle) {
            captured[sk.bandIdx(i, j)] = {v, exit_cycle, true};
        });
    return feedback;
}

/** Record-for-record comparison of two feedback measurements of a
 *  width-@p w array. */
inline void
expectSameFeedback(const SpiralFeedback &got, const SpiralFeedback &want,
                   Index w)
{
    EXPECT_EQ(got.transferCount(), want.transferCount());
    EXPECT_EQ(got.topologyRespected(), want.topologyRespected());
    EXPECT_EQ(got.mainDiagDelays(), want.mainDiagDelays());
    EXPECT_EQ(got.pairDelays(), want.pairDelays());
    EXPECT_EQ(got.irregularDelays(), want.irregularDelays());
    for (Index loop = 0; loop < w; ++loop)
        EXPECT_EQ(got.peakRegularOccupancy(loop),
                  want.peakRegularOccupancy(loop))
            << "loop " << loop;
    EXPECT_EQ(got.peakIrregularOccupancy(), want.peakIrregularOccupancy());
}

} // namespace oracle
} // namespace sap

#endif // SAP_TESTS_HEX_FEEDBACK_ORACLE_HH
