/**
 * @file
 * Tests of the cycle-accurate linear contraflow array and its
 * driver: plain band problems, the full DBT plan, the paper's time
 * formula T = 2w·n̄m̄ + 2w − 3, the w-cycle feedback claim, the
 * overlapped (interleaved) mode and PE grouping.
 */

#include <gtest/gtest.h>

#include "analysis/formulas.hh"
#include "dbt/matvec_plan.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"
#include "sim/delay_line.hh"
#include "sim/linear_array.hh"

namespace sap {
namespace {

TEST(DelayLine, FixedLatency)
{
    DelayLine line(3);
    EXPECT_EQ(line.depth(), 3);
    // Pushed at t, emerges at t+3.
    std::vector<Sample> out;
    for (int t = 0; t < 8; ++t)
        out.push_back(line.shift(Sample::of(static_cast<Scalar>(t))));
    for (int t = 0; t < 3; ++t)
        EXPECT_FALSE(out[t].valid);
    for (int t = 3; t < 8; ++t) {
        EXPECT_TRUE(out[t].valid);
        EXPECT_EQ(out[t].value, t - 3);
    }
}

TEST(DelayLine, OccupancyCountsValidOnly)
{
    DelayLine line(4);
    line.shift(Sample::of(1));
    line.shift(Sample::bubble());
    line.shift(Sample::of(2));
    EXPECT_EQ(line.occupancy(), 2);
}

TEST(LinearArray, SinglePeMac)
{
    LinearArray arr(1);
    arr.setXIn(Sample::of(3));
    arr.setYIn(Sample::of(10));
    arr.setAIn(0, Sample::of(2));
    arr.step();
    EXPECT_TRUE(arr.yOut().valid);
    EXPECT_EQ(arr.yOut().value, 16); // 10 + 2*3
    EXPECT_EQ(arr.usefulMacs(), 1);
}

TEST(LinearArray, PassThroughWithoutCoefficient)
{
    LinearArray arr(1);
    arr.setXIn(Sample::of(3));
    arr.setYIn(Sample::of(10));
    // No a input: y passes through unchanged.
    arr.step();
    EXPECT_TRUE(arr.yOut().valid);
    EXPECT_EQ(arr.yOut().value, 10);
    EXPECT_EQ(arr.usefulMacs(), 0);
}

TEST(LinearArray, ContraflowTransit)
{
    // A y sample entering PE w-1 reaches the output after w cycles
    // of travel (one compute per PE, no coefficients -> unchanged).
    const Index w = 4;
    LinearArray arr(w);
    arr.setYIn(Sample::of(42));
    arr.step();
    for (Index t = 1; t < w; ++t) {
        EXPECT_FALSE(arr.yOut().valid) << "t=" << t;
        arr.step();
    }
    EXPECT_TRUE(arr.yOut().valid);
    EXPECT_EQ(arr.yOut().value, 42);
}

/** Build a plain upper-band problem spec (no DBT, no feedback). */
struct PlainBand
{
    Band<Scalar> band;
    std::vector<std::uint8_t> external;
    BandMatVecSpec spec;

    PlainBand(Index rows, Index w, std::uint64_t seed)
        : band(rows, rows + w - 1, 0, w - 1)
    {
        Rng rng(seed);
        for (Index r = 0; r < rows; ++r)
            for (Index d = 0; d < w; ++d)
                band.ref(r, r + d) =
                    static_cast<Scalar>(rng.uniformInt(1, 9));
        spec.abar = &band;
        spec.xbar = randomIntVec(rows + w - 1, seed + 1);
        spec.externalB = randomIntVec(rows, seed + 2);
        external.assign(static_cast<std::size_t>(rows), 1);
        spec.bIsExternal = &external;
    }
};

TEST(LinearDriver, PlainBandMatVecMatchesOracle)
{
    for (Index w : {1, 2, 3, 5}) {
        // Orders below w leave PEs that never fire at the band edges.
        for (Index rows : {Index{1}, w - 1, w, 2 * w, Index{7}}) {
            if (rows < 1)
                continue;
            PlainBand p(rows, w, 40 + w + rows);
            LinearRunResult r = runBandMatVec(p.spec);
            Dense<Scalar> dense = p.band.toDense();
            Vec<Scalar> expect = matVec(dense, p.spec.xbar,
                                        p.spec.externalB);
            EXPECT_EQ(maxAbsDiff(r.ybar, expect), 0.0)
                << "w=" << w << " rows=" << rows;
        }
    }
}

TEST(LinearDriver, PlanMatchesOracleAcrossShapes)
{
    for (Index n : {3, 5, 6, 9}) {
        for (Index m : {3, 6, 10}) {
            for (Index w : {2, 3, 4}) {
                Dense<Scalar> a =
                    randomIntDense(n, m, 500 + n * 17 + m * 3 + w);
                Vec<Scalar> x = randomIntVec(m, 600 + n + m + w);
                Vec<Scalar> b = randomIntVec(n, 700 + n + m * 5 + w);
                MatVecPlan plan(a, w);
                MatVecPlanResult r = plan.run(x, b);
                EXPECT_EQ(maxAbsDiff(r.y, matVec(a, x, b)), 0.0)
                    << "n=" << n << " m=" << m << " w=" << w;
            }
        }
    }
}

TEST(LinearDriver, TimeFormulaHolds)
{
    // T = 2w·n̄m̄ + 2w − 3, measured by the simulator.
    for (Index w : {1, 2, 3, 4, 5}) {
        for (Index nbar : {1, 2, 3}) {
            for (Index mbar : {1, 2, 4}) {
                Dense<Scalar> a = randomIntDense(nbar * w, mbar * w,
                                                 900 + w);
                Vec<Scalar> x = randomIntVec(mbar * w, 901);
                Vec<Scalar> b = randomIntVec(nbar * w, 902);
                MatVecPlan plan(a, w);
                MatVecPlanResult r = plan.run(x, b);
                EXPECT_EQ(r.stats.cycles,
                          formulas::tMatVec(w, nbar, mbar))
                    << "w=" << w << " n̄=" << nbar << " m̄=" << mbar;
            }
        }
    }
}

TEST(LinearDriver, PaperExampleNeeds39Cycles)
{
    // Fig. 3: n=6, m=9, w=3 -> 39 computational cycles.
    Dense<Scalar> a = randomIntDense(6, 9, 1000);
    MatVecPlan plan(a, 3);
    MatVecPlanResult r = plan.run(randomIntVec(9, 1001),
                                  randomIntVec(6, 1002));
    EXPECT_EQ(r.stats.cycles, 39);
}

TEST(LinearDriver, FeedbackDelayEqualsArraySize)
{
    for (Index w : {2, 3, 5, 8}) {
        Dense<Scalar> a = randomIntDense(2 * w, 2 * w, 1100 + w);
        MatVecPlan plan(a, w);
        MatVecPlanResult r = plan.run(randomIntVec(2 * w, 1),
                                      randomIntVec(2 * w, 2));
        EXPECT_EQ(r.observedFeedbackDelay,
                  formulas::linearFeedbackDelay(w));
        EXPECT_EQ(r.feedbackRegisters,
                  formulas::linearFeedbackRegisters(w));
    }
}

TEST(LinearDriver, UtilizationMatchesFormula)
{
    // Measured utilization (valid MACs / A·T) equals the paper's
    // expression exactly, because both numerator and denominator are
    // integer counts.
    for (Index w : {2, 3, 4}) {
        for (Index nbar : {1, 2, 4}) {
            for (Index mbar : {1, 3}) {
                Dense<Scalar> a = randomIntDense(nbar * w, mbar * w,
                                                 1200 + w);
                MatVecPlan plan(a, w);
                MatVecPlanResult r = plan.run(
                    randomIntVec(mbar * w, 3), randomIntVec(nbar * w, 4));
                EXPECT_NEAR(r.stats.utilization(),
                            formulas::eMatVec(w, nbar, mbar), 1e-12);
            }
        }
    }
}

TEST(LinearDriver, UtilizationApproachesHalf)
{
    // As n̄m̄ grows the plain utilization approaches 1/2 from below.
    Dense<Scalar> a = randomIntDense(24, 24, 1300);
    MatVecPlan plan(a, 3); // n̄m̄ = 64
    MatVecPlanResult r = plan.run(randomIntVec(24, 5),
                                  randomIntVec(24, 6));
    EXPECT_GT(r.stats.utilization(), 0.46);
    EXPECT_LT(r.stats.utilization(), 0.5);
}

TEST(LinearDriver, OverlappedResultCorrectAndFaster)
{
    Dense<Scalar> a = randomIntDense(12, 9, 1400);
    Vec<Scalar> x = randomIntVec(9, 7);
    Vec<Scalar> b = randomIntVec(12, 8);
    MatVecPlan plan(a, 3); // n̄=4, m̄=3
    MatVecPlanResult r = plan.runOverlapped(x, b);
    EXPECT_EQ(maxAbsDiff(r.y, matVec(a, x, b)), 0.0);
    EXPECT_EQ(r.stats.cycles,
              formulas::tMatVecOverlap(3, 4, 3)); // w·n̄m̄ + 2w − 2
}

TEST(LinearDriver, OverlappedUtilizationMatchesFormula)
{
    Dense<Scalar> a = randomIntDense(12, 12, 1500);
    MatVecPlan plan(a, 3); // n̄=4, m̄=4 (even split)
    MatVecPlanResult r = plan.runOverlapped(randomIntVec(12, 9),
                                            randomIntVec(12, 10));
    EXPECT_NEAR(r.stats.utilization(),
                formulas::eMatVecOverlap(3, 4, 4), 1e-12);
    EXPECT_GT(r.stats.utilization(), 0.8);
}

TEST(LinearDriver, TwoIndependentProblemsShareTheArray)
{
    Dense<Scalar> a1 = randomIntDense(6, 6, 1600);
    Dense<Scalar> a2 = randomIntDense(9, 6, 1601);
    Vec<Scalar> x1 = randomIntVec(6, 11), b1 = randomIntVec(6, 12);
    Vec<Scalar> x2 = randomIntVec(6, 13), b2 = randomIntVec(9, 14);
    MatVecPlan p1(a1, 3), p2(a2, 3);
    TwoProblemResult r = runTwoProblems(p1, x1, b1, p2, x2, b2);
    EXPECT_EQ(maxAbsDiff(r.first.y, matVec(a1, x1, b1)), 0.0);
    EXPECT_EQ(maxAbsDiff(r.second.y, matVec(a2, x2, b2)), 0.0);
    // Sharing beats running the two problems back to back.
    Cycle sequential = formulas::tMatVec(3, 2, 2) +
                       formulas::tMatVec(3, 3, 2);
    EXPECT_LT(r.combined.cycles, sequential);
}

TEST(LinearDriver, GroupingIsConflictFreeAndDoublesUtilization)
{
    Dense<Scalar> a = randomIntDense(12, 12, 1700);
    MatVecPlan plan(a, 4);
    GroupedRunResult g = plan.runGroupedPlan(randomIntVec(12, 15),
                                             randomIntVec(12, 16));
    EXPECT_TRUE(g.conflictFree);
    EXPECT_EQ(g.grouped.peCount, 2);
    EXPECT_NEAR(g.grouped.utilization(),
                2.0 * g.logical.stats.utilization(), 1e-12);
}

TEST(LinearDriver, TraceHasTwoCycleSpacing)
{
    Dense<Scalar> a = randomIntDense(6, 9, 1800);
    MatVecPlan plan(a, 3);
    MatVecPlanResult r = plan.run(randomIntVec(9, 17),
                                  randomIntVec(6, 18), true);
    auto xs = r.trace.onPort(Port::XIn);
    ASSERT_EQ(static_cast<Index>(xs.size()), 20); // barCols
    for (std::size_t i = 0; i < xs.size(); ++i) {
        EXPECT_EQ(xs[i].cycle, static_cast<Cycle>(2 * i));
        EXPECT_EQ(xs[i].index, static_cast<Index>(i));
    }
    auto ys = r.trace.onPort(Port::YOut);
    ASSERT_EQ(static_cast<Index>(ys.size()), 18); // barRows
    for (std::size_t i = 1; i < ys.size(); ++i)
        EXPECT_EQ(ys[i].cycle - ys[i - 1].cycle, 2);
    // First b enters at cycle w-1, then externals/feedback alternate
    // per the schedule.
    auto bs = r.trace.onPort(Port::BIn);
    auto fbs = r.trace.onPort(Port::FbIn);
    EXPECT_EQ(bs.size() + fbs.size(), 18u);
    EXPECT_EQ(bs.front().cycle, 2); // w-1
}

TEST(LinearSchedule, DocumentedScheduleProducesOutputsEveryTwoCycles)
{
    // Schedule invariant from linear_driver.hh, exercised directly
    // on the array (no driver): with x_j entering PE 0 at cycle 2j,
    // b̄_i entering PE w−1 at 2i+w−1 and a(i,i+d) firing in PE
    // (w−1−d) at 2i+w−1+d, the output port must deliver ȳ_i exactly
    // after cycle 2i+2w−2 — and stay a bubble on every other cycle,
    // which is the 2-cycle spacing that caps utilization at 1/2.
    const Index w = 3, n = 5;
    const Index cols = n + w - 1;
    Rng rng(515);

    Band<Scalar> band(n, cols, 0, w - 1);
    for (Index i = 0; i < n; ++i)
        for (Index d = 0; d < w; ++d)
            band.ref(i, i + d) = static_cast<Scalar>(rng.uniformInt(1, 9));
    Vec<Scalar> x = randomIntVec(cols, 516);
    Vec<Scalar> b = randomIntVec(n, 517);

    Vec<Scalar> expect(n);
    for (Index i = 0; i < n; ++i) {
        expect[i] = b[i];
        for (Index d = 0; d < w; ++d)
            expect[i] += band.at(i, i + d) * x[i + d];
    }

    LinearArray arr(w);
    const Cycle last = 2 * (n - 1) + 2 * w - 2;
    Index outputs_seen = 0;
    for (Cycle tau = 0; tau <= last; ++tau) {
        if (tau % 2 == 0 && tau / 2 < cols)
            arr.setXIn(Sample::of(x[tau / 2]));
        if ((tau - (w - 1)) % 2 == 0 && tau >= w - 1 &&
            (tau - (w - 1)) / 2 < n)
            arr.setYIn(Sample::of(b[(tau - (w - 1)) / 2]));
        for (Index d = 0; d < w; ++d) {
            Cycle fire = tau - (w - 1) - d;
            if (fire >= 0 && fire % 2 == 0 && fire / 2 < n)
                arr.setAIn(w - 1 - d,
                           Sample::of(band.at(fire / 2, fire / 2 + d)));
        }
        arr.step();

        if (tau >= 2 * w - 2 && (tau - (2 * w - 2)) % 2 == 0) {
            Index i = (tau - (2 * w - 2)) / 2;
            ASSERT_TRUE(arr.yOut().valid) << "tau=" << tau;
            EXPECT_EQ(arr.yOut().value, expect[i]) << "i=" << i;
            ++outputs_seen;
        } else {
            EXPECT_FALSE(arr.yOut().valid)
                << "unexpected output at tau=" << tau;
        }
    }
    EXPECT_EQ(outputs_seen, n);
}

} // namespace
} // namespace sap
