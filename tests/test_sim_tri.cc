/**
 * @file
 * Tests of the §4 triangular-solve path: the cycle-level
 * back-substitution array (sim/tri_array.hh), the blocked
 * TriSolvePlan built on it, and the registry-wrapped "tri" engine —
 * cross-checked against both the host oracle (forwardSolve) and the
 * host-diagonal golden model (solve/trisolve.hh triSolve).
 */

#include <gtest/gtest.h>

#include "analysis/formulas.hh"
#include "base/random.hh"
#include "dbt_oracle.hh"
#include "engine/registry.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"
#include "sim/tri_array.hh"
#include "solve/trisolve.hh"
#include "solve/trisolve_plan.hh"

namespace sap {
namespace {

//---------------------------------------------------------------------
// The array itself.
//---------------------------------------------------------------------

/** Drive one w×w lower-triangular block through a fresh array. */
Vec<Scalar>
solveOnArray(TriArray &tri, const Dense<Scalar> &l,
             const Vec<Scalar> &b)
{
    const Index w = tri.size();
    for (Cycle c = 0; c < 2 * w - 1; ++c) {
        if (c < w)
            tri.setSIn(Sample::of(b[c]));
        for (Index k = 0; k < w; ++k) {
            Index i = static_cast<Index>(c) - k;
            if (i >= k && i < w)
                tri.setAIn(k, Sample::of(l(i, k)));
        }
        tri.step();
    }
    Vec<Scalar> y(w);
    for (Index k = 0; k < w; ++k) {
        EXPECT_TRUE(tri.y(k).valid) << "cell " << k;
        y[k] = tri.y(k).value;
    }
    return y;
}

TEST(TriArray, SolvesAKnownSystem)
{
    // L = [2 0 0; 1 3 0; 4 5 10], b = [2, 7, 33]:
    // y0 = 1, y1 = (7−1)/3 = 2, y2 = (33−4−10)/10 = 1.9.
    Dense<Scalar> l(3, 3);
    l(0, 0) = 2;
    l(1, 0) = 1; l(1, 1) = 3;
    l(2, 0) = 4; l(2, 1) = 5; l(2, 2) = 10;
    Vec<Scalar> b = {2, 7, 33};

    TriArray tri(3);
    Vec<Scalar> y = solveOnArray(tri, l, b);
    EXPECT_EQ(y[0], 1);
    EXPECT_EQ(y[1], 2);
    EXPECT_EQ(y[2], 1.9);
    EXPECT_EQ(tri.now(), 5); // 2w − 1
}

TEST(TriArray, PipelinesOneSolutionEveryTwoCycles)
{
    // y_k is born when row k reaches cell k: cycle 2k.
    const Index w = 4;
    Dense<Scalar> l = randomLowerTriangular(w, 11);
    Vec<Scalar> b = randomIntVec(w, 12);
    TriArray tri(w);
    solveOnArray(tri, l, b);
    for (Index k = 0; k < w; ++k)
        EXPECT_EQ(tri.yCapturedAt(k), 2 * k) << "cell " << k;
    // Per-block useful work: i subtractions + 1 divide per row i.
    EXPECT_EQ(tri.usefulOps(), w * (w + 1) / 2);
}

TEST(TriArray, SingleCellDividesOnly)
{
    TriArray tri(1);
    tri.setSIn(Sample::of(21));
    tri.setAIn(0, Sample::of(7));
    tri.step();
    EXPECT_EQ(tri.y(0).value, 3);
    EXPECT_EQ(tri.now(), 1);
}

TEST(TriArray, ClearSolutionsStartsTheNextBlock)
{
    Dense<Scalar> l1 = randomLowerTriangular(3, 21);
    Dense<Scalar> l2 = randomLowerTriangular(3, 22);
    Vec<Scalar> b = randomIntVec(3, 23);

    TriArray tri(3);
    Vec<Scalar> first = solveOnArray(tri, l1, b);
    tri.clearSolutions();
    Vec<Scalar> second = solveOnArray(tri, l2, b);

    EXPECT_LT(maxAbsDiff(first, forwardSolve(l1, b)), 1e-12);
    EXPECT_LT(maxAbsDiff(second, forwardSolve(l2, b)), 1e-12);
    EXPECT_EQ(tri.now(), 10); // the timeline keeps running
}

TEST(TriArray, MatchesForwardSolveOnRandomBlocks)
{
    Rng rng(0xBEEF);
    for (int trial = 0; trial < 12; ++trial) {
        const Index w = rng.uniformInt(1, 6);
        SCOPED_TRACE("trial " + std::to_string(trial) + " w=" +
                     std::to_string(w));
        Dense<Scalar> l = randomLowerTriangular(w, 100 + trial);
        Vec<Scalar> b = randomIntVec(w, 200 + trial);
        TriArray tri(w);
        Vec<Scalar> y = solveOnArray(tri, l, b);
        EXPECT_LT(maxAbsDiff(y, forwardSolve(l, b)), 1e-9);
    }
}

//---------------------------------------------------------------------
// The blocked plan.
//---------------------------------------------------------------------

TEST(TriSolvePlan, MatchesHostDiagonalGoldenModelBitExactly)
{
    // The plan performs the same operations in the same order as
    // triSolve() (panels via identical MatVecPlans, diagonal
    // subtract-then-divide in ascending column order), so the two
    // must agree to the last bit even for non-unit diagonals.
    for (Index n : {3, 6, 9, 10, 13}) {
        for (Index w : {2, 3, 4}) {
            SCOPED_TRACE("n=" + std::to_string(n) + " w=" +
                         std::to_string(w));
            Dense<Scalar> l = randomLowerTriangular(n, 400 + n + w);
            Vec<Scalar> b = randomIntVec(n, 401 + n + w);

            TriSolvePlan plan(l, w);
            TriSolvePlanResult r = plan.run(b);
            TriSolveResult gold = triSolve(l, b, w);

            ASSERT_EQ(r.y.size(), gold.y.size());
            EXPECT_EQ(maxAbsDiff(r.y, gold.y), 0.0);
            // The panel work is identical; the plan adds the
            // diagonal-block array passes on top.
            EXPECT_EQ(r.stats.peCount, gold.arrayStats.peCount);
            EXPECT_GE(r.stats.usefulMacs, gold.arrayStats.usefulMacs);
        }
    }
}

TEST(TriSolvePlan, BlocksAndPanelBandsEqualBlockCopyOracle)
{
    // A full random L (nonzero diagonal, nonzero above it too, which
    // the array ignores and the diagonal blocks leave out) on every
    // padding case of the edge sweep.
    for (Index w : oracle::sweepArraySizes()) {
        for (Index n : oracle::sweepEdgeSizes(w)) {
            SCOPED_TRACE("n=" + std::to_string(n) + " w=" +
                         std::to_string(w));
            Dense<Scalar> l = randomIntDense(n, n, 800 + n * 11 + w);
            TriSolvePlan plan(l, w);
            oracle::TriSolveBlocks o = oracle::triSolveBlocks(l, w);
            ASSERT_EQ(plan.nbar(), static_cast<Index>(o.diag.size()));
            for (Index r = 0; r < plan.nbar(); ++r) {
                EXPECT_TRUE(plan.diagBlock(r) ==
                            o.diag[static_cast<std::size_t>(r)])
                    << "r=" << r;
                if (r >= 1) {
                    EXPECT_TRUE(plan.panel(r).transform().abar() ==
                                oracle::matVecBand(
                                    o.panels[static_cast<std::size_t>(
                                        r - 1)],
                                    w))
                        << "r=" << r;
                }
            }
        }
    }
}

TEST(TriSolvePlan, ExactOnUnitDiagonalSystems)
{
    Rng rng(0xD1A6);
    for (int trial = 0; trial < 10; ++trial) {
        const Index n = rng.uniformInt(1, 17);
        const Index w = rng.uniformInt(1, 5);
        SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                     std::to_string(n) + " w=" + std::to_string(w));
        Dense<Scalar> l = randomUnitLowerTriangular(n, 500 + trial);
        Vec<Scalar> b = randomIntVec(n, 600 + trial);
        TriSolvePlanResult r = TriSolvePlan(l, w).run(b);
        EXPECT_EQ(maxAbsDiff(r.y, forwardSolve(l, b)), 0.0);
    }
}

TEST(TriSolvePlan, StepCountMatchesTheComposedFormula)
{
    for (Index n : {4, 8, 12, 7}) {
        for (Index w : {2, 4}) {
            SCOPED_TRACE("n=" + std::to_string(n) + " w=" +
                         std::to_string(w));
            Dense<Scalar> l = randomLowerTriangular(n, 700 + n);
            TriSolvePlan plan(l, w);
            TriSolvePlanResult r = plan.run(randomIntVec(n, 701 + n));
            EXPECT_EQ(r.stats.cycles,
                      formulas::tTriSolve(w, plan.nbar()));
        }
    }
}

TEST(TriSolvePlan, TraceRecordsTheDiagonalBlockSchedule)
{
    const Index n = 6, w = 3;
    Dense<Scalar> l = randomLowerTriangular(n, 800);
    Vec<Scalar> b = randomIntVec(n, 801);
    TriSolvePlanResult r = TriSolvePlan(l, w).run(b, true);

    ASSERT_FALSE(r.trace.empty());
    // One rhs injection and one solution per (padded) row, one
    // coefficient per lower-triangle element of each diagonal block.
    EXPECT_EQ(r.trace.onPort(Port::BIn).size(), 6u);
    EXPECT_EQ(r.trace.onPort(Port::YOut).size(), 6u);
    EXPECT_EQ(r.trace.onPort(Port::AIn).size(),
              static_cast<std::size_t>(w * (w + 1))); // n̄ = 2 blocks
    // Block 1's schedule starts after block 0 and its panel.
    std::vector<TraceEvent> yout = r.trace.onPort(Port::YOut);
    EXPECT_LT(yout[w - 1].cycle, yout[w].cycle);

    // Quiet by default.
    EXPECT_TRUE(TriSolvePlan(l, w).run(b).trace.empty());
}

//---------------------------------------------------------------------
// The registry-wrapped engine.
//---------------------------------------------------------------------

TEST(TriEngine, RegistryCrossCheckOnRandomSystems)
{
    Rng rng(0x7121);
    auto engine = makeEngine("tri");
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->kind(), ProblemKind::TriSolve);

    for (int trial = 0; trial < 8; ++trial) {
        const Index n = rng.uniformInt(2, 14);
        const Index w = rng.uniformInt(1, 5);
        SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                     std::to_string(n) + " w=" + std::to_string(w));
        Dense<Scalar> l = randomLowerTriangular(n, 900 + trial);
        Vec<Scalar> b = randomIntVec(n, 950 + trial);

        EngineRunResult r =
            engine->run(EnginePlan::triSolve(l, b, w));
        EXPECT_LT(maxAbsDiff(r.y, forwardSolve(l, b)), 1e-9);
        EXPECT_EQ(maxAbsDiff(r.y, triSolve(l, b, w).y), 0.0);
        EXPECT_EQ(r.stats.peCount, w);
        EXPECT_GT(r.stats.utilization(), 0.0);
    }
}

TEST(TriEngine, PreparedPlanStreamsManyRightHandSides)
{
    const Index n = 9, w = 3;
    Dense<Scalar> l = randomUnitLowerTriangular(n, 1000);
    auto engine = makeEngine("tri");
    auto prepared = engine->prepare(
        EnginePlan::triSolve(l, Vec<Scalar>(n), w));

    for (int i = 0; i < 5; ++i) {
        Vec<Scalar> b = randomIntVec(n, 1100 + i);
        EngineRunResult r = engine->runPrepared(
            *prepared, EngineInputs::triSolve(b));
        EXPECT_EQ(maxAbsDiff(r.y, forwardSolve(l, b)), 0.0) << i;
    }
}

} // namespace
} // namespace sap
