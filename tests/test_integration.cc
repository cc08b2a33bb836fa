/**
 * @file
 * Integration tests: larger problems, plan reuse across many
 * inputs, cross-module pipelines, and failure-injection checks on
 * the spec validation layer.
 */

#include <gtest/gtest.h>

#include "analysis/formulas.hh"
#include "dbt/matmul_plan.hh"
#include "dbt/matvec_plan.hh"
#include "engine/engine.hh"
#include "engine/registry.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"
#include "solve/gauss_seidel.hh"
#include "solve/inverse.hh"
#include "solve/trisolve.hh"

namespace sap {
namespace {

TEST(Integration, LargeMatVecOnWideArray)
{
    const Index n = 64, m = 48, w = 8;
    Dense<Scalar> a = randomIntDense(n, m, 11000);
    Vec<Scalar> x = randomIntVec(m, 11001);
    Vec<Scalar> b = randomIntVec(n, 11002);
    EngineRunResult r =
        makeEngine("linear")->run(EnginePlan::matVec(a, x, b, w));
    EXPECT_EQ(maxAbsDiff(r.y, matVec(a, x, b)), 0.0);
    EXPECT_EQ(r.stats.cycles, formulas::tMatVec(w, 8, 6));
    EXPECT_GT(r.stats.utilization(), 0.49); // n̄m̄ = 48 -> near 1/2
}

TEST(Integration, LargeMatMulOnHexArray)
{
    const Index s = 16, w = 4;
    Dense<Scalar> a = randomIntDense(s, s, 11010);
    Dense<Scalar> b = randomIntDense(s, s, 11011);
    Dense<Scalar> e = randomIntDense(s, s, 11012);
    EngineRunResult r =
        makeEngine("hex")->run(EnginePlan::matMul(a, b, e, w));
    EXPECT_EQ(maxAbsDiff(r.c, matMulAdd(a, b, e)), 0.0);
    EXPECT_EQ(r.stats.cycles, formulas::tMatMul(w, 4, 4, 4));
    EXPECT_GT(r.stats.utilization(), 0.31);
    EXPECT_TRUE(r.topologyRespected);
}

TEST(Integration, PlanReuseAcrossManyInputs)
{
    // One transformation, many (x, b) pairs — the deployment model.
    Dense<Scalar> a = randomIntDense(10, 14, 11020);
    MatVecPlan plan(a, 4);
    for (int trial = 0; trial < 10; ++trial) {
        Vec<Scalar> x = randomIntVec(14, 11030 + trial);
        Vec<Scalar> b = randomIntVec(10, 11050 + trial);
        EXPECT_EQ(maxAbsDiff(plan.run(x, b).y, matVec(a, x, b)), 0.0)
            << "trial " << trial;
    }
}

TEST(Integration, MatMulFeedsMatVec)
{
    // Pipeline: C = A·B on the hex array, then y = C·x + b on the
    // linear array — all on fixed-size machines, all through the
    // one engine harness.
    Dense<Scalar> a = randomIntDense(6, 9, 11060);
    Dense<Scalar> b = randomIntDense(9, 6, 11061);
    Vec<Scalar> x = randomIntVec(6, 11062);
    Vec<Scalar> v = randomIntVec(6, 11063);

    Dense<Scalar> c =
        makeEngine("hex")->run(EnginePlan::matMul(a, b, 3)).c;
    Vec<Scalar> y =
        makeEngine("linear")->run(EnginePlan::matVec(c, x, v, 3)).y;
    EXPECT_EQ(maxAbsDiff(y, matVec(matMul(a, b), x, v)), 0.0);
}

TEST(Integration, PowerIterationOnTheArray)
{
    // Dominant eigenvector of a positive matrix via repeated
    // systolic mat-vec with host normalization.
    Dense<Scalar> a = randomIntDense(8, 8, 11070, 1, 5);
    MatVecPlan plan(a, 4);
    Vec<Scalar> v(8);
    for (Index i = 0; i < 8; ++i)
        v[i] = 1;
    Vec<Scalar> zero(8);
    double lambda = 0;
    for (int it = 0; it < 60; ++it) {
        Vec<Scalar> next = plan.run(v, zero).y;
        double norm = 0;
        for (Index i = 0; i < 8; ++i)
            norm = std::max(norm, std::abs(next[i]));
        for (Index i = 0; i < 8; ++i)
            next[i] /= norm;
        lambda = norm;
        v = next;
    }
    // Residual of the eigen equation.
    Vec<Scalar> av = matVec(a, v, zero);
    double resid = 0;
    for (Index i = 0; i < 8; ++i)
        resid = std::max(resid, std::abs(av[i] - lambda * v[i]));
    EXPECT_LT(resid / lambda, 1e-6);
}

TEST(Integration, SolverStackOnOneProblem)
{
    // A·x = b solved three ways (Gauss-Seidel, explicit inverse,
    // LDL-free triangular path) must agree.
    const Index n = 9, w = 3;
    Dense<Scalar> a = randomDiagDominant(n, 11080);
    Vec<Scalar> x_ref = randomIntVec(n, 11081);
    Vec<Scalar> b = matVec(a, x_ref, Vec<Scalar>(n));

    GaussSeidelResult gs = gaussSeidel(a, b, w, 1e-11, 300);
    ASSERT_TRUE(gs.converged);
    EXPECT_LT(maxAbsDiff(gs.x, x_ref), 1e-8);

    NewtonInverseResult ni = newtonInverse(a, w, 1e-12, 100);
    ASSERT_TRUE(ni.converged);
    Vec<Scalar> x_inv = matVec(ni.inv, b, Vec<Scalar>(n));
    EXPECT_LT(maxAbsDiff(x_inv, x_ref), 1e-7);
}

TEST(Integration, ZeroAndIdentityEdgeCases)
{
    // Zero matrix: y = b exactly; identity: y = x + b.
    Dense<Scalar> zero_m(5, 5);
    Vec<Scalar> x = randomIntVec(5, 11090);
    Vec<Scalar> b = randomIntVec(5, 11091);
    MatVecPlan pz(zero_m, 2);
    EXPECT_EQ(maxAbsDiff(pz.run(x, b).y, b), 0.0);

    MatVecPlan pi(identity<Scalar>(5), 2);
    Vec<Scalar> expect(5);
    for (Index i = 0; i < 5; ++i)
        expect[i] = x[i] + b[i];
    EXPECT_EQ(maxAbsDiff(pi.run(x, b).y, expect), 0.0);
}

TEST(Integration, WLargerThanMatrix)
{
    // Array bigger than the whole problem: single padded block.
    Dense<Scalar> a = randomIntDense(3, 2, 11100);
    Vec<Scalar> x = randomIntVec(2, 11101);
    Vec<Scalar> b = randomIntVec(3, 11102);
    MatVecPlan plan(a, 7);
    EXPECT_EQ(plan.dims().blockCount(), 1);
    EXPECT_EQ(maxAbsDiff(plan.run(x, b).y, matVec(a, x, b)), 0.0);

    Dense<Scalar> bm = randomIntDense(2, 4, 11103);
    MatMulPlan mm(a, bm, 5);
    EXPECT_EQ(maxAbsDiff(mm.run(Dense<Scalar>(3, 4)).c,
                         matMul(a, bm)), 0.0);
}

using SpecDeath = ::testing::Test;

TEST(SpecDeath, MismatchedSpecIsRejected)
{
    // The driver's validation layer must reject malformed specs
    // (failure injection: wrong x̄ length).
    // GTEST_FLAG() keeps gtest <= 1.12 compatibility (GTEST_FLAG_SET
    // only exists from 1.13).
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Band<Scalar> band(4, 5, 0, 1);
    for (Index i = 0; i < 4; ++i)
        for (Index d = 0; d < 2; ++d)
            band.ref(i, i + d) = 1;
    BandMatVecSpec spec;
    spec.abar = &band;
    spec.xbar = Vec<Scalar>(3); // wrong: must be 5
    spec.externalB = Vec<Scalar>(4);
    const std::vector<std::uint8_t> external(4, 1);
    spec.bIsExternal = &external;
    EXPECT_DEATH(runBandMatVec(spec), "x̄ length");
}

TEST(SpecDeath, FeedbackBeforeFirstOutputIsRejected)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Band<Scalar> band(4, 5, 0, 1);
    for (Index i = 0; i < 4; ++i)
        for (Index d = 0; d < 2; ++d)
            band.ref(i, i + d) = 1;
    BandMatVecSpec spec;
    spec.abar = &band;
    spec.xbar = Vec<Scalar>(5);
    spec.externalB = Vec<Scalar>(4);
    std::vector<std::uint8_t> external(4, 1);
    external[0] = 0; // impossible: nothing precedes row 0
    spec.bIsExternal = &external;
    EXPECT_DEATH(runBandMatVec(spec), "feedback");
}

} // namespace
} // namespace sap
