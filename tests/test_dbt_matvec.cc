/**
 * @file
 * Tests of the DBT-by-rows transformation (§2 of the paper):
 * structural conditions, the worked Fig. 2 example, and algebraic
 * correctness of the transformed problem against the dense oracle.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "dbt/matvec_transform.hh"
#include "dbt_oracle.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"
#include "matvec_exec.hh"

namespace sap {
namespace {

TEST(DbtMatVec, DimsForPaperExample)
{
    // n=6, m=9, w=3 (the paper's worked case): n̄=2, m̄=3.
    Dense<Scalar> a = randomIntDense(6, 9, 1);
    MatVecTransform t(a, 3);
    EXPECT_EQ(t.dims().nbar, 2);
    EXPECT_EQ(t.dims().mbar, 3);
    EXPECT_EQ(t.dims().blockCount(), 6);
    EXPECT_EQ(t.dims().barRows(), 18);
    EXPECT_EQ(t.dims().barCols(), 20);
}

TEST(DbtMatVec, Fig2BlockSequence)
{
    // Fig. 2.b: the band must hold the pairs
    //   k:   0        1        2        3        4        5
    //   Ū:   U00      U01      U02      U10      U11      U12
    //   L̄:   L01      L02      L00      L11      L12      L10
    Dense<Scalar> a = randomIntDense(6, 9, 2);
    MatVecTransform t(a, 3);
    struct { Index ur, uc, lr, lc; } expect[6] = {
        {0, 0, 0, 1}, {0, 1, 0, 2}, {0, 2, 0, 0},
        {1, 0, 1, 1}, {1, 1, 1, 2}, {1, 2, 1, 0},
    };
    for (Index k = 0; k < 6; ++k) {
        EXPECT_EQ(t.pair(k).uRow, expect[k].ur) << "k=" << k;
        EXPECT_EQ(t.pair(k).uCol, expect[k].uc) << "k=" << k;
        EXPECT_EQ(t.pair(k).lRow, expect[k].lr) << "k=" << k;
        EXPECT_EQ(t.pair(k).lCol, expect[k].lc) << "k=" << k;
    }
}

TEST(DbtMatVec, ConditionsHoldOnManyShapes)
{
    for (Index n : {1, 3, 5, 6, 8}) {
        for (Index m : {1, 4, 9, 11}) {
            for (Index w : {1, 2, 3, 5}) {
                Dense<Scalar> a = randomIntDense(n, m, 7);
                MatVecTransform t(a, w);
                EXPECT_TRUE(t.validate(/*check_filled=*/false))
                    << "n=" << n << " m=" << m << " w=" << w;
            }
        }
    }
}

TEST(DbtMatVec, BandCompletelyFilledForDenseNonzero)
{
    // The paper's headline property: with a fully nonzero matrix of
    // block-multiple shape, every band position carries data.
    Dense<Scalar> a = randomIntDense(6, 9, 3, 1, 9);
    MatVecTransform t(a, 3);
    EXPECT_TRUE(t.validate(/*check_filled=*/true));
    EXPECT_TRUE(t.abar().bandCompletelyFilled());
    // Band position count equals total matrix elements n̄m̄w².
    EXPECT_EQ(t.abar().bandPositionCount(), 6 * 9);
}

TEST(DbtMatVec, BandPreservesEveryElementExactlyOnce)
{
    // Sum over the band equals the sum over the original (each U/L
    // element appears exactly once — condition 3 at value level).
    Dense<Scalar> a = randomIntDense(6, 6, 4);
    MatVecTransform t(a, 3);
    Dense<Scalar> band_dense = t.abar().toDense();
    Scalar sum_band = 0, sum_a = 0;
    for (Index i = 0; i < band_dense.rows(); ++i)
        for (Index j = 0; j < band_dense.cols(); ++j)
            sum_band += band_dense(i, j);
    for (Index i = 0; i < a.rows(); ++i)
        for (Index j = 0; j < a.cols(); ++j)
            sum_a += a(i, j);
    EXPECT_EQ(sum_band, sum_a);
}

TEST(DbtMatVec, TransformXLayout)
{
    // x̄ = x0 x1 x2 | x0 x1 x2 | first w-1 of x0, for n̄=2, m̄=3.
    Dense<Scalar> a = randomIntDense(6, 9, 5);
    MatVecTransform t(a, 3);
    Vec<Scalar> x = randomIntVec(9, 6);
    Vec<Scalar> xbar = t.transformX(x);
    ASSERT_EQ(xbar.size(), 20);
    for (Index k = 0; k < 6; ++k)
        for (Index e = 0; e < 3; ++e)
            EXPECT_EQ(xbar[k * 3 + e], x[(k % 3) * 3 + e]);
    EXPECT_EQ(xbar[18], x[0]);
    EXPECT_EQ(xbar[19], x[1]);
}

TEST(DbtMatVec, ScheduleFlags)
{
    Dense<Scalar> a = randomIntDense(6, 9, 7);
    MatVecTransform t(a, 3);
    // Block-level: external b at k mod m̄ == 0; final at (k+1) mod m̄ == 0.
    EXPECT_EQ(t.bSourceOf(0), BSource::External);
    EXPECT_EQ(t.bSourceOf(1), BSource::Feedback);
    EXPECT_EQ(t.bSourceOf(3), BSource::External);
    EXPECT_EQ(t.ySinkOf(2), YSink::Emit);
    EXPECT_EQ(t.ySinkOf(5), YSink::Emit);
    EXPECT_EQ(t.ySinkOf(0), YSink::Recirculate);
    // Scalar-level agrees with block-level.
    EXPECT_TRUE(t.scalarIsExternalB(0));
    EXPECT_TRUE(t.scalarIsExternalB(2));
    EXPECT_FALSE(t.scalarIsExternalB(3));
    EXPECT_TRUE(t.scalarIsFinalY(8));
    EXPECT_FALSE(t.scalarIsFinalY(9));
}

TEST(DbtMatVec, PrtSpecialCase)
{
    // n̄ = m̄ = 1 reduces DBT-by-rows to the PRT transformation of
    // Priester et al.: a single (U00, L00) pair, all b external,
    // all y final.
    Dense<Scalar> a = randomIntDense(4, 4, 8);
    MatVecTransform t(a, 4);
    EXPECT_EQ(t.dims().blockCount(), 1);
    EXPECT_EQ(t.pair(0).uCol, 0);
    EXPECT_EQ(t.pair(0).lCol, 0);
    EXPECT_EQ(t.bSourceOf(0), BSource::External);
    EXPECT_EQ(t.ySinkOf(0), YSink::Emit);
}

/** Parameterized algebraic correctness sweep: (n, m, w). */
class DbtMatVecCorrectness
    : public ::testing::TestWithParam<std::tuple<Index, Index, Index>>
{};

TEST_P(DbtMatVecCorrectness, TransformedEqualsOracle)
{
    auto [n, m, w] = GetParam();
    Dense<Scalar> a = randomIntDense(n, m, 100 + n * 31 + m * 7 + w);
    Vec<Scalar> x = randomIntVec(m, 200 + n + m + w);
    Vec<Scalar> b = randomIntVec(n, 300 + n * 3 + m + w);

    MatVecTransform t(a, w);
    EXPECT_TRUE(t.abar() == oracle::matVecBand(a, w))
        << "n=" << n << " m=" << m << " w=" << w;
    MatVecExecResult r = execTransformed(t, x, b);
    Vec<Scalar> expect = matVec(a, x, b);
    // Integer workload: results must be bit-exact.
    EXPECT_EQ(maxAbsDiff(r.y, expect), 0.0)
        << "n=" << n << " m=" << m << " w=" << w;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DbtMatVecCorrectness,
    ::testing::Values(
        std::make_tuple(1, 1, 1), std::make_tuple(1, 1, 3),
        std::make_tuple(3, 3, 3), std::make_tuple(6, 9, 3),
        std::make_tuple(9, 6, 3), std::make_tuple(5, 7, 3),
        std::make_tuple(4, 4, 2), std::make_tuple(8, 8, 4),
        std::make_tuple(2, 10, 2), std::make_tuple(10, 2, 2),
        std::make_tuple(7, 13, 5), std::make_tuple(16, 16, 4),
        std::make_tuple(1, 9, 3), std::make_tuple(9, 1, 3),
        std::make_tuple(12, 12, 6), std::make_tuple(6, 9, 9),
        std::make_tuple(3, 3, 5)));

TEST(DbtMatVec, BandEqualsBlockCopyOracleOnEdgeShapes)
{
    // Every padding case on both edges of A: none, one short, one
    // over, w > n, 1×1, tall and wide. The gathered band must equal
    // the block-copy one slot for slot, padding zeros included.
    std::vector<std::tuple<Index, Index, Index>> shapes{
        {37, 5, 3}, {2, 41, 4}, {3, 2, 8}};
    for (Index w : oracle::sweepArraySizes())
        for (Index n : oracle::sweepEdgeSizes(w))
            for (Index m : oracle::sweepEdgeSizes(w))
                shapes.emplace_back(n, m, w);
    for (const auto &[n, m, w] : shapes) {
        Dense<Scalar> a = randomIntDense(n, m, 500 + n * 37 + m * 5 + w);
        MatVecTransform t(a, w);
        EXPECT_TRUE(t.abar() == oracle::matVecBand(a, w))
            << "n=" << n << " m=" << m << " w=" << w;
        EXPECT_TRUE(t.validate(/*check_filled=*/false))
            << "n=" << n << " m=" << m << " w=" << w;
    }
}

TEST(DbtMatVec, LinearityProperty)
{
    // DBT execution is linear in x and b: exec(αx, βb) relations.
    Dense<Scalar> a = randomIntDense(6, 6, 12);
    MatVecTransform t(a, 3);
    Vec<Scalar> x = randomIntVec(6, 13);
    Vec<Scalar> b = randomIntVec(6, 14);
    Vec<Scalar> zero(6);

    Vec<Scalar> y_full = execTransformed(t, x, b).y;
    Vec<Scalar> y_x = execTransformed(t, x, zero).y;
    Vec<Scalar> y_b = execTransformed(t, zero, b).y;
    for (Index i = 0; i < 6; ++i)
        EXPECT_EQ(y_full[i], y_x[i] + y_b[i]);
}

TEST(DbtMatVec, ExtractIgnoresPaddedRows)
{
    // n not a multiple of w: padded rows produce padded outputs that
    // extraction must drop.
    Dense<Scalar> a = randomIntDense(5, 7, 15);
    Vec<Scalar> x = randomIntVec(7, 16);
    Vec<Scalar> b = randomIntVec(5, 17);
    MatVecTransform t(a, 3);
    MatVecExecResult r = execTransformed(t, x, b);
    EXPECT_EQ(r.y.size(), 5);
    EXPECT_EQ(maxAbsDiff(r.y, matVec(a, x, b)), 0.0);
}

} // namespace
} // namespace sap
