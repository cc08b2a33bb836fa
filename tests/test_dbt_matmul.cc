/**
 * @file
 * Tests of the mat-mul transformations (§3 + Appendix): Ā/B̄
 * structure, the Fig. 4 worked example, I/O composition rules, and
 * exact end-to-end correctness C = A·B + E at block level.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "dbt/matmul_exec.hh"
#include "dbt/matmul_io.hh"
#include "dbt/matmul_plan.hh"
#include "dbt/matmul_transform.hh"
#include "dbt_oracle.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"
#include "mat/triangular.hh"

namespace sap {
namespace {

TEST(MatMulTransform, DimsForFig4Example)
{
    // Fig. 4: n̄=2, p̄=2, m̄=3 (with w=3: n=6, p=6, m=9).
    Dense<Scalar> a = randomIntDense(6, 6, 1);
    Dense<Scalar> b = randomIntDense(6, 9, 2);
    MatMulTransform t(a, b, 3);
    EXPECT_EQ(t.dims().nbar, 2);
    EXPECT_EQ(t.dims().pbar, 2);
    EXPECT_EQ(t.dims().mbar, 3);
    EXPECT_EQ(t.dims().blockCount(), 12);  // p̄n̄m̄
    EXPECT_EQ(t.dims().order(), 38);       // w·K + w − 1
}

TEST(MatMulTransform, BandShapes)
{
    Dense<Scalar> a = randomIntDense(4, 4, 3);
    Dense<Scalar> b = randomIntDense(4, 4, 4);
    MatMulTransform t(a, b, 2);
    EXPECT_EQ(t.abar().sub(), 0);
    EXPECT_EQ(t.abar().super(), 1);
    EXPECT_EQ(t.bbar().sub(), 1);
    EXPECT_EQ(t.bbar().super(), 0);
    EXPECT_EQ(t.abar().rows(), t.dims().order());
    EXPECT_EQ(t.bbar().rows(), t.dims().order());
    EXPECT_TRUE(t.dims().coverageHolds());
}

TEST(MatMulTransform, ProvenanceIndices)
{
    // k = c·n̄p̄ + r·p̄ + s with n̄=2, p̄=2, m̄=3.
    Dense<Scalar> a = randomIntDense(6, 6, 5);
    Dense<Scalar> b = randomIntDense(6, 9, 6);
    MatMulTransform t(a, b, 3);
    // k = 0 -> (r,s,c) = (0,0,0); k = 5 -> c=1? 5 = 1*4 + 0*2 + 1.
    EXPECT_EQ(t.dims().rOf(0), 0);
    EXPECT_EQ(t.dims().sOf(0), 0);
    EXPECT_EQ(t.dims().cOf(0), 0);
    EXPECT_EQ(t.dims().rOf(5), 0);
    EXPECT_EQ(t.dims().sOf(5), 1);
    EXPECT_EQ(t.dims().cOf(5), 1);
    EXPECT_EQ(t.dims().rOf(11), 1);
    EXPECT_EQ(t.dims().sOf(11), 1);
    EXPECT_EQ(t.dims().cOf(11), 2);
}

TEST(MatMulTransform, ABarJuxtaposesCopies)
{
    // The m̄ copies of Ā^b carry identical data: Ā(k,k) for k and
    // k + n̄p̄ hold the same U block.
    Dense<Scalar> a = randomIntDense(6, 6, 7);
    Dense<Scalar> b = randomIntDense(6, 9, 8);
    MatMulTransform t(a, b, 3);
    Index period = t.dims().nbar * t.dims().pbar;
    for (Index k = 0; k + period < t.dims().blockCount(); ++k)
        EXPECT_TRUE(t.aDiagBlock(k) == t.aDiagBlock(k + period))
            << "k=" << k;
}

TEST(MatMulTransform, BBarColumnBlocksAndWrap)
{
    // B̄ diag block at row k is the lower part of B block (s, c);
    // the sub-diagonal block wraps to the previous copy's column at
    // copy boundaries.
    Dense<Scalar> a = randomIntDense(6, 6, 9);
    Dense<Scalar> b = randomIntDense(6, 9, 10);
    MatMulTransform t(a, b, 3);
    BlockPartition<Scalar> bp(b, 3);
    // k=5: s=1, c=1.
    EXPECT_TRUE(t.bDiagBlock(5) ==
                triPartOf(bp.block(1, 1), TriPart::LowerWithDiag));
    // k=4 (copy boundary): sub block comes from column c=0.
    EXPECT_TRUE(t.bSubBlock(4) ==
                triPartOf(bp.block(0, 0), TriPart::UpperStrict));
    // interior: k=5 sub block from column 1.
    EXPECT_TRUE(t.bSubBlock(5) ==
                triPartOf(bp.block(1, 1), TriPart::UpperStrict));
}

TEST(MatMulTransform, TailBlocksAreLeadingCorners)
{
    Dense<Scalar> a = randomIntDense(6, 6, 11);
    Dense<Scalar> b = randomIntDense(6, 9, 12);
    MatMulTransform t(a, b, 3);
    const Index K = t.dims().blockCount();
    const Index w = 3;
    Dense<Scalar> u_tail = t.aDiagBlock(K);
    Dense<Scalar> u00 = t.aDiagBlock(0);
    for (Index i = 0; i < w - 1; ++i)
        for (Index j = i; j < w - 1; ++j)
            EXPECT_EQ(u_tail(i, j), u00(i, j));
    for (Index tcol = 0; tcol < w; ++tcol) {
        EXPECT_EQ(u_tail(w - 1, tcol), 0);
        EXPECT_EQ(u_tail(tcol, w - 1), 0);
    }
}

/** Bands, read through the map position by position, and provenance
 *  blocks equal the block-copy oracle's. */
void
expectMatchesBlockCopyOracle(const Dense<Scalar> &a,
                             const Dense<Scalar> &b, Index w)
{
    MatMulTransform t(a, b, w);
    oracle::MatMul o(a, b, w);
    SCOPED_TRACE(::testing::Message() << "n=" << a.rows() << " p="
                                      << a.cols() << " m=" << b.cols()
                                      << " w=" << w);
    EXPECT_TRUE(oracle::sameBand(t.abar(), o.abar()));
    EXPECT_TRUE(oracle::sameBand(t.bbar(), o.bbar()));
    for (Index k = 0; k <= o.blockCount(); ++k) {
        EXPECT_TRUE(t.aDiagBlock(k) == o.aDiagBlock(k)) << "k=" << k;
        EXPECT_TRUE(t.aSuperBlock(k) == o.aSuperBlock(k)) << "k=" << k;
        EXPECT_TRUE(t.bDiagBlock(k) == o.bDiagBlock(k)) << "k=" << k;
        if (k >= 1) {
            EXPECT_TRUE(t.bSubBlock(k) == o.bSubBlock(k)) << "k=" << k;
        }
    }
}

TEST(MatMulTransform, BandsEqualBlockCopyOracleOnEdgeShapes)
{
    // Every padding case on every edge of A and B (none, one short,
    // one over, w > n), 1×1×1, and tall and wide operands.
    std::vector<std::tuple<Index, Index, Index, Index>> shapes{
        {23, 2, 3, 4}, {2, 3, 23, 4}, {3, 23, 2, 4}, {2, 3, 1, 8}};
    for (Index w : oracle::sweepArraySizes())
        for (Index n : oracle::sweepEdgeSizes(w))
            for (Index p : oracle::sweepEdgeSizes(w))
                for (Index m : oracle::sweepEdgeSizes(w))
                    shapes.emplace_back(n, p, m, w);
    for (const auto &[n, p, m, w] : shapes)
        expectMatchesBlockCopyOracle(
            randomIntDense(n, p, 600 + n * 41 + p * 7 + m + w),
            randomIntDense(p, m, 700 + n + p * 13 + m * 3 + w), w);
}

TEST(MatMulSkeleton, PlansOfOneShapeShareOneSkeleton)
{
    // Shapes no other test here uses, so only these plans hold them.
    MatMulPlan p1(randomIntDense(7, 5, 1), randomIntDense(5, 6, 2), 3);
    MatMulPlan p2(randomIntDense(7, 5, 3), randomIntDense(5, 6, 4), 3);
    MatMulPlan other(randomIntDense(7, 5, 5), randomIntDense(5, 8, 6),
                     3);
    EXPECT_FALSE(p1.reusedSkeleton());
    EXPECT_TRUE(p2.reusedSkeleton());
    EXPECT_EQ(p1.skeleton().get(), p2.skeleton().get());
    EXPECT_FALSE(other.reusedSkeleton());
    EXPECT_NE(other.skeleton().get(), p1.skeleton().get());
    // Every plan of the shape reads its bands through the skeleton's
    // one map, and keeps only its own A and B.
    EXPECT_EQ(&p1.transform().map(), p1.skeleton()->map().get());
    EXPECT_EQ(&p2.transform().map(), p1.skeleton()->map().get());
    EXPECT_EQ(&other.transform().map(), other.skeleton()->map().get());
    EXPECT_NE(&other.transform().map(), &p1.transform().map());
    EXPECT_FALSE(sameBits(p1.transform().a(), p2.transform().a()));
    EXPECT_FALSE(sameBits(p1.transform().b(), p2.transform().b()));
}

TEST(MatMulSkeleton, LastPlanOfAShapeTakesItsSkeletonAlong)
{
    std::weak_ptr<const MatMulSkeleton> seen;
    {
        MatMulPlan p(randomIntDense(5, 7, 7), randomIntDense(7, 4, 8), 3);
        EXPECT_FALSE(p.reusedSkeleton());
        seen = p.skeleton();
        EXPECT_FALSE(seen.expired());
    }
    EXPECT_TRUE(seen.expired());
    MatMulPlan again(randomIntDense(5, 7, 9), randomIntDense(7, 4, 10),
                     3);
    EXPECT_FALSE(again.reusedSkeleton());
    const Dense<Scalar> e = randomIntDense(5, 4, 11);
    EXPECT_TRUE(again.run(e).c ==
                matMulAdd(randomIntDense(5, 7, 9),
                          randomIntDense(7, 4, 10), e));
}

TEST(IoComposerTest, ValidatesAcrossShapes)
{
    for (Index nbar : {1, 2, 3}) {
        for (Index pbar : {1, 2, 3}) {
            for (Index mbar : {1, 2, 3}) {
                for (Index w : {1, 2, 3}) {
                    MatMulDims d{nbar * w, pbar * w, mbar * w, w,
                                 nbar, pbar, mbar};
                    IoComposer comp(d);
                    EXPECT_TRUE(comp.validate())
                        << "n̄=" << nbar << " p̄=" << pbar
                        << " m̄=" << mbar << " w=" << w;
                }
            }
        }
    }
}

TEST(IoComposerTest, ChainStartsTakeE)
{
    MatMulDims d{6, 6, 9, 3, 2, 2, 3};
    IoComposer comp(d);
    // Chain of C(1,0) starts at k = 2 (= r·p̄): E enters the
    // sub-diagonal slot.
    IoSource s = comp.inputSource(2, BandPart::USub);
    EXPECT_EQ(s.kind, IoSource::Kind::FromE);
    EXPECT_EQ(s.eRow, 1);
    EXPECT_EQ(s.eCol, 0);
    // Chain of C(0,1) starts at k = 4 (copy boundary): E enters the
    // diagonal-upper slot and the sub-diagonal takes the long
    // feedback of C(0,0)'s partial.
    IoSource s2 = comp.inputSource(4, BandPart::UDiag);
    EXPECT_EQ(s2.kind, IoSource::Kind::FromE);
    EXPECT_EQ(s2.eRow, 0);
    EXPECT_EQ(s2.eCol, 1);
    IoSource s3 = comp.inputSource(4, BandPart::USub);
    EXPECT_EQ(s3.kind, IoSource::Kind::FromO);
    EXPECT_EQ(s3.oRow, 1); // k − p̄(n̄−1) − 1 = 4 − 3
    EXPECT_EQ(s3.oPart, BandPart::UDiag);
    EXPECT_TRUE(s3.irregular);
}

TEST(IoComposerTest, LChainIrregularities)
{
    MatMulDims d{6, 6, 9, 3, 2, 2, 3};
    IoComposer comp(d);
    const Index K = d.blockCount(); // 12
    // The global tail: L chain of C(n̄−1, 0) resumes at k = K−1.
    IoSource s = comp.inputSource(K - 1, BandPart::LSuper);
    EXPECT_EQ(s.kind, IoSource::Kind::FromO);
    EXPECT_EQ(s.oRow, 3); // p̄n̄ − 1
    EXPECT_EQ(s.oPart, BandPart::LDiag);
    EXPECT_TRUE(s.irregular);
    // E for chain (n̄−1, 1) enters at the early super-diagonal slot
    // k = n̄p̄ − 1 = 3.
    IoSource s2 = comp.inputSource(3, BandPart::LSuper);
    EXPECT_EQ(s2.kind, IoSource::Kind::FromE);
    EXPECT_EQ(s2.eRow, 1);
    EXPECT_EQ(s2.eCol, 1);
}

/** Parameterized end-to-end correctness: (n, p, m, w). */
class MatMulCorrectness
    : public ::testing::TestWithParam<
          std::tuple<Index, Index, Index, Index>>
{};

TEST_P(MatMulCorrectness, BlockExecEqualsOracle)
{
    auto [n, p, m, w] = GetParam();
    Dense<Scalar> a = randomIntDense(n, p, 40 + n * 13 + p + m + w);
    Dense<Scalar> b = randomIntDense(p, m, 41 + n + p * 7 + m + w);
    Dense<Scalar> e = randomIntDense(n, m, 42 + n + p + m * 3 + w);

    MatMulTransform t(a, b, w);
    EXPECT_TRUE(t.dims().coverageHolds());
    expectMatchesBlockCopyOracle(a, b, w);
    MatMulExecResult r = execTransformedMatMul(t, e);
    Dense<Scalar> expect = matMulAdd(a, b, e);
    EXPECT_EQ(maxAbsDiff(r.c, expect), 0.0)
        << "n=" << n << " p=" << p << " m=" << m << " w=" << w;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulCorrectness,
    ::testing::Values(
        std::make_tuple(1, 1, 1, 1), std::make_tuple(2, 2, 2, 2),
        std::make_tuple(2, 2, 2, 1), std::make_tuple(4, 4, 4, 2),
        std::make_tuple(6, 6, 9, 3),   // the paper's Fig. 4 shape
        std::make_tuple(3, 3, 3, 3),   // single block
        std::make_tuple(6, 3, 3, 3),   // n̄=2, p̄=1, m̄=1
        std::make_tuple(3, 6, 3, 3),   // p̄=2 only
        std::make_tuple(3, 3, 6, 3),   // m̄=2 only
        std::make_tuple(9, 6, 3, 3),   // n̄=3, p̄=2, m̄=1
        std::make_tuple(3, 9, 6, 3),   // p̄=3, m̄=2
        std::make_tuple(8, 6, 4, 2),   // n̄=4, p̄=3, m̄=2
        std::make_tuple(5, 7, 4, 3),   // padding on all sides
        std::make_tuple(2, 9, 5, 4),   // heavy padding
        std::make_tuple(12, 12, 12, 3),
        std::make_tuple(4, 4, 4, 4),
        std::make_tuple(10, 10, 10, 5)));

TEST(MatMulExec, ZeroEGivesPlainProduct)
{
    Dense<Scalar> a = randomIntDense(6, 6, 50);
    Dense<Scalar> b = randomIntDense(6, 6, 51);
    Dense<Scalar> e(6, 6);
    MatMulTransform t(a, b, 3);
    MatMulExecResult r = execTransformedMatMul(t, e);
    EXPECT_EQ(maxAbsDiff(r.c, matMul(a, b)), 0.0);
}

TEST(MatMulExec, IdentityAPassesBThrough)
{
    Dense<Scalar> b = randomIntDense(6, 6, 52);
    Dense<Scalar> e(6, 6);
    MatMulTransform t(identity<Scalar>(6), b, 3);
    MatMulExecResult r = execTransformedMatMul(t, e);
    EXPECT_EQ(maxAbsDiff(r.c, b), 0.0);
}

TEST(MatMulExec, OBandPartsHaveDeclaredShapes)
{
    Dense<Scalar> a = randomIntDense(6, 6, 53);
    Dense<Scalar> b = randomIntDense(6, 9, 54);
    MatMulTransform t(a, b, 3);
    MatMulExecResult r = execTransformedMatMul(t, randomIntDense(6, 9, 55));
    for (const OBandRow &row : r.oband) {
        EXPECT_TRUE(conformsToTriPart(row.uSub, TriPart::UpperStrict));
        EXPECT_TRUE(conformsToTriPart(row.uDiag, TriPart::UpperStrict));
        EXPECT_TRUE(conformsToTriPart(row.lDiag, TriPart::LowerStrict));
        EXPECT_TRUE(conformsToTriPart(row.lSuper, TriPart::LowerStrict));
        EXPECT_TRUE(conformsToTriPart(row.diag, TriPart::DiagOnly));
    }
}

} // namespace
} // namespace sap
