/**
 * @file
 * Unit tests for the matrix substrate: dense/band/triangular
 * containers, block partitioning, oracle operations, generators.
 */

#include <gtest/gtest.h>

#include "block.hh"
#include "mat/band.hh"
#include "mat/dense.hh"
#include "mat/generate.hh"
#include "mat/io.hh"
#include "mat/ops.hh"
#include "mat/triangular.hh"
#include "mat/vector.hh"

namespace sap {
namespace {

TEST(Dense, ConstructAndIndex)
{
    Dense<Scalar> a(2, 3);
    EXPECT_EQ(a.rows(), 2);
    EXPECT_EQ(a.cols(), 3);
    a(1, 2) = 5;
    EXPECT_EQ(a(1, 2), 5);
    EXPECT_EQ(a(0, 0), 0);
}

TEST(Dense, Transpose)
{
    Dense<Scalar> a = coordinateCoded(2, 3);
    Dense<Scalar> t = a.transposed();
    EXPECT_EQ(t.rows(), 3);
    EXPECT_EQ(t.cols(), 2);
    for (Index i = 0; i < 2; ++i)
        for (Index j = 0; j < 3; ++j)
            EXPECT_EQ(a(i, j), t(j, i));
}

TEST(Dense, TransposeInvolution)
{
    Dense<Scalar> a = randomIntDense(5, 7, 1);
    EXPECT_TRUE(a.transposed().transposed() == a);
}

TEST(Dense, PaddedToKeepsValuesAndZeroFills)
{
    Dense<Scalar> a = coordinateCoded(2, 2);
    Dense<Scalar> p = a.paddedTo(3, 4);
    EXPECT_EQ(p(1, 1), a(1, 1));
    EXPECT_EQ(p(2, 3), 0);
    EXPECT_TRUE(p.topLeft(2, 2) == a);
}

TEST(Dense, MaxAbsDiff)
{
    Dense<Scalar> a = randomIntDense(3, 3, 2);
    Dense<Scalar> b = a;
    EXPECT_EQ(maxAbsDiff(a, b), 0.0);
    b(1, 1) += 2.5;
    EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 2.5);
}

TEST(Vec, SliceAndAppend)
{
    Vec<Scalar> v{1, 2, 3, 4, 5};
    Vec<Scalar> s = v.slice(1, 3);
    EXPECT_EQ(s.size(), 3);
    EXPECT_EQ(s[0], 2);
    EXPECT_EQ(s[2], 4);
    s.append(v.slice(0, 1));
    EXPECT_EQ(s.size(), 4);
    EXPECT_EQ(s[3], 1);
}

TEST(Vec, PaddedTo)
{
    Vec<Scalar> v{1, 2};
    Vec<Scalar> p = v.paddedTo(4);
    EXPECT_EQ(p.size(), 4);
    EXPECT_EQ(p[1], 2);
    EXPECT_EQ(p[3], 0);
}

TEST(Band, InBandAndAccess)
{
    Band<Scalar> b(4, 6, 0, 2); // upper band, bandwidth 3
    EXPECT_TRUE(b.inBand(0, 0));
    EXPECT_TRUE(b.inBand(0, 2));
    EXPECT_FALSE(b.inBand(0, 3));
    EXPECT_FALSE(b.inBand(1, 0));
    b.ref(1, 3) = 7;
    EXPECT_EQ(b.at(1, 3), 7);
    EXPECT_EQ(b.at(3, 0), 0); // outside band reads zero
}

TEST(Band, ToDenseRoundTrip)
{
    Band<Scalar> b(3, 5, 0, 2);
    for (Index r = 0; r < 3; ++r)
        for (Index off = 0; off <= 2; ++off)
            if (r + off < 5)
                b.ref(r, r + off) = 10 * r + off + 1;
    Dense<Scalar> d = b.toDense();
    EXPECT_EQ(d(0, 0), 1);
    EXPECT_EQ(d(2, 4), 23);
    EXPECT_EQ(d(2, 0), 0);
}

TEST(Band, FilledDetection)
{
    Band<Scalar> b(2, 3, 0, 1);
    b.ref(0, 0) = 1;
    b.ref(0, 1) = 1;
    b.ref(1, 1) = 1;
    EXPECT_FALSE(b.bandCompletelyFilled());
    b.ref(1, 2) = 1;
    EXPECT_TRUE(b.bandCompletelyFilled());
    EXPECT_EQ(b.bandPositionCount(), 4);
}

TEST(Triangular, SplitULPartition)
{
    Dense<Scalar> blk = coordinateCoded(4, 4);
    auto [u, l] = splitUL(blk);
    // U + L == original, U upper-with-diag, L strictly lower.
    EXPECT_TRUE(add(u, l) == blk);
    EXPECT_TRUE(conformsToTriPart(u, TriPart::UpperWithDiag));
    EXPECT_TRUE(conformsToTriPart(l, TriPart::LowerStrict));
    // The diagonal belongs to U (the paper's convention).
    EXPECT_EQ(u(2, 2), blk(2, 2));
    EXPECT_EQ(l(2, 2), 0);
}

TEST(Triangular, PartPredicates)
{
    EXPECT_TRUE(inTriPart(TriPart::UpperWithDiag, 1, 1));
    EXPECT_FALSE(inTriPart(TriPart::UpperStrict, 1, 1));
    EXPECT_TRUE(inTriPart(TriPart::LowerStrict, 2, 0));
    EXPECT_TRUE(inTriPart(TriPart::DiagOnly, 3, 3));
    EXPECT_FALSE(inTriPart(TriPart::DiagOnly, 3, 2));
}

TEST(Block, PartitionPadsToMultiples)
{
    Dense<Scalar> a = coordinateCoded(5, 7);
    BlockPartition<Scalar> p(a, 3);
    EXPECT_EQ(p.blockRows(), 2);
    EXPECT_EQ(p.blockCols(), 3);
    EXPECT_EQ(p.paddedRows(), 6);
    EXPECT_EQ(p.paddedCols(), 9);
    // Original content preserved, padding zero.
    EXPECT_EQ(p.padded()(4, 6), a(4, 6));
    EXPECT_EQ(p.padded()(5, 8), 0);
}

TEST(Block, BlockExtraction)
{
    Dense<Scalar> a = coordinateCoded(6, 6);
    BlockPartition<Scalar> p(a, 3);
    Dense<Scalar> blk = p.block(1, 0);
    for (Index r = 0; r < 3; ++r)
        for (Index c = 0; c < 3; ++c)
            EXPECT_EQ(blk(r, c), a(3 + r, c));
}

TEST(Block, ZeroBlockDetection)
{
    Dense<Scalar> a(6, 6);
    a(0, 0) = 1; // only block (0,0) nonzero
    BlockPartition<Scalar> p(a, 3);
    EXPECT_FALSE(p.blockIsZero(0, 0));
    EXPECT_TRUE(p.blockIsZero(0, 1));
    EXPECT_TRUE(p.blockIsZero(1, 1));
}

TEST(Ops, MatVecOracle)
{
    Dense<Scalar> a{2, 3};
    a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
    a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
    Vec<Scalar> x{1, 1, 1};
    Vec<Scalar> b{10, 20};
    Vec<Scalar> y = matVec(a, x, b);
    EXPECT_EQ(y[0], 16);
    EXPECT_EQ(y[1], 35);
}

TEST(Ops, MatMulIdentity)
{
    Dense<Scalar> a = randomIntDense(4, 4, 3);
    EXPECT_TRUE(matMul(a, identity<Scalar>(4)) == a);
    EXPECT_TRUE(matMul(identity<Scalar>(4), a) == a);
}

TEST(Ops, MatMulAssociatesWithOracle)
{
    Dense<Scalar> a = randomIntDense(3, 4, 4);
    Dense<Scalar> b = randomIntDense(4, 2, 5);
    Dense<Scalar> e = randomIntDense(3, 2, 6);
    Dense<Scalar> c = matMulAdd(a, b, e);
    for (Index i = 0; i < 3; ++i) {
        for (Index j = 0; j < 2; ++j) {
            Scalar acc = e(i, j);
            for (Index k = 0; k < 4; ++k)
                acc += a(i, k) * b(k, j);
            EXPECT_EQ(c(i, j), acc);
        }
    }
}

TEST(Ops, ForwardSolve)
{
    Dense<Scalar> l = randomLowerTriangular(6, 7);
    Vec<Scalar> x_ref = randomIntVec(6, 8);
    Vec<Scalar> b(6);
    for (Index i = 0; i < 6; ++i) {
        Scalar acc = 0;
        for (Index j = 0; j <= i; ++j)
            acc += l(i, j) * x_ref[j];
        b[i] = acc;
    }
    Vec<Scalar> x = forwardSolve(l, b);
    EXPECT_LT(maxAbsDiff(x, x_ref), 1e-9);
}

TEST(Generate, IntDenseInRangeAndNonzero)
{
    Dense<Scalar> a = randomIntDense(8, 8, 9, 1, 9);
    for (Index i = 0; i < 8; ++i) {
        for (Index j = 0; j < 8; ++j) {
            EXPECT_GE(a(i, j), 1);
            EXPECT_LE(a(i, j), 9);
        }
    }
}

TEST(Generate, BlockSparseHasZeroBlocks)
{
    Dense<Scalar> a = randomBlockSparse(12, 12, 3, 0.5, 10);
    BlockPartition<Scalar> p(a, 3);
    int zero_blocks = 0;
    for (Index i = 0; i < p.blockRows(); ++i)
        for (Index j = 0; j < p.blockCols(); ++j)
            if (p.blockIsZero(i, j))
                ++zero_blocks;
    EXPECT_GT(zero_blocks, 0);
    EXPECT_LT(zero_blocks, 16);
}

TEST(Generate, DiagDominant)
{
    Dense<Scalar> a = randomDiagDominant(10, 11);
    for (Index i = 0; i < 10; ++i) {
        Scalar off = 0;
        for (Index j = 0; j < 10; ++j)
            if (j != i)
                off += std::abs(a(i, j));
        EXPECT_GT(a(i, i), off);
    }
}

TEST(Io, OccupancyPicture)
{
    Dense<Scalar> a(2, 2);
    a(0, 0) = 1;
    EXPECT_EQ(occupancyPicture(a), "#.\n..\n");
}

TEST(Io, ToStringVector)
{
    Vec<Scalar> v{1, 2};
    EXPECT_EQ(toString(v, 0), "[1 2]");
}

} // namespace
} // namespace sap
