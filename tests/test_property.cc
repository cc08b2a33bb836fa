/**
 * @file
 * Property-based tests: algebraic identities and structural
 * invariants that must hold across randomly drawn shapes and
 * values, beyond the worked examples.
 */

#include <gtest/gtest.h>

#include "analysis/formulas.hh"
#include "analysis/sweep.hh"
#include "base/math_util.hh"
#include "base/random.hh"
#include "engine/registry.hh"
#include "dbt/matmul_plan.hh"
#include "dbt/matvec_plan.hh"
#include "dbt/sparse_dbt.hh"
#include "dbt_oracle.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"
#include "mat/triangular.hh"
#include "matvec_exec.hh"
#include "serve/fingerprint.hh"

namespace sap {
namespace {

/** Sweep seeds for the randomized property tests. */
class RandomShapes : public ::testing::TestWithParam<int>
{
  protected:
    /** Draw a shape in [1, 12] and an array size in [1, 5]. */
    void
    draw(Index &n, Index &m, Index &w)
    {
        Rng rng(1000 + GetParam());
        n = rng.uniformInt(1, 12);
        m = rng.uniformInt(1, 12);
        w = rng.uniformInt(1, 5);
    }
};

TEST_P(RandomShapes, MatVecPlanExactOnRandomShape)
{
    Index n, m, w;
    draw(n, m, w);
    Dense<Scalar> a = randomIntDense(n, m, 2000 + GetParam());
    Vec<Scalar> x = randomIntVec(m, 3000 + GetParam());
    Vec<Scalar> b = randomIntVec(n, 4000 + GetParam());
    MatVecPlan plan(a, w);
    EXPECT_TRUE(plan.transform().abar() == oracle::matVecBand(a, w))
        << "n=" << n << " m=" << m << " w=" << w;
    EXPECT_EQ(maxAbsDiff(plan.run(x, b).y, matVec(a, x, b)), 0.0)
        << "n=" << n << " m=" << m << " w=" << w;
}

TEST_P(RandomShapes, TimeAndUtilizationFormulasOnRandomShape)
{
    Index n, m, w;
    draw(n, m, w);
    Dense<Scalar> a = randomIntDense(n, m, 2100 + GetParam());
    MatVecPlan plan(a, w);
    MatVecPlanResult r = plan.run(randomIntVec(m, 1),
                                  randomIntVec(n, 2));
    const MatVecDims &d = plan.dims();
    EXPECT_EQ(r.stats.cycles, formulas::tMatVec(w, d.nbar, d.mbar));
    EXPECT_NEAR(r.stats.utilization(),
                formulas::eMatVec(w, d.nbar, d.mbar), 1e-12);
}

TEST_P(RandomShapes, AlgebraicAndCycleExecutorsAgree)
{
    Index n, m, w;
    draw(n, m, w);
    Dense<Scalar> a = randomIntDense(n, m, 2200 + GetParam());
    Vec<Scalar> x = randomIntVec(m, 2300 + GetParam());
    Vec<Scalar> b = randomIntVec(n, 2400 + GetParam());
    MatVecTransform t(a, w);
    MatVecPlan plan(a, w);
    EXPECT_EQ(maxAbsDiff(execTransformed(t, x, b).y,
                         plan.run(x, b).y), 0.0);
}

TEST_P(RandomShapes, SparseDbtMatchesDenseOnRandomPattern)
{
    Index n, m, w;
    draw(n, m, w);
    double prob = 0.1 * (GetParam() % 10);
    Dense<Scalar> a = randomBlockSparse(n, m, w, prob,
                                        2500 + GetParam());
    Vec<Scalar> x = randomIntVec(m, 2600 + GetParam());
    Vec<Scalar> b = randomIntVec(n, 2700 + GetParam());
    SparseDbt sparse(a, w);
    BandMatVecSpec spec = sparse.spec(x, b);
    Vec<Scalar> y;
    if (sparse.keptBlocks() > 0) {
        LinearRunResult r = runBandMatVec(spec);
        y = sparse.extractY(r.ybar);
    } else {
        y = sparse.extractY(Vec<Scalar>(0));
    }
    EXPECT_EQ(maxAbsDiff(y, matVec(a, x, b)), 0.0)
        << "n=" << n << " m=" << m << " w=" << w << " p=" << prob;
}

TEST_P(RandomShapes, OverlapSplitPreservesResults)
{
    Index n, m, w;
    draw(n, m, w);
    n = std::max(n, 2 * w); // ensure n̄ >= 2
    Dense<Scalar> a = randomIntDense(n, m, 2800 + GetParam());
    Vec<Scalar> x = randomIntVec(m, 2900 + GetParam());
    Vec<Scalar> b = randomIntVec(n, 3100 + GetParam());
    MatVecPlan plan(a, w);
    EXPECT_EQ(maxAbsDiff(plan.runOverlapped(x, b).y, matVec(a, x, b)),
              0.0)
        << "n=" << n << " m=" << m << " w=" << w;
}

TEST_P(RandomShapes, EveryMatVecEngineExactOnRandomShape)
{
    // The engine harness must be exact on every topology across the
    // same shape sweep as the per-driver tests above.
    Index n, m, w;
    draw(n, m, w);
    Dense<Scalar> a = randomIntDense(n, m, 3200 + GetParam());
    Vec<Scalar> x = randomIntVec(m, 3300 + GetParam());
    Vec<Scalar> b = randomIntVec(n, 3400 + GetParam());
    Vec<Scalar> gold = matVec(a, x, b);
    EnginePlan plan = EnginePlan::matVec(a, x, b, w);
    for (const std::string &name : engineNames(ProblemKind::MatVec)) {
        if (name == "overlapped" && ceilDiv(n, w) < 2)
            continue; // split needs at least two block rows
        EngineRunResult r = makeEngine(name)->run(plan);
        EXPECT_EQ(maxAbsDiff(r.y, gold), 0.0)
            << name << " n=" << n << " m=" << m << " w=" << w;
        EXPECT_TRUE(r.conflictFree) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomShapes, ::testing::Range(0, 24));

/** Random mat-mul shapes. */
class RandomMatMul : public ::testing::TestWithParam<int>
{
  protected:
    void
    draw(Index &n, Index &p, Index &m, Index &w)
    {
        Rng rng(5000 + GetParam());
        n = rng.uniformInt(1, 9);
        p = rng.uniformInt(1, 9);
        m = rng.uniformInt(1, 9);
        w = rng.uniformInt(1, 4);
    }
};

TEST_P(RandomMatMul, BlockOracleExact)
{
    Index n, p, m, w;
    draw(n, p, m, w);
    Dense<Scalar> a = randomIntDense(n, p, 6000 + GetParam());
    Dense<Scalar> b = randomIntDense(p, m, 7000 + GetParam());
    Dense<Scalar> e = randomIntDense(n, m, 8000 + GetParam());
    MatMulTransform t(a, b, w);
    EXPECT_TRUE(t.dims().coverageHolds());
    oracle::MatMul o(a, b, w);
    EXPECT_TRUE(oracle::sameBand(t.abar(), o.abar()) &&
                oracle::sameBand(t.bbar(), o.bbar()))
        << "n=" << n << " p=" << p << " m=" << m << " w=" << w;
    EXPECT_EQ(maxAbsDiff(execTransformedMatMul(t, e).c,
                         matMulAdd(a, b, e)), 0.0)
        << "n=" << n << " p=" << p << " m=" << m << " w=" << w;
}

TEST_P(RandomMatMul, CycleSimExactAndOnTime)
{
    Index n, p, m, w;
    draw(n, p, m, w);
    Dense<Scalar> a = randomIntDense(n, p, 6100 + GetParam());
    Dense<Scalar> b = randomIntDense(p, m, 7100 + GetParam());
    Dense<Scalar> e = randomIntDense(n, m, 8100 + GetParam());
    MatMulPlan plan(a, b, w);
    MatMulPlanResult r = plan.run(e);
    EXPECT_EQ(maxAbsDiff(r.c, matMulAdd(a, b, e)), 0.0);
    const MatMulDims &d = plan.dims();
    EXPECT_EQ(r.stats.cycles,
              formulas::tMatMul(w, d.pbar, d.nbar, d.mbar));
    EXPECT_TRUE(r.feedback->topologyRespected());
}

TEST_P(RandomMatMul, EveryMatMulEngineExactOnRandomShape)
{
    Index n, p, m, w;
    draw(n, p, m, w);
    Dense<Scalar> a = randomIntDense(n, p, 6200 + GetParam());
    Dense<Scalar> b = randomIntDense(p, m, 7200 + GetParam());
    Dense<Scalar> e = randomIntDense(n, m, 8200 + GetParam());
    Dense<Scalar> gold = matMulAdd(a, b, e);
    EnginePlan plan = EnginePlan::matMul(a, b, e, w);
    for (const std::string &name : engineNames(ProblemKind::MatMul)) {
        EngineRunResult r = makeEngine(name)->run(plan);
        EXPECT_TRUE(r.c == gold)
            << name << " n=" << n << " p=" << p << " m=" << m
            << " w=" << w;
        EXPECT_TRUE(r.topologyRespected) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMatMul, ::testing::Range(0, 16));

//---------------------------------------------------------------------
// Parallel property harness: the every-engine exactness sweeps are
// the slowest property family, and engines are stateless, so the
// (seed × engine) points fan out over the serving thread pool via
// the shared analysis/sweep.hh runConfigSweep runner. Workers only
// compute (gtest assertions are not thread-safe); the main thread
// requires every pooled digest to be bit-identical to the serial
// pass and to the host oracle.
//---------------------------------------------------------------------

/** One engine-exactness point: (result digest, oracle digest).
 *  A pure function of (engine, seed) — the parallel contract. */
std::pair<Digest, Digest>
matVecEnginePoint(const std::string &name, int seed)
{
    Rng rng(1000 + seed); // same draw as the RandomShapes fixture
    Index n = rng.uniformInt(1, 12);
    Index m = rng.uniformInt(1, 12);
    Index w = rng.uniformInt(1, 5);
    Dense<Scalar> a = randomIntDense(n, m, 3200 + seed);
    Vec<Scalar> x = randomIntVec(m, 3300 + seed);
    Vec<Scalar> b = randomIntVec(n, 3400 + seed);
    EngineRunResult r =
        makeEngine(name)->run(EnginePlan::matVec(a, x, b, w));
    return {fingerprintVec(r.y), fingerprintVec(matVec(a, x, b))};
}

/** @copydoc matVecEnginePoint() */
std::pair<Digest, Digest>
matMulEnginePoint(const std::string &name, int seed)
{
    Rng rng(5000 + seed); // same draw as the RandomMatMul fixture
    Index n = rng.uniformInt(1, 9);
    Index p = rng.uniformInt(1, 9);
    Index m = rng.uniformInt(1, 9);
    Index w = rng.uniformInt(1, 4);
    Dense<Scalar> a = randomIntDense(n, p, 6200 + seed);
    Dense<Scalar> b = randomIntDense(p, m, 7200 + seed);
    Dense<Scalar> e = randomIntDense(n, m, 8200 + seed);
    EngineRunResult r =
        makeEngine(name)->run(EnginePlan::matMul(a, b, e, w));
    return {fingerprintDense(r.c),
            fingerprintDense(matMulAdd(a, b, e))};
}

TEST(ParallelProperty, MatVecEngineSweepPooledBitIdenticalToSerial)
{
    std::vector<std::pair<std::string, int>> points;
    for (int seed = 0; seed < 24; ++seed) {
        Rng rng(1000 + seed);
        Index n = rng.uniformInt(1, 12);
        rng.uniformInt(1, 12);
        Index w = rng.uniformInt(1, 5);
        for (const std::string &name :
             engineNames(ProblemKind::MatVec)) {
            if (name == "overlapped" && ceilDiv(n, w) < 2)
                continue; // split needs at least two block rows
            points.emplace_back(name, seed);
        }
    }

    std::vector<std::pair<Digest, Digest>> serial;
    serial.reserve(points.size());
    for (const auto &pt : points)
        serial.push_back(matVecEnginePoint(pt.first, pt.second));

    std::vector<std::pair<Digest, Digest>> pooled = runConfigSweep(
        points, /*threads=*/4,
        [](const std::pair<std::string, int> &pt) {
            return matVecEnginePoint(pt.first, pt.second);
        });

    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(pooled[i].first, serial[i].first)
            << points[i].first << " seed " << points[i].second;
        EXPECT_EQ(pooled[i].first, pooled[i].second)
            << points[i].first << " seed " << points[i].second
            << " diverges from the host oracle";
    }
}

TEST(ParallelProperty, MatMulEngineSweepPooledBitIdenticalToSerial)
{
    std::vector<std::pair<std::string, int>> points;
    for (int seed = 0; seed < 16; ++seed)
        for (const std::string &name :
             engineNames(ProblemKind::MatMul))
            points.emplace_back(name, seed);

    std::vector<std::pair<Digest, Digest>> serial;
    serial.reserve(points.size());
    for (const auto &pt : points)
        serial.push_back(matMulEnginePoint(pt.first, pt.second));

    std::vector<std::pair<Digest, Digest>> pooled = runConfigSweep(
        points, /*threads=*/4,
        [](const std::pair<std::string, int> &pt) {
            return matMulEnginePoint(pt.first, pt.second);
        });

    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(pooled[i].first, serial[i].first)
            << points[i].first << " seed " << points[i].second;
        EXPECT_EQ(pooled[i].first, pooled[i].second)
            << points[i].first << " seed " << points[i].second
            << " diverges from the host oracle";
    }
}

//---------------------------------------------------------------------
// Algebraic identities
//---------------------------------------------------------------------

TEST(Identities, DbtTransposeDuality)
{
    // DBT-transposed-by-rows(B) = (DBT-by-rows(Bᵀ))ᵀ manifests in
    // the mat-mul B̄ band: its diagonal blocks are the transposes of
    // the Ū blocks that DBT-by-rows would produce for Bᵀ.
    Dense<Scalar> b = randomIntDense(6, 9, 9000);
    MatMulTransform mm(identity<Scalar>(6), b, 3);
    // Column block 0 of B corresponds to DBT of (B_0)ᵀ.
    Dense<Scalar> b0(6, 3);
    for (Index i = 0; i < 6; ++i)
        for (Index j = 0; j < 3; ++j)
            b0(i, j) = b(i, j);
    MatVecTransform mv(b0.transposed(), 3);
    for (Index l = 0; l < mm.dims().pbar; ++l) {
        Dense<Scalar> from_mm = mm.bDiagBlock(l);
        // Ū_l of DBT(B_0ᵀ) is U_{0,l}; its transpose is the L⁺
        // block of B̄ at row l.
        Dense<Scalar> blk(3, 3);
        for (Index i = 0; i < 3; ++i)
            for (Index j = i; j < 3; ++j)
                blk(i, j) = mv.abar().at(l * 3 + i, l * 3 + j);
        EXPECT_TRUE(from_mm == blk.transposed()) << "l=" << l;
    }
}

TEST(Identities, MatMulLinearInE)
{
    Dense<Scalar> a = randomIntDense(6, 6, 9100);
    Dense<Scalar> b = randomIntDense(6, 6, 9200);
    Dense<Scalar> e1 = randomIntDense(6, 6, 9300);
    Dense<Scalar> e2 = randomIntDense(6, 6, 9400);
    MatMulPlan plan(a, b, 3);
    Dense<Scalar> sum = add(plan.run(e1).c, plan.run(e2).c);
    Dense<Scalar> joint = plan.run(add(e1, e2)).c;
    Dense<Scalar> base = plan.run(Dense<Scalar>(6, 6)).c;
    EXPECT_EQ(maxAbsDiff(joint, add(sum, Dense<Scalar>(6, 6))),
              maxAbsDiff(joint, sum)); // same shape sanity
    // joint + base == sum + 2*base  <=>  joint == sum - base.
    Dense<Scalar> expect(6, 6);
    for (Index i = 0; i < 6; ++i)
        for (Index j = 0; j < 6; ++j)
            expect(i, j) = sum(i, j) - base(i, j);
    EXPECT_EQ(maxAbsDiff(joint, expect), 0.0);
}

TEST(Identities, MatVecIsColumnOfMatMul)
{
    // A·x as A·X with X a single padded column, both on the arrays.
    Dense<Scalar> a = randomIntDense(6, 6, 9500);
    Vec<Scalar> x = randomIntVec(6, 9600);
    Dense<Scalar> xmat(6, 1);
    for (Index i = 0; i < 6; ++i)
        xmat(i, 0) = x[i];
    MatVecPlan mv(a, 3);
    MatMulPlan mm(a, xmat, 3);
    Vec<Scalar> y = mv.run(x, Vec<Scalar>(6)).y;
    Dense<Scalar> c = mm.run(Dense<Scalar>(6, 1)).c;
    for (Index i = 0; i < 6; ++i)
        EXPECT_EQ(y[i], c(i, 0));
}

TEST(Identities, RealValuedWorkloadsWithinTolerance)
{
    // Real-valued (non-integer) data: systolic evaluation reorders
    // additions, so allow a tiny tolerance.
    Dense<Scalar> a = randomRealDense(8, 8, 9700);
    Vec<Scalar> x(8), b(8);
    Rng rng(9800);
    for (Index i = 0; i < 8; ++i) {
        x[i] = rng.uniformReal(-1, 1);
        b[i] = rng.uniformReal(-1, 1);
    }
    MatVecPlan plan(a, 3);
    EXPECT_LT(maxAbsDiff(plan.run(x, b).y, matVec(a, x, b)), 1e-12);

    Dense<Scalar> bm = randomRealDense(8, 8, 9900);
    MatMulPlan mm(a, bm, 3);
    EXPECT_LT(maxAbsDiff(mm.run(Dense<Scalar>(8, 8)).c,
                         matMul(a, bm)), 1e-12);
}

TEST(Identities, PlanIsDeterministic)
{
    Dense<Scalar> a = randomIntDense(7, 5, 9950);
    Vec<Scalar> x = randomIntVec(5, 9960);
    Vec<Scalar> b = randomIntVec(7, 9970);
    MatVecPlan plan(a, 3);
    MatVecPlanResult r1 = plan.run(x, b);
    MatVecPlanResult r2 = plan.run(x, b);
    EXPECT_TRUE(r1.y == r2.y);
    EXPECT_EQ(r1.stats.cycles, r2.stats.cycles);
    EXPECT_EQ(r1.stats.usefulMacs, r2.stats.usefulMacs);
}

TEST(Identities, BandPositionCountEqualsMatrixElements)
{
    // The filled band has exactly n̄m̄w² in-matrix positions — the
    // padded element count, i.e. no position is wasted.
    for (Index w : {2, 3, 4}) {
        Dense<Scalar> a = randomIntDense(2 * w, 3 * w, 9990 + w);
        MatVecTransform t(a, w);
        EXPECT_EQ(t.abar().bandPositionCount(), 2 * 3 * w * w);
    }
}

} // namespace
} // namespace sap
