/**
 * @file
 * Tests of the unified engine layer: registry behavior, the shared
 * harness that drives every topology through one code path, and the
 * property-style cross-check of the simulators against the naive
 * golden models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "base/random.hh"
#include "baseline/naive_band.hh"
#include "dbt/matmul_plan.hh"
#include "engine/engine.hh"
#include "engine/registry.hh"
#include "hex_feedback_oracle.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"

namespace sap {
namespace {

TEST(EngineRegistry, BuiltinsRegistered)
{
    std::vector<std::string> names = engineNames();
    for (const char *expected :
         {"linear", "grouped", "overlapped", "no-feedback", "hex",
          "spiral", "mesh", "tri"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << "missing builtin engine " << expected;
    }
}

TEST(EngineRegistry, UnknownNameReturnsNull)
{
    EXPECT_EQ(makeEngine("no-such-topology"), nullptr);
}

TEST(EngineRegistry, EnginesReportTheirRegisteredName)
{
    for (const std::string &name : engineNames()) {
        auto engine = makeEngine(name);
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->name(), name);
        EXPECT_FALSE(engine->description().empty());
    }
}

TEST(EngineRegistry, KindFilterPartitionsTheNames)
{
    std::vector<std::string> mv = engineNames(ProblemKind::MatVec);
    std::vector<std::string> mm = engineNames(ProblemKind::MatMul);
    std::vector<std::string> ts = engineNames(ProblemKind::TriSolve);
    EXPECT_EQ(mv.size() + mm.size() + ts.size(),
              engineNames().size());
    for (const std::string &name : mv)
        EXPECT_EQ(makeEngine(name)->kind(), ProblemKind::MatVec);
    for (const std::string &name : mm)
        EXPECT_EQ(makeEngine(name)->kind(), ProblemKind::MatMul);
    for (const std::string &name : ts)
        EXPECT_EQ(makeEngine(name)->kind(), ProblemKind::TriSolve);
}

TEST(EngineRegistry, EveryProblemKindHasAnEngine)
{
    // The acceptance criterion of the multi-problem registry: each
    // kind enumerates at least one engine, and the §4 triangular
    // solver is reachable by name.
    EXPECT_GE(engineNames(ProblemKind::MatVec).size(), 4u);
    EXPECT_GE(engineNames(ProblemKind::MatMul).size(), 3u);
    std::vector<std::string> ts = engineNames(ProblemKind::TriSolve);
    EXPECT_NE(std::find(ts.begin(), ts.end(), "tri"), ts.end());
}

TEST(EngineRegistry, CustomEngineCanBeRegisteredAndReplaced)
{
    // An external engine implements the prepared protocol; this one
    // runs the linear family's plans, and run() comes with the base.
    class Fake : public SystolicEngine
    {
      public:
        std::string name() const override { return "fake"; }
        ProblemKind kind() const override { return ProblemKind::MatVec; }
        std::string description() const override { return "fake"; }
        std::shared_ptr<const PreparedPlan>
        prepare(const EnginePlan &plan) const override
        {
            return linear_->prepare(plan);
        }
        EngineRunResult
        runPrepared(const PreparedPlan &prepared,
                    const EngineInputs &in) const override
        {
            return linear_->runPrepared(prepared, in);
        }

      private:
        std::unique_ptr<SystolicEngine> linear_ = makeEngine("linear");
    };
    registerEngine("fake", [] { return std::make_unique<Fake>(); });
    auto engine = makeEngine("fake");
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), "fake");
    const EnginePlan plan = EnginePlan::matVec(
        randomIntDense(5, 4, 1), randomIntVec(4, 2), randomIntVec(5, 3), 2);
    EXPECT_TRUE(plan.matchesOracle(engine->run(plan).y, {}));
}

/**
 * The acceptance-criterion test: every registered topology runs the
 * same problem through the identical SystolicEngine::run() harness
 * and must reproduce the host oracle bit-exactly (integer workloads
 * are exact in double precision).
 */
TEST(EngineHarness, AllTopologiesMatchOracleThroughOneHarness)
{
    const Index n = 9, m = 7, p = 6, w = 3;
    Dense<Scalar> a = randomIntDense(n, m, /*seed=*/101);
    Vec<Scalar> x = randomIntVec(m, 102);
    Vec<Scalar> b = randomIntVec(n, 103);
    Dense<Scalar> bm = randomIntDense(m, p, 104);
    Dense<Scalar> e = randomIntDense(n, p, 105);
    // Unit diagonal keeps the forward substitution exact in double.
    Dense<Scalar> lt = randomUnitLowerTriangular(n, 106);
    Vec<Scalar> rhs = randomIntVec(n, 107);

    Vec<Scalar> y_gold = matVec(a, x, b);
    Dense<Scalar> c_gold = matMulAdd(a, bm, e);
    Vec<Scalar> t_gold = forwardSolve(lt, rhs);

    EnginePlan mv_plan = EnginePlan::matVec(a, x, b, w);
    EnginePlan mm_plan = EnginePlan::matMul(a, bm, e, w);
    EnginePlan ts_plan = EnginePlan::triSolve(lt, rhs, w);

    std::size_t ran = 0;
    for (const std::string &name : engineNames()) {
        if (name == "fake")
            continue; // installed by the registration test
        SCOPED_TRACE("engine " + name);
        auto engine = makeEngine(name);
        ASSERT_NE(engine, nullptr);

        const EnginePlan &plan =
            engine->kind() == ProblemKind::MatVec   ? mv_plan
            : engine->kind() == ProblemKind::MatMul ? mm_plan
                                                    : ts_plan;
        EngineRunResult r = engine->run(plan);
        ++ran;

        if (engine->kind() == ProblemKind::MatMul) {
            ASSERT_EQ(r.c.rows(), c_gold.rows());
            ASSERT_EQ(r.c.cols(), c_gold.cols());
            EXPECT_TRUE(r.c == c_gold);
        } else {
            const Vec<Scalar> &gold =
                engine->kind() == ProblemKind::MatVec ? y_gold
                                                      : t_gold;
            ASSERT_EQ(r.y.size(), gold.size());
            EXPECT_EQ(maxAbsDiff(r.y, gold), 0.0);
        }

        // Uniform audit contract: vacuously true where not
        // applicable, measured where it is.
        EXPECT_TRUE(r.conflictFree);
        EXPECT_TRUE(r.topologyRespected);
        EXPECT_GT(r.stats.usefulMacs, 0);
        EXPECT_GT(r.stats.peCount, 0);
        EXPECT_GT(r.stats.utilization(), 0.0);
    }
    EXPECT_GE(ran, 8u);
}

TEST(EngineHarness, LinearFamilyReportsPaperFeedbackDepth)
{
    const Index n = 8, m = 8, w = 4;
    Dense<Scalar> a = randomIntDense(n, m, 7);
    EnginePlan plan = EnginePlan::matVec(a, randomIntVec(m, 8),
                                         randomIntVec(n, 9), w);
    for (const char *name : {"linear", "grouped", "overlapped"}) {
        SCOPED_TRACE(name);
        EngineRunResult r = makeEngine(name)->run(plan);
        EXPECT_EQ(r.feedbackRegisters, w);
        EXPECT_EQ(r.feedbackDelay, w);
    }
}

TEST(EngineHarness, TraceIsRecordedOnRequest)
{
    const Index n = 6, m = 6, w = 3;
    Dense<Scalar> a = randomIntDense(n, m, 21);
    EnginePlan plan = EnginePlan::matVec(a, randomIntVec(m, 22),
                                         randomIntVec(n, 23), w);
    plan.recordTrace = true;
    EngineRunResult r = makeEngine("linear")->run(plan);
    EXPECT_FALSE(r.trace.empty());
    EXPECT_FALSE(r.trace.onPort(Port::XIn).empty());

    plan.recordTrace = false;
    EngineRunResult quiet = makeEngine("linear")->run(plan);
    EXPECT_TRUE(quiet.trace.empty());

    // The mesh and tri engines record traces too; the hex family is
    // the documented remaining gap (empty trace even when asked).
    EnginePlan mm = EnginePlan::matMul(randomIntDense(4, 4, 24),
                                       randomIntDense(4, 4, 25), 2);
    mm.recordTrace = true;
    EXPECT_TRUE(makeEngine("hex")->run(mm).trace.empty());
    EngineRunResult mesh = makeEngine("mesh")->run(mm);
    EXPECT_FALSE(mesh.trace.empty());
    EXPECT_FALSE(mesh.trace.onPort(Port::COut).empty());

    EnginePlan ts = EnginePlan::triSolve(
        randomUnitLowerTriangular(5, 26), randomIntVec(5, 27), 2);
    ts.recordTrace = true;
    EngineRunResult tri = makeEngine("tri")->run(ts);
    EXPECT_FALSE(tri.trace.empty());
    EXPECT_EQ(tri.trace.onPort(Port::YOut).size(), 6u); // padded n̄·w
}

/** Dense matrix that is banded: zero outside [−sub, +super]. */
Dense<Scalar>
randomBandedDense(Index n, Index m, Index sub, Index super, Rng &rng)
{
    Dense<Scalar> a(n, m);
    for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j < m; ++j) {
            Index off = j - i;
            if (off >= -sub && off <= super)
                a(i, j) = static_cast<Scalar>(rng.uniformInt(1, 9));
        }
    }
    return a;
}

/**
 * Property-style cross-check (satellite): for random band matrices
 * the engine-driven linear array must bit-match both the host
 * oracle and the naive dense-as-band golden model from
 * src/baseline/, and the hex array must bit-match the mat-mul
 * oracle. Seeded via base/random.hh for reproducibility.
 */
TEST(EngineCrossCheck, RandomBandMatricesMatchNaiveGoldenModel)
{
    Rng rng(0xC0FFEE);
    for (int trial = 0; trial < 12; ++trial) {
        const Index n = rng.uniformInt(3, 12);
        const Index m = rng.uniformInt(3, 12);
        const Index sub = rng.uniformInt(0, n - 1);
        const Index super = rng.uniformInt(0, m - 1);
        const Index w = rng.uniformInt(2, 5);
        SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                     std::to_string(n) + "x" + std::to_string(m) +
                     " band(-" + std::to_string(sub) + ",+" +
                     std::to_string(super) + ") w=" +
                     std::to_string(w));

        Dense<Scalar> a = randomBandedDense(n, m, sub, super, rng);
        Vec<Scalar> x = randomIntVec(m, 1000 + trial);
        Vec<Scalar> b = randomIntVec(n, 2000 + trial);
        Vec<Scalar> y_gold = matVec(a, x, b);

        // Golden model: the size-dependent naive band embedding.
        Vec<Scalar> y_naive;
        runNaiveBand(a, x, b, w, &y_naive);
        ASSERT_EQ(y_naive.size(), y_gold.size());
        EXPECT_EQ(maxAbsDiff(y_naive, y_gold), 0.0);

        // Linear engine on the fixed-w array: must bit-match.
        EngineRunResult lin =
            makeEngine("linear")->run(EnginePlan::matVec(a, x, b, w));
        EXPECT_EQ(maxAbsDiff(lin.y, y_gold), 0.0);

        // Hex engine squaring the band against a random band B.
        Dense<Scalar> bmat =
            randomBandedDense(m, n, super, sub, rng);
        Dense<Scalar> c_gold = matMul(a, bmat);
        EngineRunResult hex =
            makeEngine("hex")->run(EnginePlan::matMul(a, bmat, w));
        EXPECT_TRUE(hex.c == c_gold);
    }
}

/**
 * Hex prepares racing on one new shape: each of 8 threads builds
 * plans for its own matrices, so the first builds contend for the
 * shape's skeleton and the later ones find it live. Every result must
 * still equal the host oracle, and every result shares the shape's
 * one feedback record object, read from all threads at once.
 */
TEST(EngineSkeleton, ConcurrentHexPreparesOfANewShapeMatchTheOracle)
{
    // A shape no other test here uses.
    const Index n = 9, p = 6, m = 7, w = 3;
    const int threads = 8, plans_per_thread = 4;
    auto engine = makeEngine("hex");
    ASSERT_NE(engine, nullptr);

    std::atomic<bool> go{false};
    std::vector<int> wrong(threads, 0), reused(threads, 0);
    // Held to the end of the test, so the shape stays live from the
    // first plan on and every plan shares one skeleton.
    std::vector<std::vector<std::shared_ptr<const PreparedPlan>>> plans(
        threads);
    std::vector<std::vector<const SpiralFeedback *>> feedback(threads);
    std::vector<std::vector<Index>> transfers(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            std::vector<std::shared_ptr<const PreparedPlan>> &held =
                plans[t];
            for (int i = 0; i < plans_per_thread; ++i) {
                const std::uint64_t seed = 3000 + 16 * t + 3 * i;
                EnginePlan plan = EnginePlan::matMul(
                    randomIntDense(n, p, seed),
                    randomIntDense(p, m, seed + 1),
                    randomIntDense(n, m, seed + 2), w);
                held.push_back(engine->prepare(plan));
                reused[t] += held.back()->reusedSkeleton() ? 1 : 0;
                EngineRunResult r = engine->runPrepared(
                    *held.back(), EngineInputs::of(plan));
                if (!(r.c == matMulAdd(plan.a, plan.bmat, plan.e)))
                    ++wrong[t];
                feedback[t].push_back(r.feedback.get());
                transfers[t].push_back(r.feedback ? r.feedback->transferCount()
                                                  : -1);
            }
        });
    }
    go = true;
    for (std::thread &th : pool)
        th.join();

    int total_reused = 0;
    for (int t = 0; t < threads; ++t) {
        EXPECT_EQ(wrong[t], 0) << "thread " << t;
        total_reused += reused[t];
    }
    // A thread's own first plan keeps the shape live for the rest.
    EXPECT_GE(total_reused, threads * (plans_per_thread - 1));

    // One record object for the shape, holding what a run records.
    MatMulPlan probe(randomIntDense(n, p, 1), randomIntDense(p, m, 2), w);
    const Index expected =
        oracle::recordFeedback(probe, Dense<Scalar>(n, m)).transferCount();
    ASSERT_NE(feedback[0].front(), nullptr);
    EXPECT_EQ(feedback[0].front(), probe.skeleton()->feedback().get());
    for (int t = 0; t < threads; ++t) {
        for (int i = 0; i < plans_per_thread; ++i) {
            EXPECT_EQ(feedback[t][i], feedback[0].front())
                << "thread " << t << " plan " << i;
            EXPECT_EQ(transfers[t][i], expected)
                << "thread " << t << " plan " << i;
        }
    }
}

} // namespace
} // namespace sap
