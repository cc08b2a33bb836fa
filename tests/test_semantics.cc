/**
 * @file
 * Semantics execution-path tests: the fast path (src/semantics/)
 * must be BIT-identical to the cycle simulators for every registered
 * engine across the standard sweep grids, validate mode must accept
 * every such pair, and the recoverable-error seams (Fast +
 * recordTrace, malformed plans, singular triangular systems) must
 * throw EngineError / report instead of aborting.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "analysis/sweep.hh"
#include "band_kernel_oracle.hh"
#include "base/error.hh"
#include "base/math_util.hh"
#include "dbt/matvec_plan.hh"
#include "engine/registry.hh"
#include "mat/generate.hh"
#include "semantics/band_kernel.hh"
#include "serve/shard.hh"
#include "solve/trisolve_plan.hh"

namespace sap {
namespace {

/** One sweep point's sim-vs-fast comparison, field by field. */
struct DiffRow
{
    std::string label;
    bool yEqual = true;
    bool cEqual = true;
    bool statsEqual = true;
};

/** Exact comparison of everything both paths are required to agree
 *  on (the trace and the feedback audit pointer are exempt: Fast
 *  never produces them). */
DiffRow
diff(const std::string &label, const EngineRunResult &sim,
     const EngineRunResult &fast)
{
    DiffRow row;
    row.label = label;
    row.yEqual = sim.y.size() == fast.y.size() && sim.y == fast.y;
    row.cEqual = sim.c.rows() == fast.c.rows() &&
                 sim.c.cols() == fast.c.cols() && sim.c == fast.c;
    row.statsEqual =
        sim.stats.cycles == fast.stats.cycles &&
        sim.stats.peCount == fast.stats.peCount &&
        sim.stats.usefulMacs == fast.stats.usefulMacs &&
        sim.totalCycles == fast.totalCycles &&
        sim.feedbackDelay == fast.feedbackDelay &&
        sim.feedbackRegisters == fast.feedbackRegisters &&
        sim.conflictFree == fast.conflictFree &&
        sim.topologyRespected == fast.topologyRespected;
    return row;
}

void
expectAllEqual(const std::vector<DiffRow> &rows)
{
    for (const DiffRow &row : rows) {
        EXPECT_TRUE(row.yEqual) << row.label << ": y diverged";
        EXPECT_TRUE(row.cEqual) << row.label << ": C diverged";
        EXPECT_TRUE(row.statsEqual) << row.label
                                    << ": stats diverged";
    }
}

/** Run @p plan in both modes on @p engine and compare. */
DiffRow
comparePoint(const SystolicEngine &engine, EnginePlan plan,
             const std::string &label)
{
    plan.mode = ExecMode::Simulate;
    EngineRunResult sim = engine.run(plan);
    plan.mode = ExecMode::Fast;
    EngineRunResult fast = engine.run(plan);
    return diff(label, sim, fast);
}

//---------------------------------------------------------------------
// The row-pointer band kernel against its oracles
//---------------------------------------------------------------------

/** Same length and the same bits in every element (NaN payloads and
 *  the sign of zero included). */
bool
sameBitsVec(const Vec<Scalar> &a, const Vec<Scalar> &b)
{
    return a.size() == b.size() && sameBits(a.elems(), b.elems(), a.size());
}

/**
 * sameBitsVec, except that any NaN matches any NaN. C++ leaves NaN
 * payloads to the compiler, which may put either operand of an
 * addition first: where two NaNs of different payloads meet, which
 * one survives depends on how the expression was compiled, in the
 * simulator's PE as in the kernel. Zeros and infinities still
 * compare by their bits.
 */
bool
sameBitsUpToNaNPayload(const Vec<Scalar> &a, const Vec<Scalar> &b)
{
    if (a.size() != b.size())
        return false;
    for (Index i = 0; i < a.size(); ++i)
        if (!(std::isnan(a[i]) && std::isnan(b[i])) &&
            !sameBits(&a[i], &b[i], 1))
            return false;
    return true;
}

TEST(SemanticsBandKernel, RowPointerKernelMatchesAtOracleAndSimulator)
{
    // Edge shapes: n not a multiple of w (w > 1), m̄ >= 2 so feedback
    // rows run, and NaN (with a payload), ±inf and −0 in A, x and b.
    // On the whole of ȳ, the kernel must agree with the at()-based
    // kernel it replaced, which evaluates the same expressions in the
    // same order, and with the cycle simulator, both up to NaN
    // payloads: each is compiled apart from the kernel (see
    // sameBitsUpToNaNPayload). Runs of the kernel itself agree bit
    // for bit.
    const Scalar inf = std::numeric_limits<Scalar>::infinity();
    Scalar nan;
    const std::uint64_t nan_bits = 0x7ff800000000beefULL;
    std::memcpy(&nan, &nan_bits, sizeof(nan));
    for (Index w : {1, 2, 3, 8, 32}) {
        for (Index n : {w + 1, 3 * w - 1}) {
            for (Index m : {w + 1, 2 * w + 3}) {
                SCOPED_TRACE("n=" + std::to_string(n) + " m=" +
                             std::to_string(m) + " w=" +
                             std::to_string(w));
                const std::uint64_t seed =
                    static_cast<std::uint64_t>(n * 131 + m * 7 + w);
                Dense<Scalar> a = randomIntDense(n, m, seed);
                Vec<Scalar> x = randomIntVec(m, seed + 1);
                Vec<Scalar> b = randomIntVec(n, seed + 2);
                a(n - 1, 0) = nan;
                a(0, m - 1) = -0.0;
                a(n / 2, m / 2) = -inf;
                x[0] = inf;
                x[m - 1] = -0.0;
                b[0] = -0.0;
                b[n - 1] = nan;

                const MatVecPlan plan(a, w);
                const BandMatVecSpec spec = plan.makeSpec(x, b);
                const BandMatVecSemantics fast =
                    runBandMatVecSemantics(spec);
                const BandMatVecSemantics at = oracle::bandMatVecAt(spec);
                const LinearRunResult sim = runBandMatVec(spec);
                EXPECT_TRUE(sameBitsUpToNaNPayload(fast.ybar, at.ybar));
                EXPECT_TRUE(sameBitsUpToNaNPayload(fast.ybar, sim.ybar));
                EXPECT_EQ(fast.usedFeedback, at.usedFeedback);
                EXPECT_TRUE(fast.usedFeedback);
                EXPECT_TRUE(sameBitsVec(plan.runSemantics(x, b).y,
                                        plan.transform().extractY(
                                            fast.ybar)));

                // An overlapped run's halves are row ranges of the
                // plan's own band (n̄ = 3 cuts unevenly): each agrees
                // with both oracles, and together they are the whole
                // band's ȳ, since no feedback chain crosses the cut.
                Vec<Scalar> joined;
                for (const BandMatVecSpec &half : plan.makeSplitSpecs(x, b)) {
                    EXPECT_EQ(half.abar, spec.abar);
                    const BandMatVecSemantics h = runBandMatVecSemantics(half);
                    EXPECT_TRUE(sameBitsUpToNaNPayload(
                        h.ybar, oracle::bandMatVecAt(half).ybar));
                    EXPECT_TRUE(sameBitsUpToNaNPayload(
                        h.ybar, runBandMatVec(half).ybar));
                    joined.append(h.ybar);
                }
                EXPECT_TRUE(sameBitsVec(joined, fast.ybar));

                // Every MAC against a padding zero happens: ȳ's last
                // row is padding when w does not divide n, and its L̄
                // part meets x_0's +inf, so 0·inf makes it NaN.
                if (w > 1) {
                    EXPECT_TRUE(std::isnan(
                        fast.ybar[plan.dims().barRows() - 1]));
                }
            }
        }
    }
}

//---------------------------------------------------------------------
// Bit-identity property sweep (the tentpole's acceptance criterion)
//---------------------------------------------------------------------

TEST(SemanticsBitIdentity, MatVecEnginesMatchSimulatorOnStandardSweep)
{
    for (const std::string &name : engineNames(ProblemKind::MatVec)) {
        std::unique_ptr<SystolicEngine> engine = makeEngine(name);
        ASSERT_TRUE(engine);
        std::vector<DiffRow> rows = runConfigSweep(
            standardMatVecSweep(), defaultSweepThreads(),
            [&](const MatVecConfig &cfg) {
                if (name == "overlapped" && ceilDiv(cfg.n, cfg.w) < 2)
                    return DiffRow{}; // split needs two block rows
                std::uint64_t seed = 17 + static_cast<std::uint64_t>(
                                              cfg.n + cfg.m + cfg.w);
                EnginePlan plan = EnginePlan::matVec(
                    randomIntDense(cfg.n, cfg.m, seed),
                    randomIntVec(cfg.m, seed + 1),
                    randomIntVec(cfg.n, seed + 2), cfg.w);
                return comparePoint(
                    *engine, std::move(plan),
                    name + " " + std::to_string(cfg.n) + "x" +
                        std::to_string(cfg.m) + " w=" +
                        std::to_string(cfg.w));
            });
        expectAllEqual(rows);
    }
}

TEST(SemanticsBitIdentity, MatMulEnginesMatchSimulatorOnStandardSweep)
{
    for (const std::string &name : engineNames(ProblemKind::MatMul)) {
        std::unique_ptr<SystolicEngine> engine = makeEngine(name);
        ASSERT_TRUE(engine);
        std::vector<DiffRow> rows = runConfigSweep(
            standardMatMulSweep(), defaultSweepThreads(),
            [&](const MatMulConfig &cfg) {
                std::uint64_t seed =
                    29 + static_cast<std::uint64_t>(cfg.n + cfg.p +
                                                    cfg.m + cfg.w);
                EnginePlan plan = EnginePlan::matMul(
                    randomIntDense(cfg.n, cfg.p, seed),
                    randomIntDense(cfg.p, cfg.m, seed + 1),
                    randomIntDense(cfg.n, cfg.m, seed + 2), cfg.w);
                return comparePoint(
                    *engine, std::move(plan),
                    name + " " + std::to_string(cfg.n) + "x" +
                        std::to_string(cfg.p) + "x" +
                        std::to_string(cfg.m) + " w=" +
                        std::to_string(cfg.w));
            });
        expectAllEqual(rows);
    }
}

TEST(SemanticsBitIdentity, TriSolveEngineMatchesSimulatorOnStandardSweep)
{
    for (const std::string &name :
         engineNames(ProblemKind::TriSolve)) {
        std::unique_ptr<SystolicEngine> engine = makeEngine(name);
        ASSERT_TRUE(engine);
        std::vector<DiffRow> rows = runConfigSweep(
            standardTriSolveSweep(), defaultSweepThreads(),
            [&](const TriSolveConfig &cfg) {
                // Real-valued (non-unit) diagonals: the divide in
                // the substitution must itself be bit-identical.
                EnginePlan plan = EnginePlan::triSolve(
                    randomDiagDominant(
                        cfg.n, 43 + static_cast<std::uint64_t>(
                                        cfg.n + cfg.w)),
                    randomIntVec(cfg.n,
                                 44 + static_cast<std::uint64_t>(
                                          cfg.n + cfg.w)),
                    cfg.w);
                return comparePoint(*engine, std::move(plan),
                                    name + " n=" +
                                        std::to_string(cfg.n) +
                                        " w=" +
                                        std::to_string(cfg.w));
            });
        expectAllEqual(rows);
    }
}

//---------------------------------------------------------------------
// Validate mode
//---------------------------------------------------------------------

TEST(SemanticsValidateMode, AcceptsEveryEngineAndReturnsSimResult)
{
    // Validate runs both paths and throws on any field mismatch;
    // a clean pass over every registered engine is the end-to-end
    // proof the diff plumbing agrees with the sweeps above.
    for (const std::string &name : engineNames()) {
        std::unique_ptr<SystolicEngine> engine = makeEngine(name);
        ASSERT_TRUE(engine);
        EnginePlan plan;
        switch (engine->kind()) {
        case ProblemKind::MatVec:
            plan = EnginePlan::matVec(randomIntDense(7, 9, 81),
                                      randomIntVec(9, 82),
                                      randomIntVec(7, 83), 3);
            break;
        case ProblemKind::MatMul:
            plan = EnginePlan::matMul(randomIntDense(7, 5, 84),
                                      randomIntDense(5, 6, 85),
                                      randomIntDense(7, 6, 86), 3);
            break;
        case ProblemKind::TriSolve:
            plan = EnginePlan::triSolve(randomDiagDominant(7, 87),
                                        randomIntVec(7, 88), 3);
            break;
        }
        plan.mode = ExecMode::Validate;
        EngineRunResult validated;
        ASSERT_NO_THROW(validated = engine->run(plan)) << name;

        plan.mode = ExecMode::Simulate;
        expectAllEqual({diff(name, engine->run(plan), validated)});
    }
}

TEST(SemanticsValidateMode, FastModeWithRecordTraceThrows)
{
    std::unique_ptr<SystolicEngine> engine = makeEngine("linear");
    ASSERT_TRUE(engine);
    EnginePlan plan = EnginePlan::matVec(randomIntDense(4, 4, 91),
                                         randomIntVec(4, 92),
                                         randomIntVec(4, 93), 2);
    plan.recordTrace = true;
    plan.mode = ExecMode::Fast;
    EXPECT_THROW(engine->run(plan), EngineError);

    // Prepared path too: the mode rides on the per-request inputs.
    plan.mode = ExecMode::Simulate;
    std::shared_ptr<const PreparedPlan> prepared =
        engine->prepare(plan);
    EngineInputs in = EngineInputs::of(plan);
    in.recordTrace = true;
    in.mode = ExecMode::Fast;
    EXPECT_THROW(engine->runPrepared(*prepared, in), EngineError);

    // Validate mode still supports tracing (the sim half records).
    in.mode = ExecMode::Validate;
    EngineRunResult r;
    ASSERT_NO_THROW(r = engine->runPrepared(*prepared, in));
    EXPECT_FALSE(r.trace.events().empty());
}

/** A NaN with payload @p payload and sign @p negative. */
Scalar
nanWithPayload(std::uint64_t payload, bool negative)
{
    const std::uint64_t bits = (negative ? 0xfff8000000000000ULL
                                         : 0x7ff8000000000000ULL) |
                               payload;
    Scalar v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

TEST(SemanticsValidateMode, NaNResultsValidateAndEveryOtherBitCounts)
{
    // One quiet NaN in A: Simulate and Fast serve it, so Validate
    // must too.
    std::unique_ptr<SystolicEngine> engine = makeEngine("linear");
    ASSERT_TRUE(engine);
    EnginePlan plan = EnginePlan::matVec(randomIntDense(4, 4, 94),
                                         randomIntVec(4, 95),
                                         randomIntVec(4, 96), 2);
    plan.a(1, 2) = std::numeric_limits<Scalar>::quiet_NaN();
    for (ExecMode mode :
         {ExecMode::Simulate, ExecMode::Fast, ExecMode::Validate}) {
        plan.mode = mode;
        EngineRunResult r;
        ASSERT_NO_THROW(r = engine->run(plan)) << execModeName(mode);
        EXPECT_TRUE(std::isnan(r.y[1])) << execModeName(mode);
    }

    // The diff itself: NaN payloads aside, every bit of y and C counts.
    EngineRunResult sim, fast;
    sim.y = Vec<Scalar>{1.0, nanWithPayload(0xbeef, false), 0.0};
    fast.y = Vec<Scalar>{1.0, nanWithPayload(0, true), 0.0};
    sim.c = Dense<Scalar>(1, 2);
    sim.c(0, 0) = nanWithPayload(1, true);
    sim.c(0, 1) = 3.0;
    fast.c = sim.c;
    fast.c(0, 0) = nanWithPayload(2, false);
    EXPECT_NO_THROW(diffOrThrow("linear", sim, fast));

    EngineRunResult one_bit = fast;
    one_bit.y[0] = std::nextafter(1.0, 2.0);
    EXPECT_THROW(diffOrThrow("linear", sim, one_bit), EngineError);
    one_bit = fast;
    one_bit.c(0, 1) = std::nextafter(3.0, 0.0);
    EXPECT_THROW(diffOrThrow("linear", sim, one_bit), EngineError);

    EngineRunResult signed_zero = fast;
    signed_zero.y[2] = -0.0;
    EXPECT_THROW(diffOrThrow("linear", sim, signed_zero), EngineError);
}

TEST(SemanticsValidateMode, HexPaddingMacsKeepEveryBitInBothModes)
{
    // Edge shapes pad A and B with zeros, and the array multiplies the
    // padding too: acc + 0·x is not acc when acc is −0 or x is ±inf.
    // With −0 in E and in A's first row and ±inf in B, Fast must keep
    // every bit Simulate does; Validate throws on any difference but a
    // NaN payload.
    const Scalar inf = std::numeric_limits<Scalar>::infinity();
    for (const char *name : {"hex", "spiral"}) {
        std::unique_ptr<SystolicEngine> engine = makeEngine(name);
        ASSERT_TRUE(engine);
        for (const std::array<Index, 4> &s :
             {std::array<Index, 4>{5, 5, 5, 2}, {7, 5, 6, 3}, {4, 4, 4, 2}}) {
            const Index n = s[0], p = s[1], m = s[2], w = s[3];
            EnginePlan plan = EnginePlan::matMul(
                randomIntDense(n, p, 97), randomIntDense(p, m, 98),
                Dense<Scalar>(n, m, std::vector<Scalar>(n * m, -0.0)), w);
            for (Index j = 0; j < p; ++j)
                plan.a(0, j) = -0.0;
            plan.bmat(p - 1, m - 1) = inf;
            plan.bmat(0, m - 1) = -inf;
            plan.mode = ExecMode::Validate;
            EXPECT_NO_THROW(engine->run(plan))
                << name << " " << n << "x" << p << "x" << m << " w=" << w;
        }
    }
}

//---------------------------------------------------------------------
// Recoverable validation (satellites 1 and 2)
//---------------------------------------------------------------------

TEST(PlanValidation, MalformedShapesThrowInsteadOfAborting)
{
    // check() reports, validate() throws: no SAP_ASSERT abort for
    // caller-input problems.
    EnginePlan plan;
    plan.kind = ProblemKind::MatVec;
    plan.w = 2;
    plan.a = randomIntDense(3, 4, 11);
    plan.x = randomIntVec(5, 12); // wrong length (4 expected)
    plan.b = randomIntVec(3, 13);
    EXPECT_FALSE(plan.check().empty());
    EXPECT_THROW(plan.validate(), EngineError);

    plan.x = randomIntVec(4, 12);
    EXPECT_TRUE(plan.check().empty());
    EXPECT_NO_THROW(plan.validate());

    plan.w = 0;
    EXPECT_FALSE(plan.check().empty());
    EXPECT_THROW(plan.validate(), EngineError);
}

TEST(PlanValidation, ZeroDiagonalTriSolveIsRecoverable)
{
    Dense<Scalar> l = randomUnitLowerTriangular(6, 21);
    l(3, 3) = 0;
    Vec<Scalar> b = randomIntVec(6, 22);

    // The plan factory, the plan's own check, and the direct
    // TriSolvePlan constructor all refuse recoverably.
    EXPECT_THROW(EnginePlan::triSolve(l, b, 2), EngineError);
    EXPECT_THROW(TriSolvePlan(l, 2), EngineError);

    EnginePlan plan;
    plan.kind = ProblemKind::TriSolve;
    plan.a = l;
    plan.b = b;
    plan.w = 2;
    EXPECT_NE(plan.check().find("zero diagonal"), std::string::npos);

    // And the serve path reports it as an error response (the shard
    // must survive, not die on an assert).
    Shard::Options opts;
    opts.threads = 1;
    Shard shard(opts);
    ServeRequest req;
    req.engine = "tri";
    req.plan = plan;
    ServeResponse resp = shard.submit(req).get();
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find("zero diagonal"), std::string::npos);
}

//---------------------------------------------------------------------
// Mode through a prepared plan and the serve layer
//---------------------------------------------------------------------

TEST(SemanticsServe, BatchFastModeMatchesSimulate)
{
    std::unique_ptr<SystolicEngine> engine = makeEngine("linear");
    ASSERT_TRUE(engine);
    Dense<Scalar> a = randomIntDense(8, 6, 31);
    std::shared_ptr<const PreparedPlan> prepared = engine->prepare(
        EnginePlan::matVec(a, Vec<Scalar>(6), Vec<Scalar>(8), 3));

    for (int i = 0; i < 5; ++i) {
        EngineInputs in = EngineInputs::matVec(
            randomIntVec(6, 32 + static_cast<std::uint64_t>(i)),
            randomIntVec(8, 40 + static_cast<std::uint64_t>(i)));
        in.mode = ExecMode::Simulate;
        EngineRunResult sim = engine->runPrepared(*prepared, in);
        in.mode = ExecMode::Fast;
        EngineRunResult fast = engine->runPrepared(*prepared, in);
        EXPECT_TRUE(EnginePlan::matVec(a, in.x, in.b, 3)
                        .matchesOracle(fast.y, fast.c))
            << "input " << i;
        expectAllEqual(
            {diff("input " + std::to_string(i), sim, fast)});

        in.mode = ExecMode::Validate;
        EXPECT_NO_THROW(engine->runPrepared(*prepared, in));
    }
}

TEST(SemanticsServe, ShardKeysStatsPerModeAndRejectsFastTrace)
{
    Shard::Options opts;
    opts.threads = 1;
    Shard shard(opts);

    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(6, 6, 51),
                                  randomIntVec(6, 52),
                                  randomIntVec(6, 53), 2);

    ServeResponse sim = shard.submit(req).get();
    ASSERT_TRUE(sim.ok) << sim.error;

    req.plan.mode = ExecMode::Fast;
    req.trace = std::make_shared<RequestTrace>();
    ServeResponse fast = shard.submit(req).get();
    ASSERT_TRUE(fast.ok) << fast.error;
    // The trace label carries the shape and the mode served.
    EXPECT_EQ(fast.trace->label, "linear 6x6 w=2 fast");
    req.trace = nullptr;
    EXPECT_TRUE(fast.result.y == sim.result.y);
    // Same matrix: the fast request rides the cached plan.
    EXPECT_TRUE(fast.cacheHit);
    // Fast cycles come from the formulas and must equal measurement.
    EXPECT_EQ(fast.result.stats.cycles, sim.result.stats.cycles);

    req.plan.mode = ExecMode::Validate;
    ServeResponse val = shard.submit(req).get();
    ASSERT_TRUE(val.ok) << val.error;
    EXPECT_TRUE(val.result.y == sim.result.y);

    // Three series: same engine, one per execution mode.
    MetricsSnapshot snap = shard.metricsSnapshot();
    std::size_t series = 0;
    for (const auto &entry : snap.counters)
        if (splitSeriesKey(entry.first).first ==
            "serve_engine_requests_total")
            ++series;
    EXPECT_EQ(series, 3u);
    for (ExecMode mode :
         {ExecMode::Simulate, ExecMode::Fast, ExecMode::Validate})
        EXPECT_EQ(snap.counters[seriesKey(
                      "serve_engine_requests_total",
                      engineLabels("linear", ProblemKind::MatVec, mode))],
                  1u)
            << execModeName(mode);

    // Fast + recordTrace is a recoverable request error.
    req.plan.mode = ExecMode::Fast;
    req.plan.recordTrace = true;
    ServeResponse bad = shard.submit(req).get();
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("recordTrace"), std::string::npos);
}

} // namespace
} // namespace sap
