/**
 * @file
 * Tests of the serving layer: matrix fingerprints, the
 * content-addressed plan cache (hit/miss/eviction/collision), many
 * operand sets streamed through one prepared plan, and the Shard
 * front end's request/response and metrics contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <set>

#include "engine/registry.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"
#include "serve/fingerprint.hh"
#include "serve/plan_cache.hh"
#include "serve/shard.hh"

namespace sap {
namespace {

//---------------------------------------------------------------------
// Fingerprints.
//---------------------------------------------------------------------

TEST(Fingerprint, DeterministicAndContentSensitive)
{
    Dense<Scalar> a = randomIntDense(6, 5, 1);
    Dense<Scalar> same = a;
    EXPECT_EQ(fingerprintDense(a), fingerprintDense(same));

    Dense<Scalar> flipped = a;
    flipped(2, 3) += 1;
    EXPECT_NE(fingerprintDense(a), fingerprintDense(flipped));
}

TEST(Fingerprint, ShapeIsPartOfTheIdentity)
{
    // Same bytes, different shape: a 2x3 and a 3x2 of equal data.
    Dense<Scalar> wide(2, 3), tall(3, 2);
    for (Index i = 0; i < 6; ++i) {
        wide(i / 3, i % 3) = static_cast<Scalar>(i + 1);
        tall(i / 2, i % 2) = static_cast<Scalar>(i + 1);
    }
    EXPECT_NE(fingerprintDense(wide), fingerprintDense(tall));
}

TEST(Fingerprint, VectorAndStringDigests)
{
    Vec<Scalar> v{1, 2, 3};
    Vec<Scalar> w{1, 2, 4};
    EXPECT_NE(fingerprintVec(v), fingerprintVec(w));
    EXPECT_NE(fingerprintString("linear"), fingerprintString("hex"));
    EXPECT_NE(combineDigests(1, 2), combineDigests(2, 1));
}

TEST(Fingerprint, NearMissesOfOneMatrixDigestPairwiseDistinct)
{
    // Distinct, non-integral elements, so every variant below is a
    // different matrix: no ±1 on an element equals one of its bit
    // flips, and every swap moves two unequal values.
    const Index n = 64;
    Dense<Scalar> base(n, n);
    for (Index i = 0; i < n * n; ++i)
        base(i / n, i % n) = 0.1 + static_cast<Scalar>(i);

    std::vector<Digest> digests = {fingerprintDense(base)};
    // Every single-bit flip of one element.
    for (unsigned bit = 0; bit < 64; ++bit) {
        Dense<Scalar> v = base;
        std::uint64_t bits;
        std::memcpy(&bits, &v(0, 0), sizeof(bits));
        bits ^= std::uint64_t(1) << bit;
        std::memcpy(&v(0, 0), &bits, sizeof(bits));
        digests.push_back(fingerprintDense(v));
    }
    // ±1 on each element.
    for (Index i = 0; i < n * n; ++i)
        for (Scalar delta : {1.0, -1.0}) {
            Dense<Scalar> v = base;
            v(i / n, i % n) += delta;
            digests.push_back(fingerprintDense(v));
        }
    // Two swapped elements: every adjacent pair in row-major order.
    for (Index i = 0; i + 1 < n * n; ++i) {
        Dense<Scalar> v = base;
        std::swap(v(i / n, i % n), v((i + 1) / n, (i + 1) % n));
        digests.push_back(fingerprintDense(v));
    }
    // The same data reshaped.
    for (Index rows : {n / 2, n * 2}) {
        const Index cols = n * n / rows;
        Dense<Scalar> v(rows, cols);
        for (Index i = 0; i < n * n; ++i)
            v(i / cols, i % cols) = base(i / n, i % n);
        digests.push_back(fingerprintDense(v));
    }

    std::sort(digests.begin(), digests.end());
    EXPECT_EQ(std::adjacent_find(digests.begin(), digests.end()),
              digests.end())
        << "two near-miss variants share a digest";
    const std::size_t cells = static_cast<std::size_t>(n * n);
    EXPECT_EQ(digests.size(), 1 + 64 + 2 * cells + (cells - 1) + 2);
}

TEST(Fingerprint, EveryStringTailLengthDigestsDistinctly)
{
    // Lengths 0-17 cover every tail length (0-7 bytes past the last
    // whole word) over zero, one and two whole words. All-zero
    // strings differ only in length, so the length must be hashed.
    const std::string text = "abcdefghijklmnopq";
    std::set<Digest> digests;
    for (std::size_t len = 0; len <= 17; ++len) {
        digests.insert(fingerprintString(text.substr(0, len)));
        digests.insert(fingerprintString(std::string(len, '\0')));
    }
    // The empty string appears in both families.
    EXPECT_EQ(digests.size(), 2u * 18u - 1u);
}

TEST(Fingerprint, GoldenPlanDigestIsPinned)
{
    // A change of digest algorithm must be a visible edit here. It is
    // safe, but a gateway and backends built on different sides of it
    // key the plan cache differently: that costs locality, never
    // correctness (net/protocol.hh).
    Dense<Scalar> a(4, 4);
    Vec<Scalar> x(4), b(4);
    for (Index i = 0; i < 16; ++i)
        a(i / 4, i % 4) = static_cast<Scalar>(i + 1);
    EXPECT_EQ(planDigest("linear", EnginePlan::matVec(a, x, b, 2)),
              Digest{0x469a057838f7864cULL});
}

//---------------------------------------------------------------------
// PlanCache.
//---------------------------------------------------------------------

TEST(PlanCache, HitOnRepeatedMatrixMissOnNewOne)
{
    auto engine = makeEngine("linear");
    ASSERT_NE(engine, nullptr);
    PlanCache cache(8);

    Dense<Scalar> a = randomIntDense(8, 8, 11);
    EnginePlan plan = EnginePlan::matVec(a, randomIntVec(8, 12),
                                         randomIntVec(8, 13), 4);

    PlanCache::Prepared first = cache.prepare(*engine, plan);
    EXPECT_FALSE(first.hit);
    PlanCache::Prepared second = cache.prepare(*engine, plan);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(first.plan.get(), second.plan.get());

    // A different matrix must miss even with identical shape/w.
    EnginePlan other = EnginePlan::matVec(randomIntDense(8, 8, 99),
                                          plan.x, plan.b, 4);
    EXPECT_FALSE(cache.prepare(*engine, other).hit);

    PlanCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, DifferentEnginesAndWidthsDoNotShare)
{
    PlanCache cache(8);
    Dense<Scalar> a = randomIntDense(6, 6, 21);
    EnginePlan w2 = EnginePlan::matVec(a, randomIntVec(6, 22),
                                       randomIntVec(6, 23), 2);
    EnginePlan w3 = EnginePlan::matVec(a, w2.x, w2.b, 3);

    auto linear = makeEngine("linear");
    auto grouped = makeEngine("grouped");
    EXPECT_FALSE(cache.prepare(*linear, w2).hit);
    EXPECT_FALSE(cache.prepare(*linear, w3).hit);
    EXPECT_FALSE(cache.prepare(*grouped, w2).hit);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_TRUE(cache.prepare(*grouped, w2).hit);
}

TEST(PlanCache, LruEviction)
{
    auto engine = makeEngine("linear");
    PlanCache cache(2);
    auto planFor = [](std::uint64_t seed) {
        Dense<Scalar> a = randomIntDense(6, 6, seed);
        return EnginePlan::matVec(a, randomIntVec(6, 1),
                                  randomIntVec(6, 2), 3);
    };

    EnginePlan p1 = planFor(1), p2 = planFor(2), p3 = planFor(3);
    cache.prepare(*engine, p1);
    cache.prepare(*engine, p2);
    cache.prepare(*engine, p1); // p1 now most recent
    cache.prepare(*engine, p3); // evicts p2 (least recent)
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    EXPECT_TRUE(cache.prepare(*engine, p1).hit);
    EXPECT_FALSE(cache.prepare(*engine, p2).hit); // was evicted
}

TEST(PlanCache, FingerprintCollisionsResolveToDistinctPlans)
{
    // Degenerate hash: every matrix collides. The cache must still
    // serve each distinct matrix its own plan via exact comparison.
    auto engine = makeEngine("linear");
    PlanCache cache(8, [](const Dense<Scalar> &) { return Digest{7}; });

    Dense<Scalar> a1 = randomIntDense(6, 6, 31);
    Dense<Scalar> a2 = randomIntDense(6, 6, 32);
    Vec<Scalar> x = randomIntVec(6, 33), b = randomIntVec(6, 34);
    EnginePlan p1 = EnginePlan::matVec(a1, x, b, 3);
    EnginePlan p2 = EnginePlan::matVec(a2, x, b, 3);

    PlanCache::Prepared c1 = cache.prepare(*engine, p1);
    PlanCache::Prepared c2 = cache.prepare(*engine, p2);
    EXPECT_FALSE(c2.hit);
    EXPECT_NE(c1.plan.get(), c2.plan.get());
    // p2's miss met p1's plan before and after its build: one
    // colliding request, one collision.
    EXPECT_EQ(cache.stats().collisions, 1u);

    // And the colliding entries still hit individually — with
    // correct results through the engine.
    EXPECT_TRUE(cache.prepare(*engine, p1).hit);
    EXPECT_TRUE(cache.prepare(*engine, p2).hit);
    EngineRunResult r1 = engine->runPrepared(
        *cache.prepare(*engine, p1).plan, EngineInputs::matVec(x, b));
    EngineRunResult r2 = engine->runPrepared(
        *cache.prepare(*engine, p2).plan, EngineInputs::matVec(x, b));
    EXPECT_EQ(maxAbsDiff(r1.y, matVec(a1, x, b)), 0.0);
    EXPECT_EQ(maxAbsDiff(r2.y, matVec(a2, x, b)), 0.0);
}

TEST(PlanCache, ZeroCapacityDisablesCachingButStillServes)
{
    auto engine = makeEngine("linear");
    PlanCache cache(0);

    Dense<Scalar> a = randomIntDense(6, 6, 151);
    Vec<Scalar> x = randomIntVec(6, 152), b = randomIntVec(6, 153);
    EnginePlan plan = EnginePlan::matVec(a, x, b, 3);

    PlanCache::Prepared first = cache.prepare(*engine, plan);
    PlanCache::Prepared second = cache.prepare(*engine, plan);
    EXPECT_FALSE(first.hit);
    EXPECT_FALSE(second.hit);
    EXPECT_NE(first.plan.get(), second.plan.get()); // both built
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // The pass-through plans still serve correct results.
    EngineRunResult r = engine->runPrepared(
        *second.plan, EngineInputs::matVec(x, b));
    EXPECT_EQ(maxAbsDiff(r.y, matVec(a, x, b)), 0.0);
}

TEST(PlanCache, SingleEntryEvictionChurn)
{
    auto engine = makeEngine("linear");
    PlanCache cache(1);
    auto planFor = [](std::uint64_t seed) {
        Dense<Scalar> a = randomIntDense(6, 6, seed);
        return EnginePlan::matVec(a, randomIntVec(6, 1),
                                  randomIntVec(6, 2), 3);
    };
    EnginePlan p1 = planFor(161), p2 = planFor(162);

    // Alternating matrices with capacity 1: every access evicts the
    // other entry and misses.
    for (int round = 0; round < 3; ++round) {
        EXPECT_FALSE(cache.prepare(*engine, p1).hit) << round;
        EXPECT_FALSE(cache.prepare(*engine, p2).hit) << round;
        EXPECT_EQ(cache.size(), 1u);
    }
    PlanCacheStats churn = cache.stats();
    EXPECT_EQ(churn.hits, 0u);
    EXPECT_EQ(churn.misses, 6u);
    EXPECT_EQ(churn.evictions, 5u); // every insert after the first

    // Back-to-back repeats of the resident matrix still hit.
    EXPECT_TRUE(cache.prepare(*engine, p2).hit);
    EXPECT_TRUE(cache.prepare(*engine, p2).hit);
}

TEST(PlanCache, MatMulKeysIncludeBothOperands)
{
    auto engine = makeEngine("hex");
    PlanCache cache(8);
    Dense<Scalar> a = randomIntDense(6, 6, 41);
    Dense<Scalar> b1 = randomIntDense(6, 4, 42);
    Dense<Scalar> b2 = randomIntDense(6, 4, 43);
    Dense<Scalar> e(6, 4);

    EXPECT_FALSE(
        cache.prepare(*engine, EnginePlan::matMul(a, b1, e, 2)).hit);
    EXPECT_FALSE(
        cache.prepare(*engine, EnginePlan::matMul(a, b2, e, 2)).hit);
    EXPECT_TRUE(
        cache.prepare(*engine, EnginePlan::matMul(a, b1, e, 2)).hit);
}

TEST(PlanCache, NanBearingMatrixHitsItsOwnPlan)
{
    // Identity is bitwise, as the digest is: a NaN equals itself, so
    // a matrix holding one keeps one plan instead of one per request.
    auto engine = makeEngine("linear");
    PlanCache cache(8);
    Dense<Scalar> a = randomIntDense(8, 8, 171);
    a(3, 5) = std::numeric_limits<Scalar>::quiet_NaN();
    EnginePlan plan = EnginePlan::matVec(a, randomIntVec(8, 172),
                                         randomIntVec(8, 173), 4);

    PlanCache::Prepared first = cache.prepare(*engine, plan);
    EXPECT_FALSE(first.hit);
    for (int i = 0; i < 3; ++i) {
        PlanCache::Prepared again = cache.prepare(*engine, plan);
        EXPECT_TRUE(again.hit) << i;
        EXPECT_EQ(again.plan.get(), first.plan.get()) << i;
    }
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().collisions, 0u);
}

TEST(PlanCache, SignedZerosAreDistinctMatricesUnderCollisions)
{
    // +0 and −0 compare equal as numbers but differ in their bits, so
    // they digest differently; under a forced collision the cache must
    // still keep them apart.
    auto engine = makeEngine("linear");
    PlanCache cache(8, [](const Dense<Scalar> &) { return Digest{7}; });
    Dense<Scalar> pos = randomIntDense(6, 6, 181);
    pos(2, 4) = 0.0;
    Dense<Scalar> neg = pos;
    neg(2, 4) = -0.0;
    ASSERT_TRUE(pos == neg); // numerically equal
    Vec<Scalar> x = randomIntVec(6, 182), b = randomIntVec(6, 183);
    EnginePlan p_pos = EnginePlan::matVec(pos, x, b, 4);
    EnginePlan p_neg = EnginePlan::matVec(neg, x, b, 4);

    PlanCache::Prepared c_pos = cache.prepare(*engine, p_pos);
    PlanCache::Prepared c_neg = cache.prepare(*engine, p_neg);
    EXPECT_FALSE(c_neg.hit);
    EXPECT_NE(c_pos.plan.get(), c_neg.plan.get());
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.prepare(*engine, p_pos).plan.get(), c_pos.plan.get());
    EXPECT_EQ(cache.prepare(*engine, p_neg).plan.get(), c_neg.plan.get());
}

/** @p v with its sign bit flipped: a zero becomes −0 (== 0). */
Scalar
flipSign(Scalar v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= std::uint64_t(1) << 63;
    std::memcpy(&v, &bits, sizeof bits);
    return v;
}

/** @p m with one more zero row (@p row) or zero column. */
Dense<Scalar>
withZeroLine(const Dense<Scalar> &m, bool row)
{
    Dense<Scalar> out(m.rows() + (row ? 1 : 0), m.cols() + (row ? 0 : 1));
    for (Index r = 0; r < m.rows(); ++r)
        for (Index c = 0; c < m.cols(); ++c)
            out(r, c) = m(r, c);
    return out;
}

/** A plan of @p kind binding @p a (and @p bmat for MatMul), with
 *  zero streamed operands. */
EnginePlan
planOf(ProblemKind kind, const Dense<Scalar> &a, const Dense<Scalar> &bmat,
       Index w)
{
    if (kind == ProblemKind::MatMul)
        return EnginePlan::matMul(a, bmat, w);
    if (kind == ProblemKind::TriSolve)
        return EnginePlan::triSolve(a, Vec<Scalar>(a.rows()), w);
    return EnginePlan::matVec(a, Vec<Scalar>(a.cols()),
                              Vec<Scalar>(a.rows()), w);
}

/**
 * Under a hash where every digest collides, the cache may hand out
 * the plan of (@p a, @p bmat) only for those very matrices: the copy
 * hits, and every single-element perturbation of A (and of B) and
 * every zero-line extension gets its own plan. The perturbation is
 * exhaustive, so a compare that skips any stored element fails here.
 */
void
expectOnlyItsOwnMatricesHit(const SystolicEngine &engine,
                            const Dense<Scalar> &a,
                            const Dense<Scalar> &bmat, Index w)
{
    const ProblemKind kind = engine.kind();
    // Capacity 2: the base plan, re-promoted after every variant, and
    // the latest variant; each variant is probed against the base.
    PlanCache cache(2, [](const Dense<Scalar> &) { return Digest{7}; });
    const PlanCache::Prepared base =
        cache.prepare(engine, planOf(kind, a, bmat, w));
    ASSERT_FALSE(base.hit);
    const Dense<Scalar> a_copy = a, b_copy = bmat;
    PlanCache::Prepared copy =
        cache.prepare(engine, planOf(kind, a_copy, b_copy, w));
    EXPECT_TRUE(copy.hit);
    EXPECT_EQ(copy.plan.get(), base.plan.get());

    auto expectOwnPlan = [&](const EnginePlan &variant,
                             const std::string &what) {
        PlanCache::Prepared got = cache.prepare(engine, variant);
        EXPECT_FALSE(got.hit) << what;
        EXPECT_NE(got.plan.get(), base.plan.get()) << what;
        PlanCache::Prepared again =
            cache.prepare(engine, planOf(kind, a, bmat, w));
        EXPECT_TRUE(again.hit) << what;
        EXPECT_EQ(again.plan.get(), base.plan.get()) << what;
    };
    auto at = [](Index r, Index c) {
        return "(" + std::to_string(r) + "," + std::to_string(c) + ")";
    };

    for (Index r = 0; r < a.rows(); ++r) {
        for (Index c = 0; c < a.cols(); ++c) {
            // L's elements above the diagonal are not part of the
            // system (forwardSolve() ignores them).
            if (kind == ProblemKind::TriSolve && c > r)
                continue;
            Dense<Scalar> v = a;
            v(r, c) = flipSign(v(r, c));
            expectOwnPlan(planOf(kind, v, bmat, w), "A" + at(r, c));
        }
    }
    if (kind == ProblemKind::MatMul) {
        for (Index r = 0; r < bmat.rows(); ++r) {
            for (Index c = 0; c < bmat.cols(); ++c) {
                Dense<Scalar> v = bmat;
                v(r, c) = flipSign(v(r, c));
                expectOwnPlan(planOf(kind, a, v, w), "B" + at(r, c));
            }
        }
    }

    // Zero-line extensions gather to the same stored data as the base
    // (the zero padding of §2.a); only the shape tells them apart.
    if (kind == ProblemKind::TriSolve) {
        // The one extension that stays a valid system: [L 0; 0 1].
        Dense<Scalar> bordered = withZeroLine(withZeroLine(a, true), false);
        bordered(a.rows(), a.cols()) = 1;
        expectOwnPlan(planOf(kind, bordered, bmat, w), "bordered L");
        return;
    }
    expectOwnPlan(planOf(kind, withZeroLine(a, true), bmat, w),
                  "A + zero row");
    if (kind == ProblemKind::MatMul) {
        expectOwnPlan(planOf(kind, withZeroLine(a, false),
                             withZeroLine(bmat, true), w),
                      "A + zero column, B + zero row");
        expectOwnPlan(planOf(kind, a, withZeroLine(bmat, false), w),
                      "B + zero column");
    } else {
        expectOwnPlan(planOf(kind, withZeroLine(a, false), bmat, w),
                      "A + zero column");
    }
}

/** Small edge shapes: A is n×p, B is p×m, and no dimension is a
 *  multiple of w. */
struct EdgeShape
{
    Index n, p, m, w;
};
const EdgeShape kEdgeShapes[] = {{5, 7, 4, 3}, {7, 5, 5, 3}, {3, 5, 7, 2}};

TEST(PlanCache, EveryEngineConfirmsHitsBitForBitUnderCollisions)
{
    std::uint64_t seed = 191;
    for (const std::string &name : engineNames()) {
        auto engine = makeEngine(name);
        ASSERT_NE(engine, nullptr);
        for (const EdgeShape &sh : kEdgeShapes) {
            SCOPED_TRACE(name + " n=" + std::to_string(sh.n) +
                         " p=" + std::to_string(sh.p) +
                         " m=" + std::to_string(sh.m) +
                         " w=" + std::to_string(sh.w));
            const ProblemKind kind = engine->kind();
            Dense<Scalar> a = kind == ProblemKind::TriSolve
                ? randomUnitLowerTriangular(sh.n, seed)
                : randomIntDense(sh.n, sh.p, seed);
            Dense<Scalar> bmat = kind == ProblemKind::MatMul
                ? randomIntDense(sh.p, sh.m, seed + 1)
                : Dense<Scalar>();
            seed += 2;
            expectOnlyItsOwnMatricesHit(*engine, a, bmat, sh.w);
        }
    }
}

TEST(PlanCache, TriPlansDependOnTheSystemAlone)
{
    // L's elements above the diagonal are no part of the system, so
    // they are no part of its plan either. Under a forced collision
    // (n = 8, w = 4), an L changed at (0, 1), inside diagonal block 0,
    // hits the first plan and solves bit-identically on it, while an
    // L changed at (1, 0), inside the system, still misses.
    auto engine = makeEngine("tri");
    PlanCache cache(8, [](const Dense<Scalar> &) { return Digest{7}; });
    const Dense<Scalar> l = randomUnitLowerTriangular(8, 211);
    const Vec<Scalar> b = randomIntVec(8, 212);
    const PlanCache::Prepared base =
        cache.prepare(*engine, EnginePlan::triSolve(l, b, 4));
    ASSERT_FALSE(base.hit);

    Dense<Scalar> upper = l;
    upper(0, 1) = 5;
    const EnginePlan upper_plan = EnginePlan::triSolve(upper, b, 4);
    const PlanCache::Prepared shared = cache.prepare(*engine, upper_plan);
    EXPECT_TRUE(shared.hit);
    EXPECT_EQ(shared.plan.get(), base.plan.get());
    EXPECT_EQ(cache.stats().collisions, 0u);
    for (ExecMode mode : {ExecMode::Simulate, ExecMode::Fast}) {
        EngineInputs in = EngineInputs::triSolve(b);
        in.mode = mode;
        const EngineRunResult own =
            engine->runPrepared(*engine->prepare(upper_plan), in);
        const EngineRunResult hit = engine->runPrepared(*shared.plan, in);
        ASSERT_EQ(own.y.size(), hit.y.size());
        EXPECT_TRUE(sameBits(own.y.elems(), hit.y.elems(), own.y.size()))
            << "mode " << static_cast<int>(mode);
    }

    Dense<Scalar> lower = l;
    lower(1, 0) += 1;
    const PlanCache::Prepared own =
        cache.prepare(*engine, EnginePlan::triSolve(lower, b, 4));
    EXPECT_FALSE(own.hit);
    EXPECT_NE(own.plan.get(), base.plan.get());
    EXPECT_GE(cache.stats().collisions, 1u);
}

TEST(PlanCache, DigestHintIsOnlyAHint)
{
    // A caller's digest only says where to look. A wrong one costs a
    // miss, never a wrong plan, and a cache with its own hash ignores
    // it.
    auto engine = makeEngine("linear");
    const Vec<Scalar> x = randomIntVec(8, 223), b = randomIntVec(8, 224);
    const EnginePlan p1 =
        EnginePlan::matVec(randomIntDense(8, 8, 221), x, b, 4);
    const EnginePlan p2 =
        EnginePlan::matVec(randomIntDense(8, 8, 222), x, b, 4);
    const Digest d1 = planDigest("linear", p1);

    PlanCache cache(8);
    const PlanCache::Prepared first = cache.prepare(*engine, p1, d1);
    ASSERT_FALSE(first.hit);
    EXPECT_EQ(cache.prepare(*engine, p1).plan.get(), first.plan.get());

    // p2 under p1's digest: p1's plan is probed and refused, and p2
    // gets a plan of its own, filed under the wrong key.
    const PlanCache::Prepared wrong = cache.prepare(*engine, p2, d1);
    EXPECT_FALSE(wrong.hit);
    EXPECT_NE(wrong.plan.get(), first.plan.get());
    EXPECT_GE(cache.stats().collisions, 1u);
    const EngineRunResult served =
        engine->runPrepared(*wrong.plan, EngineInputs::of(p2));
    const EngineRunResult own = engine->run(p2);
    ASSERT_EQ(served.y.size(), own.y.size());
    EXPECT_TRUE(sameBits(served.y.elems(), own.y.elems(), own.y.size()));
    EXPECT_TRUE(p2.matchesOracle(served.y, {}));
    EXPECT_FALSE(cache.prepare(*engine, p2).hit);

    // A custom hash: the plan is filed under the cache's own digest,
    // so lookups with no hint or another wrong one hit it.
    PlanCache custom(8, [](const Dense<Scalar> &) { return Digest{7}; });
    const PlanCache::Prepared built = custom.prepare(*engine, p1, Digest{1});
    EXPECT_FALSE(built.hit);
    EXPECT_TRUE(custom.prepare(*engine, p1).hit);
    EXPECT_TRUE(custom.prepare(*engine, p1, Digest{2}).hit);
    EXPECT_EQ(custom.stats().collisions, 0u);
}

//---------------------------------------------------------------------
// Prepared-plan protocol on the engines themselves.
//---------------------------------------------------------------------

TEST(PreparedPlan, EveryEngineMatchesItsOwnRunPath)
{
    const Index n = 9, m = 7, p = 5, w = 3;
    Dense<Scalar> a = randomIntDense(n, m, 51);
    Vec<Scalar> x = randomIntVec(m, 52);
    Vec<Scalar> b = randomIntVec(n, 53);
    Dense<Scalar> bm = randomIntDense(m, p, 54);
    Dense<Scalar> e = randomIntDense(n, p, 55);

    EnginePlan mv = EnginePlan::matVec(a, x, b, w);
    EnginePlan mm = EnginePlan::matMul(a, bm, e, w);
    EnginePlan ts = EnginePlan::triSolve(
        randomUnitLowerTriangular(n, 56), randomIntVec(n, 57), w);

    for (const std::string &name : engineNames()) {
        SCOPED_TRACE("engine " + name);
        auto engine = makeEngine(name);
        ASSERT_NE(engine, nullptr);
        const EnginePlan &plan =
            engine->kind() == ProblemKind::MatVec   ? mv
            : engine->kind() == ProblemKind::MatMul ? mm
                                                    : ts;
        auto prepared = engine->prepare(plan);
        ASSERT_NE(prepared, nullptr);
        EXPECT_EQ(prepared->kind(), engine->kind());
        EXPECT_EQ(prepared->w(), w);
        EXPECT_EQ(prepared->rows(), n);

        EngineRunResult via_run = engine->run(plan);
        EngineRunResult via_prepared =
            engine->runPrepared(*prepared, EngineInputs::of(plan));
        if (engine->kind() == ProblemKind::MatMul) {
            EXPECT_TRUE(via_prepared.c == via_run.c);
        } else {
            EXPECT_EQ(maxAbsDiff(via_prepared.y, via_run.y), 0.0);
        }
        EXPECT_EQ(via_prepared.stats.cycles, via_run.stats.cycles);
    }
}

TEST(PreparedPlan, EngineFamiliesShareOnlyTheirOwnPlans)
{
    // Engines of one plan family run each other's prepared plans:
    // a linear plan serves grouped and overlapped with the y of their
    // own plans, and a hex plan serves spiral. Another family's plan
    // is refused.
    const Index n = 9, m = 7, p = 5, w = 3;
    const Dense<Scalar> a = randomIntDense(n, m, 71);
    const EnginePlan mv =
        EnginePlan::matVec(a, randomIntVec(m, 72), randomIntVec(n, 73), w);
    const auto linear = makeEngine("linear")->prepare(mv);
    for (const char *name : {"grouped", "overlapped"}) {
        auto engine = makeEngine(name);
        for (ExecMode mode : {ExecMode::Simulate, ExecMode::Fast}) {
            SCOPED_TRACE(std::string(name) + " " + execModeName(mode));
            EngineInputs in = EngineInputs::of(mv);
            in.mode = mode;
            const EngineRunResult shared = engine->runPrepared(*linear, in);
            const EngineRunResult own =
                engine->runPrepared(*engine->prepare(mv), in);
            ASSERT_EQ(shared.y.size(), own.y.size());
            EXPECT_TRUE(
                sameBits(shared.y.elems(), own.y.elems(), own.y.size()));
            EXPECT_EQ(shared.stats.cycles, own.stats.cycles);
        }
    }

    const EnginePlan mm = EnginePlan::matMul(a, randomIntDense(m, p, 74),
                                             randomIntDense(n, p, 75), w);
    auto spiral = makeEngine("spiral");
    const EngineRunResult via_hex = spiral->runPrepared(
        *makeEngine("hex")->prepare(mm), EngineInputs::of(mm));
    EXPECT_TRUE(sameBits(via_hex.c, spiral->run(mm).c));
    EXPECT_TRUE(mm.matchesOracle({}, via_hex.c));

    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto mesh = makeEngine("mesh")->prepare(mm);
    auto hex = makeEngine("hex");
    EXPECT_DEATH(hex->runPrepared(*mesh, EngineInputs::of(mm)),
                 "foreign prepared plan");
}

//---------------------------------------------------------------------
// Many operand sets through one plan.
//---------------------------------------------------------------------

TEST(RunMany, StreamsManyInputsThroughOnePlan)
{
    const Index n = 8, m = 6, w = 3;
    Dense<Scalar> a = randomIntDense(n, m, 61);
    auto engine = makeEngine("linear");
    // Zero operand placeholders: prepare() binds only the matrix.
    std::shared_ptr<const PreparedPlan> prepared = engine->prepare(
        EnginePlan::matVec(a, Vec<Scalar>(m), Vec<Scalar>(n), w));

    for (int i = 0; i < 7; ++i) {
        EngineInputs in = EngineInputs::matVec(randomIntVec(m, 100 + i),
                                               randomIntVec(n, 200 + i));
        EngineRunResult r = engine->runPrepared(*prepared, in);
        Vec<Scalar> gold = matVec(a, in.x, in.b);
        EXPECT_EQ(maxAbsDiff(r.y, gold), 0.0) << "input " << i;
    }
}

TEST(RunMany, MatMulPairsReuseRepeatedB)
{
    // The hexagonal transform binds (A, B) together, so each distinct
    // B needs its own plan and a repeated B rides the cached one.
    const Index n = 6, p = 6, m = 4, w = 2;
    Dense<Scalar> a = randomIntDense(n, p, 81);
    Dense<Scalar> b1 = randomIntDense(p, m, 82);
    Dense<Scalar> b2 = randomIntDense(p, m, 83);

    // Items in order: b1, b2, then two repeats of b1.
    const Dense<Scalar> *bs[] = {&b1, &b2, &b1, &b1};
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 4; ++i) {
        ServeRequest req;
        req.engine = "hex";
        req.crossCheck = true;
        req.plan = EnginePlan::matMul(a, *bs[i],
                                      randomIntDense(n, m, 84 + i), w);
        reqs.push_back(std::move(req));
    }

    Shard::Options opts;
    opts.threads = 1;
    Shard shard(opts);
    const bool expected_hit[] = {false, false, true, true};
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        ServeResponse resp = shard.submit(reqs[i]).get();
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(resp.crossCheckOk) << "item " << i;
        EXPECT_EQ(resp.cacheHit, expected_hit[i]) << "item " << i;
        Dense<Scalar> gold =
            matMulAdd(a, reqs[i].plan.bmat, reqs[i].plan.e);
        EXPECT_TRUE(resp.result.c == gold) << "item " << i;
    }
    MetricsSnapshot snap = shard.metricsSnapshot();
    EXPECT_EQ(snap.counters["serve_cross_check_failures_total"], 0u);
    EXPECT_EQ(snap.counters["plan_cache_misses_total"], 2u); // b1, b2
    EXPECT_EQ(snap.counters["plan_cache_hits_total"], 2u); // b1 repeats
}

//---------------------------------------------------------------------
// Shard.
//---------------------------------------------------------------------

ServeRequest
matVecRequest(const std::string &engine, const Dense<Scalar> &a,
              std::uint64_t seed, Index w)
{
    ServeRequest req;
    req.engine = engine;
    req.plan = EnginePlan::matVec(a, randomIntVec(a.cols(), seed),
                                  randomIntVec(a.rows(), seed + 1), w);
    return req;
}

TEST(Shard, ServesRequestsAndReportsCacheHits)
{
    Shard::Options opts;
    opts.threads = 2;
    Shard shard(opts);

    Dense<Scalar> a = randomIntDense(8, 8, 101);
    ServeRequest r1 = matVecRequest("linear", a, 102, 4);
    ServeRequest r2 = matVecRequest("linear", a, 104, 4);

    ServeResponse resp1 = shard.submit(r1).get();
    ServeResponse resp2 = shard.submit(r2).get();
    ASSERT_TRUE(resp1.ok) << resp1.error;
    ASSERT_TRUE(resp2.ok) << resp2.error;
    EXPECT_EQ(maxAbsDiff(resp1.result.y,
                         matVec(r1.plan.a, r1.plan.x, r1.plan.b)),
              0.0);
    EXPECT_EQ(maxAbsDiff(resp2.result.y,
                         matVec(r2.plan.a, r2.plan.x, r2.plan.b)),
              0.0);
    // Same matrix: the second request must reuse the cached plan.
    EXPECT_TRUE(resp1.cacheHit || resp2.cacheHit);

    MetricsSnapshot snap = shard.metricsSnapshot();
    EXPECT_EQ(snap.counters["serve_requests_total"], 2u);
    EXPECT_EQ(snap.counters["serve_failures_total"], 0u);
    EXPECT_EQ(snap.counters["plan_cache_hits_total"], 1u);
    // One (engine, kind, mode) series carries both requests.
    const MetricLabels labels =
        engineLabels("linear", ProblemKind::MatVec, ExecMode::Simulate);
    EXPECT_EQ(snap.counters[seriesKey("serve_engine_requests_total",
                                      labels)],
              2u);
    EXPECT_EQ(snap.counters[seriesKey("serve_engine_cache_hits_total",
                                      labels)],
              1u);
    EXPECT_GT(snap.counters[seriesKey("serve_engine_sim_cycles_total",
                                      labels)],
              0u);
    const HistogramSnapshot &lat =
        snap.histograms[seriesKey("serve_engine_latency_micros", labels)];
    EXPECT_EQ(lat.count, 2u);
    EXPECT_GE(lat.quantile(0.99), lat.quantile(0.5));
}

TEST(Shard, CountsSkeletonHitsOnHexPlanMisses)
{
    // Four distinct matrix pairs, so four plan-cache misses: three of
    // one shape (the second and third find its skeleton live in the
    // cached first plan) and one of another shape.
    Shard::Options opts;
    opts.threads = 1;
    Shard shard(opts);
    const Index shapes[][3] = {{5, 8, 7}, {5, 8, 7}, {5, 8, 7}, {5, 8, 9}};
    std::uint64_t seed = 130;
    for (const auto &s : shapes) {
        ServeRequest req;
        req.engine = "hex";
        req.plan = EnginePlan::matMul(randomIntDense(s[0], s[1], seed),
                                      randomIntDense(s[1], s[2], seed + 1),
                                      3);
        seed += 2;
        ServeResponse resp = shard.submit(req).get();
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_FALSE(resp.cacheHit);
        EXPECT_TRUE(resp.result.c ==
                    matMulAdd(req.plan.a, req.plan.bmat, req.plan.e));
    }
    MetricsSnapshot snap = shard.metricsSnapshot();
    EXPECT_EQ(snap.counters["plan_cache_misses_total"], 4u);
    const MetricLabels labels =
        engineLabels("hex", ProblemKind::MatMul, ExecMode::Simulate);
    EXPECT_EQ(snap.counters[seriesKey("serve_engine_skeleton_hits_total",
                                      labels)],
              2u);
}

TEST(Shard, MalformedRequestsResolveToErrors)
{
    Shard::Options opts;
    opts.threads = 1;
    Shard shard(opts);

    ServeRequest unknown;
    unknown.engine = "no-such-engine";
    unknown.plan = EnginePlan::matVec(randomIntDense(4, 4, 111),
                                      randomIntVec(4, 112),
                                      randomIntVec(4, 113), 2);
    ServeResponse r = shard.submit(unknown).get();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("unknown engine"), std::string::npos);

    // Kind mismatch: a matvec plan sent to the hex engine.
    ServeRequest wrong_kind = unknown;
    wrong_kind.engine = "hex";
    ServeResponse r2 = shard.submit(wrong_kind).get();
    EXPECT_FALSE(r2.ok);
    EXPECT_FALSE(r2.error.empty());

    // Shape mismatch, hand-built to bypass the asserting factory.
    ServeRequest bad_shape;
    bad_shape.engine = "linear";
    bad_shape.plan.kind = ProblemKind::MatVec;
    bad_shape.plan.a = randomIntDense(4, 4, 114);
    bad_shape.plan.x = randomIntVec(3, 115); // wrong length
    bad_shape.plan.b = randomIntVec(4, 116);
    bad_shape.plan.w = 2;
    ServeResponse r3 = shard.submit(bad_shape).get();
    EXPECT_FALSE(r3.ok);
    EXPECT_FALSE(r3.error.empty());

    // Singular triangular system, hand-built likewise: the shard
    // reports instead of tripping the engine's divide assert.
    ServeRequest singular;
    singular.engine = "tri";
    singular.plan.kind = ProblemKind::TriSolve;
    singular.plan.a = randomUnitLowerTriangular(4, 117);
    singular.plan.a(2, 2) = 0;
    singular.plan.b = randomIntVec(4, 118);
    singular.plan.w = 2;
    ServeResponse r4 = shard.submit(singular).get();
    EXPECT_FALSE(r4.ok);
    EXPECT_NE(r4.error.find("zero diagonal"), std::string::npos);

    // Non-square L.
    ServeRequest rect = singular;
    rect.plan.a = randomIntDense(4, 3, 119);
    ServeResponse r5 = shard.submit(rect).get();
    EXPECT_FALSE(r5.ok);
    EXPECT_NE(r5.error.find("square"), std::string::npos);

    MetricsSnapshot snap = shard.metricsSnapshot();
    EXPECT_EQ(snap.counters["serve_failures_total"], 5u);
    EXPECT_EQ(snap.counters["serve_requests_total"], 0u);
    // Failures stay unlabelled: an unknown engine name is client
    // input, so no per-engine series may appear for it.
    for (const auto &entry : snap.counters)
        EXPECT_EQ(entry.first.find("no-such-engine"), std::string::npos)
            << entry.first;
}

TEST(RunMany, TriSolveStreamsRightHandSidesThroughOnePlan)
{
    const Index n = 10, w = 3;
    Dense<Scalar> l = randomUnitLowerTriangular(n, 131);
    auto engine = makeEngine("tri");
    // Zero rhs placeholder: prepare() binds only the matrix.
    std::shared_ptr<const PreparedPlan> prepared =
        engine->prepare(EnginePlan::triSolve(l, Vec<Scalar>(n), w));

    for (int i = 0; i < 6; ++i) {
        EngineInputs in =
            EngineInputs::triSolve(randomIntVec(n, 140 + i));
        EngineRunResult r = engine->runPrepared(*prepared, in);
        Vec<Scalar> gold = forwardSolve(l, in.b);
        EXPECT_EQ(maxAbsDiff(r.y, gold), 0.0) << i;
    }
}

TEST(Shard, CrossCheckModeValidatesEveryTopology)
{
    Shard::Options opts;
    opts.threads = 2;
    Shard shard(opts);

    const Index n = 6, m = 6, p = 4, w = 2;
    Dense<Scalar> a = randomIntDense(n, m, 121);
    Dense<Scalar> bm = randomIntDense(m, p, 122);
    Dense<Scalar> e = randomIntDense(n, p, 123);
    Dense<Scalar> lt = randomUnitLowerTriangular(n, 126);

    std::vector<std::future<ServeResponse>> futures;
    for (const std::string &name : engineNames()) {
        auto engine = makeEngine(name);
        ServeRequest req;
        req.engine = name;
        req.crossCheck = true;
        req.plan = engine->kind() == ProblemKind::MatVec
            ? EnginePlan::matVec(a, randomIntVec(m, 124),
                                 randomIntVec(n, 125), w)
            : engine->kind() == ProblemKind::MatMul
                ? EnginePlan::matMul(a, bm, e, w)
                : EnginePlan::triSolve(lt, randomIntVec(n, 127), w);
        futures.push_back(shard.submit(std::move(req)));
    }
    for (auto &f : futures) {
        ServeResponse resp = f.get();
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(resp.crossCheckOk);
    }
    MetricsSnapshot snap = shard.metricsSnapshot();
    EXPECT_EQ(snap.counters["serve_cross_check_failures_total"], 0u);
    EXPECT_GE(snap.counters["serve_requests_total"], 8u);
}

TEST(Shard, DestructionDrainsQueuedRequests)
{
    std::vector<std::future<ServeResponse>> futures;
    Dense<Scalar> a = randomIntDense(6, 6, 131);
    {
        Shard::Options opts;
        opts.threads = 1;
        Shard shard(opts);
        for (int i = 0; i < 8; ++i)
            futures.push_back(shard.submit(
                matVecRequest("linear", a, 200 + 2 * i, 3)));
        // The shard goes out of scope with requests likely queued.
    }
    for (auto &f : futures) {
        ServeResponse resp = f.get();
        EXPECT_TRUE(resp.ok) << resp.error;
    }
}

} // namespace
} // namespace sap
