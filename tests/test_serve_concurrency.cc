/**
 * @file
 * Concurrency tests of the serving layer, written to run under
 * ThreadSanitizer (the CI tsan job builds exactly this suite plus
 * test_serve/test_engine with -fsanitize=thread):
 *
 *  - many client threads hammering ONE engine through a shard,
 *    all against the same matrix, so the plan-cache fast path and
 *    the shared PreparedPlan are exercised from every thread at
 *    once;
 *  - a mixed-topology request stream across every registered
 *    engine (all three problem kinds);
 *  - direct concurrent runPrepared() calls on one shared prepared
 *    plan, bypassing the shard, to pin the engine-level
 *    thread-safety contract;
 *  - hits on one large plan, confirmed outside the cache lock,
 *    racing misses on small plans through the same cache.
 *
 * Every result is asserted against the host golden model.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "engine/registry.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"
#include "serve/plan_cache.hh"
#include "serve/shard.hh"

namespace sap {
namespace {

TEST(ServeConcurrency, ManyClientThreadsOneEngineOneMatrix)
{
    const Index n = 10, m = 8, w = 3;
    const int kClients = 4;
    const int kRequestsPerClient = 6;

    Dense<Scalar> a = randomIntDense(n, m, 7);

    Shard::Options opts;
    opts.threads = 4;
    Shard shard(opts);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kRequestsPerClient; ++i) {
                std::uint64_t seed =
                    1000 + 100 * static_cast<std::uint64_t>(c) + 2 * i;
                ServeRequest req;
                req.engine = "linear";
                req.plan = EnginePlan::matVec(
                    a, randomIntVec(m, seed),
                    randomIntVec(n, seed + 1), w);
                Vec<Scalar> gold = matVec(a, req.plan.x, req.plan.b);
                ServeResponse resp =
                    shard.submit(std::move(req)).get();
                if (!resp.ok ||
                    maxAbsDiff(resp.result.y, gold) != 0.0)
                    ++mismatches;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    EXPECT_EQ(mismatches.load(), 0);
    MetricsSnapshot snap = shard.metricsSnapshot();
    const std::uint64_t requests = snap.counters["serve_requests_total"];
    const std::uint64_t misses = snap.counters["plan_cache_misses_total"];
    EXPECT_EQ(requests, static_cast<std::uint64_t>(kClients *
                                                   kRequestsPerClient));
    EXPECT_EQ(snap.counters["serve_failures_total"], 0u);
    // One matrix: one cached plan. Concurrent first requests may
    // each miss before the first insert lands, so the miss count is
    // only bounded by the worker count.
    EXPECT_EQ(shard.planCache().size(), 1u);
    EXPECT_GE(misses, 1u);
    EXPECT_LE(misses, opts.threads);
    EXPECT_EQ(snap.counters["plan_cache_hits_total"] + misses, requests);
}

TEST(ServeConcurrency, MixedTopologyRequestStream)
{
    const Index n = 6, m = 6, p = 4, w = 2;
    Dense<Scalar> a = randomIntDense(n, m, 17);
    Dense<Scalar> bm = randomIntDense(m, p, 18);
    Dense<Scalar> lt = randomUnitLowerTriangular(n, 19);

    Shard::Options opts;
    opts.threads = 4;
    Shard shard(opts);

    std::vector<std::string> names = engineNames();
    std::vector<std::future<ServeResponse>> futures;
    for (int round = 0; round < 4; ++round) {
        for (const std::string &name : names) {
            auto engine = makeEngine(name);
            ServeRequest req;
            req.engine = name;
            req.crossCheck = true;
            std::uint64_t seed = 300 + 10 * round;
            req.plan = engine->kind() == ProblemKind::MatVec
                ? EnginePlan::matVec(a, randomIntVec(m, seed),
                                     randomIntVec(n, seed + 1), w)
                : engine->kind() == ProblemKind::MatMul
                    ? EnginePlan::matMul(
                          a, bm, randomIntDense(n, p, seed + 2), w)
                    : EnginePlan::triSolve(
                          lt, randomIntVec(n, seed + 3), w);
            futures.push_back(shard.submit(std::move(req)));
        }
    }
    for (auto &f : futures) {
        ServeResponse resp = f.get();
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(resp.crossCheckOk);
    }
    MetricsSnapshot snap = shard.metricsSnapshot();
    EXPECT_EQ(snap.counters["serve_cross_check_failures_total"], 0u);
    EXPECT_EQ(snap.counters["serve_requests_total"], futures.size());
    // One (matrix, w) binding per engine: one cached plan each
    // (concurrent first requests may duplicate a miss, never an
    // entry).
    EXPECT_EQ(shard.planCache().size(), names.size());
    EXPECT_GE(snap.counters["plan_cache_misses_total"], names.size());
}

TEST(ServeConcurrency, SharedPreparedPlanAcrossRawThreads)
{
    const Index n = 9, m = 7, w = 3;
    const int kThreads = 4;
    Dense<Scalar> a = randomIntDense(n, m, 27);
    auto engine = makeEngine("linear");
    ASSERT_NE(engine, nullptr);

    EnginePlan plan = EnginePlan::matVec(a, Vec<Scalar>(m),
                                         Vec<Scalar>(n), w);
    std::shared_ptr<const PreparedPlan> prepared =
        engine->prepare(plan);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 5; ++i) {
                std::uint64_t seed =
                    500 + 50 * static_cast<std::uint64_t>(t) + 2 * i;
                Vec<Scalar> x = randomIntVec(m, seed);
                Vec<Scalar> b = randomIntVec(n, seed + 1);
                EngineRunResult r = engine->runPrepared(
                    *prepared, EngineInputs::matVec(x, b));
                if (maxAbsDiff(r.y, matVec(a, x, b)) != 0.0)
                    ++mismatches;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServeConcurrency, PlanCacheSurvivesConcurrentMixedKeys)
{
    // Concurrent misses on the same key plus churn past capacity:
    // exercises insert-vs-insert races and LRU eviction under load.
    const Index s = 6, w = 3;
    const int kThreads = 4;
    auto engine = makeEngine("linear");
    PlanCache cache(3);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::uint64_t seed = 1; seed <= 6; ++seed) {
                Dense<Scalar> a = randomIntDense(s, s, seed);
                Vec<Scalar> x = randomIntVec(s, seed + 10);
                Vec<Scalar> b = randomIntVec(s, seed + 20);
                EnginePlan plan = EnginePlan::matVec(a, x, b, w);
                PlanCache::Prepared cached =
                    cache.prepare(*engine, plan);
                EngineRunResult r = engine->runPrepared(
                    *cached.plan, EngineInputs::matVec(x, b));
                if (maxAbsDiff(r.y, matVec(a, x, b)) != 0.0)
                    ++mismatches;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_LE(cache.size(), 3u);
}

TEST(ServeConcurrency, LargeHitsAndSmallMissesCountAndComputeExactly)
{
    // PlanCache confirms a digest match outside its lock: threads
    // hitting one 512², w=32 plan (each confirm reads all of A)
    // race threads whose distinct small matrices all miss and
    // insert. Every count must add up, and every result must be bit
    // for bit what a plan of its own computes. The cache holds every
    // plan, so the large one is never evicted between its hits.
    auto engine = makeEngine("linear");
    const Index big = 512, w_big = 32, small = 12, w_small = 4;
    const int kHitThreads = 2, kHits = 6;
    const int kMissThreads = 2, kMisses = 24;
    PlanCache cache(64);

    const Dense<Scalar> a = randomIntDense(big, big, 501);
    const Vec<Scalar> b = randomIntVec(big, 502);
    ASSERT_FALSE(cache.prepare(*engine, EnginePlan::matVec(
                                            a, Vec<Scalar>(big), b, w_big))
                     .hit);
    const std::shared_ptr<const PreparedPlan> own =
        engine->prepare(EnginePlan::matVec(a, Vec<Scalar>(big), b, w_big));

    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kHitThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kHits; ++i) {
                const Vec<Scalar> x = randomIntVec(
                    big, 600 + static_cast<std::uint64_t>(t * kHits + i));
                const EnginePlan plan =
                    EnginePlan::matVec(a, x, b, w_big);
                PlanCache::Prepared got = cache.prepare(*engine, plan);
                EngineInputs in = EngineInputs::matVec(x, b);
                in.mode = ExecMode::Fast;
                const EngineRunResult hit =
                    engine->runPrepared(*got.plan, in);
                const EngineRunResult ref = engine->runPrepared(*own, in);
                if (!got.hit || hit.y.size() != big ||
                    !sameBits(hit.y.elems(), ref.y.elems(), big))
                    ++wrong;
            }
        });
    }
    for (int t = 0; t < kMissThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kMisses; ++i) {
                const std::uint64_t seed =
                    1000 + static_cast<std::uint64_t>(t * kMisses + i);
                const Dense<Scalar> m = randomIntDense(small, small, seed);
                const Vec<Scalar> x = randomIntVec(small, seed + 1);
                const Vec<Scalar> c = randomIntVec(small, seed + 2);
                PlanCache::Prepared got = cache.prepare(
                    *engine, EnginePlan::matVec(m, x, c, w_small));
                EngineInputs in = EngineInputs::matVec(x, c);
                in.mode = ExecMode::Fast;
                const EngineRunResult r =
                    engine->runPrepared(*got.plan, in);
                const Vec<Scalar> expect = matVec(m, x, c);
                if (got.hit || r.y.size() != small ||
                    !sameBits(r.y.elems(), expect.elems(), small))
                    ++wrong;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(wrong.load(), 0);
    const PlanCacheStats st = cache.stats();
    EXPECT_EQ(st.hits, static_cast<std::uint64_t>(kHitThreads * kHits));
    EXPECT_EQ(st.misses,
              static_cast<std::uint64_t>(1 + kMissThreads * kMisses));
    EXPECT_EQ(st.collisions, 0u);
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_EQ(cache.size(), st.misses);
}

} // namespace
} // namespace sap
