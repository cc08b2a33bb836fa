/**
 * @file
 * Tests of the cluster layer: consistent-hash routing (determinism,
 * coverage, rebalance behavior), shard pinning of plan caches, the
 * async completion-callback surface, malformed-request
 * error paths exercised through the cluster router, and the exact
 * merge of the shards' labelled per-engine metrics.
 */

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/router.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"

namespace sap {
namespace {

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

//---------------------------------------------------------------------
// ConsistentHashRouter.
//---------------------------------------------------------------------

TEST(Router, DeterministicAcrossInstances)
{
    ConsistentHashRouter r1(4), r2(4);
    for (int i = 0; i < 200; ++i) {
        Digest key = fingerprintString("key-" + std::to_string(i));
        EXPECT_EQ(r1.shardFor(key), r2.shardFor(key)) << i;
    }
}

TEST(Router, EveryShardOwnsPartOfTheKeySpace)
{
    ConsistentHashRouter router(4);
    std::set<std::size_t> owners;
    for (int i = 0; i < 500; ++i)
        owners.insert(router.shardFor(
            fingerprintString("key-" + std::to_string(i))));
    EXPECT_EQ(owners.size(), 4u);
    for (std::size_t s : owners)
        EXPECT_LT(s, 4u);
}

TEST(Router, ResizeMovesOnlyAFractionOfKeys)
{
    // Growing 4 -> 5 shards should re-home roughly 1/5 of the keys;
    // modulo routing would move ~4/5. Assert the consistent-hash
    // bound with slack, and that some keys did move.
    const int kKeys = 2000;
    ConsistentHashRouter before(4), after(5);
    int moved = 0;
    for (int i = 0; i < kKeys; ++i) {
        Digest key = fingerprintString("key-" + std::to_string(i));
        if (before.shardFor(key) != after.shardFor(key))
            ++moved;
    }
    EXPECT_GT(moved, 0);
    EXPECT_LT(static_cast<double>(moved) / kKeys, 0.40)
        << "consistent hashing moved " << moved << "/" << kKeys;
    // Keys that moved must have moved *to the new shard* or onto an
    // arc the new shard displaced; either way no key may land on an
    // out-of-range shard.
    for (int i = 0; i < kKeys; ++i) {
        Digest key = fingerprintString("key-" + std::to_string(i));
        EXPECT_LT(after.shardFor(key), 5u);
    }
}

//---------------------------------------------------------------------
// Routing and shard pinning through the Cluster.
//---------------------------------------------------------------------

TEST(Cluster, RoutingIsDeterministicAcrossInstances)
{
    Cluster::Options opts;
    opts.shards = 4;
    Cluster c1(opts), c2(opts);
    for (int i = 0; i < 8; ++i) {
        Dense<Scalar> a = randomIntDense(6, 6, 300 + i);
        ServeRequest req = matVecRequest("linear", a, 400 + i, 3);
        EXPECT_EQ(c1.shardFor(req), c2.shardFor(req)) << i;
        EXPECT_EQ(c1.shardFor(req), c1.shardFor(req));
    }
}

TEST(Cluster, MatrixPlanLivesOnExactlyOneShard)
{
    Cluster::Options opts;
    opts.shards = 4;
    opts.threadsPerShard = 1;
    Cluster cluster(opts);

    Dense<Scalar> a = randomIntDense(8, 8, 501);
    std::size_t home = 0;
    for (int i = 0; i < 6; ++i) {
        ServeRequest req = matVecRequest("linear", a, 510 + 2 * i, 4);
        home = cluster.shardFor(req);
        ServeResponse resp = cluster.submit(std::move(req)).get();
        ASSERT_TRUE(resp.ok) << resp.error;
    }

    // The plan was built once, on the home shard; every other shard
    // never saw the matrix.
    for (std::size_t s = 0; s < cluster.shardCount(); ++s) {
        SCOPED_TRACE("shard " + std::to_string(s));
        MetricsSnapshot snap = cluster.shard(s).metricsSnapshot();
        if (s == home) {
            EXPECT_EQ(cluster.shard(s).planCache().size(), 1u);
            EXPECT_EQ(snap.counters["serve_requests_total"], 6u);
            EXPECT_EQ(snap.counters["plan_cache_misses_total"], 1u);
            EXPECT_EQ(snap.counters["plan_cache_hits_total"], 5u);
        } else {
            EXPECT_EQ(cluster.shard(s).planCache().size(), 0u);
            EXPECT_EQ(snap.counters["serve_requests_total"], 0u);
        }
    }

    MetricsSnapshot total = cluster.metricsSnapshot();
    EXPECT_EQ(total.counters["serve_requests_total"], 6u);
    EXPECT_EQ(total.counters["plan_cache_hits_total"], 5u);
    EXPECT_EQ(total.counters["plan_cache_misses_total"], 1u);
}

TEST(Cluster, DistinctMatricesSpreadAcrossShards)
{
    Cluster::Options opts;
    opts.shards = 4;
    opts.threadsPerShard = 1;
    Cluster cluster(opts);

    std::set<std::size_t> homes;
    for (int i = 0; i < 24; ++i) {
        Dense<Scalar> a = randomIntDense(6, 6, 600 + i);
        homes.insert(
            cluster.shardFor(matVecRequest("linear", a, 700 + i, 3)));
    }
    // 24 distinct matrices over 4 shards: more than one shard must
    // own some (with the default ring, in fact all of them do).
    EXPECT_GT(homes.size(), 1u);
}

TEST(Cluster, ServesCorrectResultsAcrossShards)
{
    Cluster::Options opts;
    opts.shards = 3;
    Cluster cluster(opts);

    std::vector<ServeRequest> reqs;
    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 9; ++i) {
        Dense<Scalar> a = randomIntDense(7, 5, 800 + i);
        reqs.push_back(matVecRequest("linear", a, 900 + 2 * i, 3));
        reqs.back().crossCheck = true;
    }
    for (const ServeRequest &req : reqs)
        futures.push_back(cluster.submit(req));
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        ServeResponse resp = futures[i].get();
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(resp.crossCheckOk);
        Vec<Scalar> gold =
            matVec(reqs[i].plan.a, reqs[i].plan.x, reqs[i].plan.b);
        EXPECT_EQ(maxAbsDiff(resp.result.y, gold), 0.0) << i;
    }
    EXPECT_EQ(cluster.metricsSnapshot()
                  .counters["serve_cross_check_failures_total"],
              0u);
}

TEST(Cluster, TriSolveRequestsRouteBatchAndCrossCheck)
{
    // The triangular workload through the whole cluster surface:
    // digest routing pins each L to one shard, whose plan cache
    // builds it once and serves every later right-hand side from the
    // cached plan.
    Cluster::Options opts;
    opts.shards = 3;
    Cluster cluster(opts);

    const Index n = 8, w = 3;
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 12; ++i) {
        ServeRequest req;
        req.engine = "tri";
        req.crossCheck = true;
        // Four distinct systems, three right-hand sides each.
        Dense<Scalar> l =
            randomUnitLowerTriangular(n, 1900 + i % 4);
        req.plan = EnginePlan::triSolve(
            l, randomIntVec(n, 1950 + i), w);
        reqs.push_back(std::move(req));
    }
    // Same binding ⇒ same digest ⇒ same shard.
    EXPECT_EQ(cluster.shardFor(reqs[0]), cluster.shardFor(reqs[4]));

    // One at a time, so no two cold workers race one system's build.
    std::size_t cache_hits = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        ServeResponse resp = cluster.submit(reqs[i]).get();
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(resp.crossCheckOk);
        if (resp.cacheHit)
            ++cache_hits;
        Vec<Scalar> gold = forwardSolve(reqs[i].plan.a,
                                        reqs[i].plan.b);
        EXPECT_EQ(maxAbsDiff(resp.result.y, gold), 0.0) << i;
    }
    MetricsSnapshot snap = cluster.metricsSnapshot();
    EXPECT_EQ(snap.counters["serve_cross_check_failures_total"], 0u);
    // Four distinct systems: four builds, and every further
    // right-hand side rides its system's cached plan.
    EXPECT_EQ(snap.counters["plan_cache_misses_total"], 4u);
    EXPECT_EQ(cache_hits, 8u);
}

//---------------------------------------------------------------------
// Async IO: completion callbacks.
//---------------------------------------------------------------------

TEST(Cluster, SubmitAsyncFiresCompletionCallback)
{
    Cluster::Options opts;
    opts.shards = 2;
    Cluster cluster(opts);

    Dense<Scalar> a = randomIntDense(6, 6, 1001);
    ServeRequest req = matVecRequest("linear", a, 1002, 3);
    Vec<Scalar> gold = matVec(req.plan.a, req.plan.x, req.plan.b);

    std::promise<ServeResponse> done;
    std::future<ServeResponse> fut = done.get_future();
    cluster.submitAsync(std::move(req), [&done](ServeResponse resp) {
        done.set_value(std::move(resp));
    });
    ServeResponse resp = fut.get();
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(maxAbsDiff(resp.result.y, gold), 0.0);
}

TEST(Cluster, CompletionQueueDeliversEveryTag)
{
    // A caller-side completion queue on submitAsync: each callback
    // pushes {tag, response}, and the queue is read once the cluster
    // has drained.
    const int kRequests = 20;
    std::mutex mu;
    std::vector<std::pair<std::uint64_t, ServeResponse>> queue;
    std::vector<Vec<Scalar>> gold(kRequests);
    {
        Cluster::Options opts;
        opts.shards = 3;
        Cluster cluster(opts);
        for (int i = 0; i < kRequests; ++i) {
            Dense<Scalar> a = randomIntDense(6, 6, 1100 + i % 4);
            ServeRequest req =
                matVecRequest("linear", a, 1200 + 2 * i, 3);
            gold[i] = matVec(req.plan.a, req.plan.x, req.plan.b);
            const auto tag = static_cast<std::uint64_t>(i);
            cluster.submitAsync(std::move(req),
                                [&mu, &queue, tag](ServeResponse resp) {
                                    std::lock_guard<std::mutex> lock(mu);
                                    queue.emplace_back(tag,
                                                       std::move(resp));
                                });
        }
        // Cluster destruction drains the shards: every callback has
        // run before the queue is read.
    }

    std::set<std::uint64_t> tags;
    for (const auto &[tag, response] : queue) {
        ASSERT_TRUE(response.ok) << response.error;
        ASSERT_LT(tag, static_cast<std::uint64_t>(kRequests));
        EXPECT_EQ(maxAbsDiff(response.result.y, gold[tag]), 0.0)
            << "tag " << tag;
        EXPECT_TRUE(tags.insert(tag).second) << "duplicate tag " << tag;
    }
    EXPECT_EQ(tags.size(), static_cast<std::size_t>(kRequests));
    EXPECT_EQ(queue.size(), static_cast<std::size_t>(kRequests));
}

//---------------------------------------------------------------------
// Malformed requests among well-formed ones on the same matrix.
//---------------------------------------------------------------------

/** A shape-mismatched request on @p a (x one element short),
 *  hand-built to bypass the asserting factory. Same matrix, so it
 *  routes to the same shard as well-formed requests on @p a. */
ServeRequest
shortXRequest(const Dense<Scalar> &a, std::uint64_t seed)
{
    ServeRequest bad;
    bad.engine = "linear";
    bad.plan.kind = ProblemKind::MatVec;
    bad.plan.a = a;
    bad.plan.x = randomIntVec(a.cols() - 1, seed); // wrong length
    bad.plan.b = randomIntVec(a.rows(), seed + 1);
    bad.plan.w = 3;
    return bad;
}

TEST(Cluster, BatchMalformedRequestDoesNotBlockItsGroup)
{
    Cluster::Options opts;
    opts.shards = 2;
    opts.threadsPerShard = 1;
    Cluster cluster(opts);

    Dense<Scalar> a = randomIntDense(6, 6, 1601);
    ServeResponse first = cluster.submit(shortXRequest(a, 1602)).get();
    EXPECT_FALSE(first.ok);
    EXPECT_FALSE(first.error.empty());
    for (int i = 0; i < 4; ++i) {
        ServeResponse resp =
            cluster.submit(matVecRequest("linear", a, 1610 + 2 * i, 3))
                .get();
        EXPECT_TRUE(resp.ok) << resp.error;
    }
    MetricsSnapshot snap = cluster.metricsSnapshot();
    EXPECT_EQ(snap.counters["serve_failures_total"], 1u);
    EXPECT_EQ(snap.counters["serve_requests_total"], 4u);
}

TEST(Cluster, BatchMalformedFollowerGetsErrorResponseNotAbort)
{
    Cluster::Options opts;
    opts.shards = 2;
    opts.threadsPerShard = 1;
    Cluster cluster(opts);

    Dense<Scalar> a = randomIntDense(6, 6, 1651);
    // A valid request caches a's plan; the malformed one after it
    // binds the same matrix (the digest only covers the bound
    // matrices), so it must be validated before the cache hands it
    // the cached plan.
    EXPECT_TRUE(
        cluster.submit(matVecRequest("linear", a, 1652, 3)).get().ok);
    ServeResponse follower =
        cluster.submit(shortXRequest(a, 1654)).get();
    EXPECT_FALSE(follower.ok);
    EXPECT_FALSE(follower.error.empty());
    EXPECT_TRUE(
        cluster.submit(matVecRequest("linear", a, 1656, 3)).get().ok);
    MetricsSnapshot snap = cluster.metricsSnapshot();
    EXPECT_EQ(snap.counters["serve_failures_total"], 1u);
    EXPECT_EQ(snap.counters["serve_requests_total"], 2u);
}

//---------------------------------------------------------------------
// Malformed-request error paths through the router (serve edge
// coverage).
//---------------------------------------------------------------------

TEST(Cluster, MalformedRequestsResolveToErrorsThroughTheRouter)
{
    Cluster::Options opts;
    opts.shards = 3;
    Cluster cluster(opts);

    ServeRequest unknown;
    unknown.engine = "no-such-engine";
    unknown.plan = EnginePlan::matVec(randomIntDense(4, 4, 1701),
                                      randomIntVec(4, 1702),
                                      randomIntVec(4, 1703), 2);
    ServeResponse r1 = cluster.submit(unknown).get();
    EXPECT_FALSE(r1.ok);
    EXPECT_NE(r1.error.find("unknown engine"), std::string::npos);

    // Kind mismatch: a matvec plan routed to the hex engine.
    ServeRequest wrong_kind = unknown;
    wrong_kind.engine = "hex";
    ServeResponse r2 = cluster.submit(wrong_kind).get();
    EXPECT_FALSE(r2.ok);
    EXPECT_FALSE(r2.error.empty());

    // Shape mismatch, hand-built to bypass the asserting factory.
    ServeRequest bad_shape;
    bad_shape.engine = "linear";
    bad_shape.plan.kind = ProblemKind::MatVec;
    bad_shape.plan.a = randomIntDense(4, 4, 1704);
    bad_shape.plan.x = randomIntVec(3, 1705); // wrong length
    bad_shape.plan.b = randomIntVec(4, 1706);
    bad_shape.plan.w = 2;
    ServeResponse r3 = cluster.submit(bad_shape).get();
    EXPECT_FALSE(r3.ok);
    EXPECT_FALSE(r3.error.empty());

    MetricsSnapshot snap = cluster.metricsSnapshot();
    EXPECT_EQ(snap.counters["serve_failures_total"], 3u);
    EXPECT_EQ(snap.counters["serve_requests_total"], 0u);
    // No plan was ever cached for a malformed request.
    for (std::size_t s = 0; s < cluster.shardCount(); ++s)
        EXPECT_EQ(cluster.shard(s).planCache().size(), 0u);
}

TEST(Cluster, StatsSnapshotMergesShardsExactly)
{
    Cluster::Options opts;
    opts.shards = 2;
    Cluster cluster(opts);

    // What was served, per (engine, kind, mode) label set.
    struct Served
    {
        std::uint64_t requests = 0;
        std::uint64_t cacheHits = 0;
        std::uint64_t simCycles = 0;
    };
    std::map<MetricLabels, Served> served;
    auto serve = [&](ServeRequest req) {
        const MetricLabels labels =
            engineLabels(req.engine, req.plan.kind, req.plan.mode);
        ServeResponse resp = cluster.submit(std::move(req)).get();
        ASSERT_TRUE(resp.ok) << resp.error;
        Served &s = served[labels];
        ++s.requests;
        s.cacheHits += resp.cacheHit ? 1 : 0;
        s.simCycles += static_cast<std::uint64_t>(resp.result.stats.cycles);
    };

    // Linear fast: eight distinct matrices (spread over both shards
    // by digest routing), each served twice so the repeat hits.
    for (int i = 0; i < 8; ++i) {
        Dense<Scalar> a = randomIntDense(6, 6, 2000 + i);
        for (int rep = 0; rep < 2; ++rep) {
            ServeRequest req =
                matVecRequest("linear", a, 2100 + 2 * i + rep, 3);
            req.plan.mode = ExecMode::Fast;
            serve(std::move(req));
        }
    }
    // Linear simulate: one matrix of another shape.
    Dense<Scalar> tall = randomIntDense(9, 4, 2300);
    for (int i = 0; i < 3; ++i)
        serve(matVecRequest("linear", tall, 2301 + 2 * i, 3));
    // Hex simulate: one matrix pair.
    for (int i = 0; i < 2; ++i) {
        ServeRequest req;
        req.engine = "hex";
        req.plan = EnginePlan::matMul(
            randomIntDense(4, 4, 2400), randomIntDense(4, 3, 2401),
            randomIntDense(4, 3, 2402 + i), 2);
        serve(std::move(req));
    }
    ASSERT_EQ(served.size(), 3u);

    MetricsSnapshot merged = cluster.metricsSnapshot();
    std::vector<MetricsSnapshot> parts;
    for (std::size_t s = 0; s < cluster.shardCount(); ++s)
        parts.push_back(cluster.shard(s).metricsSnapshot());

    std::uint64_t labelled_requests = 0;
    for (const auto &[labels, want] : served) {
        SCOPED_TRACE(seriesKey("series", labels));
        const std::string requests =
            seriesKey("serve_engine_requests_total", labels);
        const std::string hits =
            seriesKey("serve_engine_cache_hits_total", labels);
        const std::string cycles =
            seriesKey("serve_engine_sim_cycles_total", labels);
        const std::string latency =
            seriesKey("serve_engine_latency_micros", labels);

        // The merged series match what was served...
        EXPECT_EQ(merged.counters[requests], want.requests);
        EXPECT_EQ(merged.counters[hits], want.cacheHits);
        EXPECT_EQ(merged.counters[cycles], want.simCycles);
        EXPECT_GT(want.simCycles, 0u);
        const HistogramSnapshot &lat = merged.histograms[latency];
        EXPECT_EQ(lat.count, want.requests);
        EXPECT_GT(lat.quantile(0.5), 0.0);
        EXPECT_LE(lat.quantile(0.5), lat.quantile(0.99));

        // ...and each is the exact sum of the shard snapshots, down
        // to the histogram buckets.
        std::uint64_t requests_summed = 0, hits_summed = 0;
        HistogramSnapshot lat_summed;
        for (MetricsSnapshot &part : parts) {
            requests_summed += part.counters[requests];
            hits_summed += part.counters[hits];
            lat_summed.merge(part.histograms[latency]);
        }
        EXPECT_EQ(requests_summed, want.requests);
        EXPECT_EQ(hits_summed, want.cacheHits);
        EXPECT_EQ(lat.bucketIndex, lat_summed.bucketIndex);
        EXPECT_EQ(lat.bucketCount, lat_summed.bucketCount);
        labelled_requests += want.requests;
    }
    // The breakdown adds up to the unlabelled totals.
    EXPECT_EQ(labelled_requests, merged.counters["serve_requests_total"]);
    EXPECT_EQ(labelled_requests,
              merged.histograms["serve_latency_micros"].count);

    // The fast series really did land on both shards, so the merge
    // combined distinct registries (not a trivial copy).
    const std::string fast_requests = seriesKey(
        "serve_engine_requests_total",
        engineLabels("linear", ProblemKind::MatVec, ExecMode::Fast));
    for (MetricsSnapshot &part : parts)
        EXPECT_GT(part.counters[fast_requests], 0u);
}

TEST(Cluster, ZeroCapacityCachesServeEveryRequestUncached)
{
    Cluster::Options opts;
    opts.shards = 2;
    opts.planCacheCapacityPerShard = 0;
    Cluster cluster(opts);

    Dense<Scalar> a = randomIntDense(6, 6, 1801);
    for (int i = 0; i < 4; ++i) {
        ServeRequest req = matVecRequest("linear", a, 1810 + 2 * i, 3);
        Vec<Scalar> gold = matVec(req.plan.a, req.plan.x, req.plan.b);
        ServeResponse resp = cluster.submit(std::move(req)).get();
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_FALSE(resp.cacheHit);
        EXPECT_EQ(maxAbsDiff(resp.result.y, gold), 0.0);
    }
    MetricsSnapshot snap = cluster.metricsSnapshot();
    EXPECT_EQ(snap.counters["plan_cache_hits_total"], 0u);
    EXPECT_EQ(snap.counters["plan_cache_misses_total"], 4u);
    for (std::size_t s = 0; s < cluster.shardCount(); ++s)
        EXPECT_EQ(cluster.shard(s).planCache().size(), 0u);
}

} // namespace
} // namespace sap
