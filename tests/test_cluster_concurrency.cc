/**
 * @file
 * Concurrency hammering of the cluster layer, built to run clean
 * under ThreadSanitizer (the CI tsan job runs this suite):
 * async-callback storms, many clients on one shared matrix, and
 * destruction draining with completions in flight.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "cluster/cluster.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"

namespace sap {
namespace {

ServeRequest
matVecRequest(const Dense<Scalar> &a, std::uint64_t seed, Index w)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(a, randomIntVec(a.cols(), seed),
                                  randomIntVec(a.rows(), seed + 1), w);
    return req;
}

TEST(ClusterConcurrency, AsyncCallbackStormWithConcurrentStats)
{
    const int kClients = 4;
    const int kPerClient = 20;

    Cluster::Options opts;
    opts.shards = 3;
    opts.threadsPerShard = 2;
    Cluster cluster(opts);

    std::vector<Dense<Scalar>> mats;
    for (int m = 0; m < 4; ++m)
        mats.push_back(randomIntDense(6, 6, 2300 + m));

    std::atomic<int> done{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kPerClient; ++i) {
                ServeRequest req =
                    matVecRequest(mats[(c + i) % mats.size()],
                                  2400 + 100 * c + 2 * i, 3);
                req.crossCheck = true;
                cluster.submitAsync(
                    std::move(req), [&](ServeResponse resp) {
                        if (!resp.ok || !resp.crossCheckOk)
                            failures.fetch_add(
                                1, std::memory_order_relaxed);
                        done.fetch_add(1,
                                       std::memory_order_release);
                    });
            }
        });
    }
    // Metrics snapshots race against the storm — must stay
    // consistent and data-race-free.
    const std::string labelled = seriesKey(
        "serve_engine_requests_total",
        engineLabels("linear", ProblemKind::MatVec, ExecMode::Simulate));
    std::thread reader([&] {
        for (int i = 0; i < 50; ++i) {
            MetricsSnapshot s = cluster.metricsSnapshot();
            EXPECT_LE(s.counters["serve_requests_total"],
                      static_cast<std::uint64_t>(kClients) *
                          kPerClient);
            EXPECT_LE(s.counters[labelled],
                      static_cast<std::uint64_t>(kClients) *
                          kPerClient);
        }
    });
    for (std::thread &t : clients)
        t.join();
    reader.join();
    while (done.load(std::memory_order_acquire) <
           kClients * kPerClient)
        std::this_thread::yield();

    EXPECT_EQ(failures.load(), 0);
    MetricsSnapshot snap = cluster.metricsSnapshot();
    EXPECT_EQ(snap.counters["serve_requests_total"],
              static_cast<std::uint64_t>(kClients) * kPerClient);
    EXPECT_EQ(snap.counters[labelled],
              static_cast<std::uint64_t>(kClients) * kPerClient);
}

TEST(ClusterConcurrency, MixedBatchAndSingleSubmission)
{
    Cluster::Options opts;
    opts.shards = 2;
    opts.threadsPerShard = 2;
    Cluster cluster(opts);

    Dense<Scalar> shared = randomIntDense(8, 8, 2601);
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
            for (int round = 0; round < 4; ++round) {
                std::vector<std::future<ServeResponse>> futures;
                for (int i = 0; i < 5; ++i)
                    futures.push_back(cluster.submit(matVecRequest(
                        shared, 2700 + 100 * c + 10 * round + i, 4)));
                futures.push_back(cluster.submit(matVecRequest(
                    shared, 2800 + 100 * c + round, 4)));
                for (auto &f : futures)
                    if (!f.get().ok)
                        failures.fetch_add(1,
                                           std::memory_order_relaxed);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    MetricsSnapshot snap = cluster.metricsSnapshot();
    EXPECT_EQ(snap.counters["serve_requests_total"], 3u * 4u * 6u);
    // One shared matrix: only its home shard ever built the plan.
    // Two cold workers can race the first build (each counts a
    // miss; the first insert wins), so the miss count is bounded by
    // the shard's worker count, not exactly 1.
    EXPECT_GE(snap.counters["plan_cache_misses_total"], 1u);
    EXPECT_LE(snap.counters["plan_cache_misses_total"], 2u);
    std::size_t resident = 0;
    for (std::size_t s = 0; s < cluster.shardCount(); ++s)
        resident += cluster.shard(s).planCache().size();
    EXPECT_EQ(resident, 1u);
}

TEST(ClusterConcurrency, DestructionDrainsInFlightCompletions)
{
    const int kRequests = 30;
    std::mutex mu;
    std::set<std::uint64_t> tags;
    std::atomic<int> failures{0};
    {
        Cluster::Options opts;
        opts.shards = 2;
        opts.threadsPerShard = 1;
        Cluster cluster(opts);
        Dense<Scalar> a = randomIntDense(8, 8, 2901);
        for (int i = 0; i < kRequests; ++i) {
            const auto tag = static_cast<std::uint64_t>(i);
            cluster.submitAsync(
                matVecRequest(a, 2910 + 2 * i, 4),
                [&, tag](ServeResponse resp) {
                    if (!resp.ok)
                        failures.fetch_add(1, std::memory_order_relaxed);
                    std::lock_guard<std::mutex> lock(mu);
                    tags.insert(tag);
                });
        }
        // Destroyed with most requests still queued: every accepted
        // callback fires before the destructor returns.
    }
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(tags.size(), static_cast<std::size_t>(kRequests));
}

} // namespace
} // namespace sap
