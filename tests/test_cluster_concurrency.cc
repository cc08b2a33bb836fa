/**
 * @file
 * Concurrency hammering of the cluster layer, built to run clean
 * under ThreadSanitizer (the CI tsan job runs this suite): many
 * producers and pollers on one completion queue, async-callback
 * storms, many clients on one shared matrix, and destruction
 * draining with completions in flight.
 */

#include <gtest/gtest.h>

#include <atomic>
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

TEST(ClusterConcurrency, CompletionQueueManyProducersManyPollers)
{
    const int kProducers = 4;
    const int kPollers = 3;
    const int kPerProducer = 25;
    const std::uint64_t kTotal =
        static_cast<std::uint64_t>(kProducers) * kPerProducer;

    // Queue before cluster: the cluster (whose workers push) is
    // destroyed first, per the queue's lifetime contract.
    CompletionQueue queue;
    Cluster::Options opts;
    opts.shards = 4;
    opts.threadsPerShard = 2;
    Cluster cluster(opts);

    // A small pool of matrices shared by all producers, so shards
    // see concurrent same-matrix and cross-matrix traffic.
    std::vector<Dense<Scalar>> mats;
    for (int m = 0; m < 6; ++m)
        mats.push_back(randomIntDense(8, 8, 2000 + m));

    std::atomic<std::uint64_t> received{0};
    std::atomic<std::uint64_t> ok{0};
    std::vector<std::thread> pollers;
    for (int p = 0; p < kPollers; ++p) {
        pollers.emplace_back([&] {
            Completion c;
            while (queue.next(&c)) {
                if (c.response.ok)
                    ok.fetch_add(1, std::memory_order_relaxed);
                if (received.fetch_add(1,
                                       std::memory_order_acq_rel) +
                        1 ==
                    kTotal)
                    queue.shutdown(); // everyone drains out
            }
        });
    }

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                std::uint64_t tag = static_cast<std::uint64_t>(
                    p * kPerProducer + i);
                cluster.submitToQueue(
                    matVecRequest(mats[(p + i) % mats.size()],
                                  2100 + 10 * tag, 4),
                    &queue, tag);
            }
        });
    }
    for (std::thread &t : producers)
        t.join();
    for (std::thread &t : pollers)
        t.join();

    EXPECT_EQ(received.load(), kTotal);
    EXPECT_EQ(ok.load(), kTotal);
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(cluster.metricsSnapshot().counters["serve_requests_total"],
              kTotal);
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
    CompletionQueue queue;
    const int kRequests = 30;
    {
        Cluster::Options opts;
        opts.shards = 2;
        opts.threadsPerShard = 1;
        Cluster cluster(opts);
        Dense<Scalar> a = randomIntDense(8, 8, 2901);
        for (int i = 0; i < kRequests; ++i)
            cluster.submitToQueue(
                matVecRequest(a, 2910 + 2 * i, 4), &queue,
                static_cast<std::uint64_t>(i));
        // Destroyed with most requests still queued.
    }
    std::set<std::uint64_t> tags;
    Completion c;
    while (queue.tryNext(&c)) {
        EXPECT_TRUE(c.response.ok) << c.response.error;
        tags.insert(c.tag);
    }
    EXPECT_EQ(tags.size(), static_cast<std::size_t>(kRequests));
}

} // namespace
} // namespace sap
