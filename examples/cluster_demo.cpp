/**
 * @file
 * Cluster demo: a multi-array installation serving a bursty
 * multi-client workload through the async completion-queue API.
 *
 * Four shards sit behind consistent-hash routing; each client
 * thread fires tagged requests with submitToQueue() and a pool of
 * poller threads drains the completion queue — no client ever
 * blocks on a future. Clients reuse matrices across requests (the
 * realistic serving pattern), so each matrix's plan is built once,
 * on the one shard that owns it, and every repeat streams through
 * that shard's cache.
 *
 * Every request is cross-checked against the host oracle; the demo
 * exits nonzero on any mismatch, serving failure, or lost
 * completion. The report prints the per-shard request counts and
 * cache behavior — the pinning is visible as disjoint per-shard
 * plan caches — and the per-engine breakdown of the merged metrics.
 *
 * Set SAP_EXAMPLE_TINY=1 to shrink the workload (used by the ctest
 * smoke target).
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "cluster/cluster.hh"
#include "engine_breakdown.hh"
#include "mat/generate.hh"

using namespace sap;

int
main()
{
    const bool tiny = std::getenv("SAP_EXAMPLE_TINY") != nullptr;

    const int kClients = tiny ? 2 : 4;
    const int kPollers = 2;
    const int kRequestsPerClient = tiny ? 12 : 40;
    const int kMatrices = tiny ? 4 : 10; // shared matrix pool
    const Index s = tiny ? 8 : 16;       // problem size
    const Index w = 4;                   // array size

    // Queue declared before the cluster, so the cluster (whose
    // workers push completions) is destroyed first.
    CompletionQueue queue;

    Cluster::Options opts;
    opts.shards = 4;
    opts.threadsPerShard = 2;
    opts.planCacheCapacityPerShard = 8;
    Cluster cluster(opts);

    const std::uint64_t total = static_cast<std::uint64_t>(
        kClients * kRequestsPerClient);
    std::printf("cluster: %zu shards x %zu workers, serving %d "
                "clients x %d requests over %d shared matrices "
                "(%lldx%lld, w=%lld)\n",
                cluster.shardCount(), cluster.shard(0).threadCount(),
                kClients, kRequestsPerClient, kMatrices, (long long)s,
                (long long)s, (long long)w);

    std::vector<Dense<Scalar>> mats;
    for (int m = 0; m < kMatrices; ++m)
        mats.push_back(randomIntDense(s, s, 1 + m));

    // Pollers drain completions while producers are still
    // submitting: the event-loop client shape.
    std::atomic<std::uint64_t> received{0};
    std::atomic<std::uint64_t> bad{0};
    std::vector<std::thread> pollers;
    for (int p = 0; p < kPollers; ++p) {
        pollers.emplace_back([&] {
            Completion c;
            while (queue.next(&c)) {
                if (!c.response.ok || !c.response.crossCheckOk)
                    bad.fetch_add(1, std::memory_order_relaxed);
                if (received.fetch_add(
                        1, std::memory_order_acq_rel) + 1 == total)
                    queue.shutdown();
            }
        });
    }

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kRequestsPerClient; ++i) {
                const Dense<Scalar> &a = mats[(c + i) % kMatrices];
                std::uint64_t seed =
                    1000 + 100 * static_cast<std::uint64_t>(c) + i;
                ServeRequest req;
                req.engine = "linear";
                req.crossCheck = true; // golden-model check
                req.plan = EnginePlan::matVec(
                    a, randomIntVec(s, seed),
                    randomIntVec(s, seed + 1), w);
                cluster.submitToQueue(
                    std::move(req), &queue,
                    static_cast<std::uint64_t>(
                        c * kRequestsPerClient + i));
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (std::thread &t : pollers)
        t.join();

    std::printf("\nper-shard serving metrics:\n");
    std::printf("%-6s %8s %8s %8s %10s %10s\n", "shard", "reqs",
                "hits", "misses", "plans", "p99(us)");
    for (std::size_t sh = 0; sh < cluster.shardCount(); ++sh) {
        MetricsSnapshot g = cluster.shard(sh).metricsSnapshot();
        std::printf(
            "%-6zu %8llu %8llu %8llu %10zu %10.1f\n", sh,
            (unsigned long long)g.counters["serve_requests_total"],
            (unsigned long long)g.counters["plan_cache_hits_total"],
            (unsigned long long)g.counters["plan_cache_misses_total"],
            cluster.shard(sh).planCache().size(),
            g.histograms["serve_latency_micros"].quantile(0.99));
    }

    MetricsSnapshot snap = cluster.metricsSnapshot();
    std::printf("\nper-(engine, kind, mode) serving metrics:\n");
    printEngineBreakdown(snap);
    const std::uint64_t failures = snap.counters["serve_failures_total"];
    const std::uint64_t cross_check_failures =
        snap.counters["serve_cross_check_failures_total"];
    const std::uint64_t hits = snap.counters["plan_cache_hits_total"];
    const std::uint64_t misses = snap.counters["plan_cache_misses_total"];
    std::printf("\ntotal: %llu async requests, %llu failures, %llu "
                "cross-check failures\n",
                (unsigned long long)received.load(),
                (unsigned long long)failures,
                (unsigned long long)cross_check_failures);
    std::printf("aggregate plan cache: %llu hits / %llu misses "
                "(%.0f%% hit rate)\n",
                (unsigned long long)hits, (unsigned long long)misses,
                hits + misses ? 100.0 * hits / (hits + misses) : 0.0);

    bool ok = received.load() == total && bad.load() == 0 &&
              failures == 0 && cross_check_failures == 0 && hits > 0;
    std::printf("%s\n", ok ? "all requests served and verified"
                           : "FAILURES detected");
    return ok ? 0 : 1;
}
