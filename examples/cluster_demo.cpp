/**
 * @file
 * Cluster demo: a multi-array installation serving a bursty
 * multi-client workload through the async completion-callback API.
 *
 * Four shards sit behind consistent-hash routing; each client
 * thread fires requests with submitAsync(), and each request's
 * callback checks and counts its response on the shard worker that
 * served it — no client ever blocks on a future, and main only
 * waits for the last count. Clients reuse matrices across requests (the
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

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
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
    const int kRequestsPerClient = tiny ? 12 : 40;
    const int kMatrices = tiny ? 4 : 10; // shared matrix pool
    const Index s = tiny ? 8 : 16;       // problem size
    const Index w = 4;                   // array size

    // Declared before the cluster, so they outlive every callback
    // (the cluster's destructor drains its shards).
    std::mutex mu;
    std::condition_variable all_done;
    std::uint64_t received = 0;
    std::uint64_t bad = 0;

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

    // Runs on the shard worker that served the request. Notified
    // under the lock, so main cannot wake and return while the
    // last callback still holds the condition variable.
    auto onDone = [&](ServeResponse resp) {
        std::lock_guard<std::mutex> lock(mu);
        if (!resp.ok || !resp.crossCheckOk)
            ++bad;
        if (++received == total)
            all_done.notify_one();
    };

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
                cluster.submitAsync(std::move(req), onDone);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    std::uint64_t served = 0, served_bad = 0;
    {
        // A lost completion fails the demo instead of hanging it.
        std::unique_lock<std::mutex> lock(mu);
        all_done.wait_for(lock, std::chrono::seconds(60),
                          [&] { return received == total; });
        served = received;
        served_bad = bad;
    }

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
                (unsigned long long)served,
                (unsigned long long)failures,
                (unsigned long long)cross_check_failures);
    std::printf("aggregate plan cache: %llu hits / %llu misses "
                "(%.0f%% hit rate)\n",
                (unsigned long long)hits, (unsigned long long)misses,
                hits + misses ? 100.0 * hits / (hits + misses) : 0.0);

    bool ok = served == total && served_bad == 0 && failures == 0 &&
              cross_check_failures == 0 && hits > 0;
    std::printf("%s\n", ok ? "all requests served and verified"
                           : "FAILURES detected");
    return ok ? 0 : 1;
}
