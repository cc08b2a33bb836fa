/**
 * @file
 * PERF: throughput of the sharded cluster layer (engineering data,
 * not a paper artifact).
 *
 * Two quantities are measured:
 *
 *  1. Shard scaling: consistent-hash routing pins each matrix to one
 *     shard, so aggregate plan-cache capacity grows with the shard
 *     count and each shard's cache holds only its own partition of
 *     the key space. A repeated-matrix workload whose distinct-
 *     matrix count exceeds one shard's cache capacity therefore
 *     thrashes a 1-shard installation (every request pays the full
 *     dense→band rebuild) but runs nearly all-hits on 4 shards —
 *     cache economics, which hold even on a single-core host where
 *     thread parallelism cannot.
 *
 *  2. Execution mode: fast semantics replay against cycle
 *     simulation through the same warm cluster path.
 *
 * The print section reports both and emits BENCH_cluster_throughput
 * .json; google-benchmark timers cover the submit path for tracked
 * history.
 */

#include "bench/bench_common.hh"

#include <chrono>
#include <thread>

#include "cluster/cluster.hh"
#include "mat/generate.hh"

namespace sap {
namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** The shard-scaling workload: K distinct (A, B) mat-mul pairs. */
/** The cluster-wide plan-cache hit rate, read from its registry. */
double
hitRate(const Cluster &cluster)
{
    MetricsSnapshot snap = cluster.metricsSnapshot();
    PlanCacheStats cache;
    cache.hits = snap.counters["plan_cache_hits_total"];
    cache.misses = snap.counters["plan_cache_misses_total"];
    return cache.hitRate();
}

struct HexWorkload
{
    Index s = 12;
    Index w = 2;
    std::vector<Dense<Scalar>> as;
    std::vector<Dense<Scalar>> bs;
};

HexWorkload
makeHexWorkload(int matrices)
{
    HexWorkload wl;
    for (int k = 0; k < matrices; ++k) {
        wl.as.push_back(randomIntDense(wl.s, wl.s, 1000 + 2 * k));
        wl.bs.push_back(randomIntDense(wl.s, wl.s, 1001 + 2 * k));
    }
    return wl;
}

ServeRequest
hexRequest(const HexWorkload &wl, int matrix, std::uint64_t seed,
           ExecMode mode = ExecMode::Simulate)
{
    ServeRequest req;
    req.engine = "hex";
    req.plan = EnginePlan::matMul(
        wl.as[matrix], wl.bs[matrix],
        randomIntDense(wl.s, wl.s, seed), wl.w);
    req.plan.mode = mode;
    return req;
}

/**
 * Fire @p clients threads, each cycling the workload's matrices for
 * @p requests_per_client requests against @p cluster. Returns wall
 * seconds once every future resolved.
 */
double
hammer(Cluster &cluster, const HexWorkload &wl, int clients,
       int requests_per_client, ExecMode mode = ExecMode::Simulate)
{
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            std::vector<std::future<ServeResponse>> futures;
            const int matrices = static_cast<int>(wl.as.size());
            for (int i = 0; i < requests_per_client; ++i) {
                // Every client cycles all matrices (phase-shifted):
                // the cyclic access pattern LRU caches hate.
                int m = (c + i) % matrices;
                futures.push_back(cluster.submit(hexRequest(
                    wl, m,
                    static_cast<std::uint64_t>(5000 + 100 * c + i),
                    mode)));
            }
            for (auto &f : futures)
                SAP_ASSERT(f.get().ok, "cluster bench request failed");
        });
    }
    for (std::thread &t : threads)
        t.join();
    return secondsSince(t0);
}

/**
 * The headline table: 1/2/4 shards against the same repeated-matrix
 * stream from 8 client threads. Per-shard cache capacity (12) is
 * below the distinct-matrix count (16), so one shard thrashes while
 * four hold their partitions.
 */
void
printShardScaling(std::vector<BenchJsonEntry> *json)
{
    const int kClients = 8;
    const int kMatrices = 16;
    const int kRequestsPerClient = 32;
    const std::size_t kCachePerShard = 12;

    printHeader("CLUSTER-1",
                "shard scaling: 16 repeated matrices, 8 client "
                "threads, plan-cache capacity 12/shard");
    std::printf("(distinct matrices exceed one shard's cache: 1 "
                "shard rebuilds per request, 4 shards serve from "
                "cache)\n");
    std::printf("%-8s %10s %12s %10s %10s %9s\n", "shardsxw",
                "requests", "wall", "req/s", "hit rate", "speedup");

    HexWorkload wl = makeHexWorkload(kMatrices);
    double base_req_per_s = 0;
    double equal_workers_req_per_s = 0;
    double speedup_4v1 = 0;

    // The last configuration is the equal-total-workers control:
    // 1 shard with all 8 workers has the same thread parallelism as
    // 4x2 but one shard's cache, so the 4x2-vs-1x8 ratio isolates
    // the cache-partitioning effect from plain worker scaling on
    // multi-core hosts.
    struct Config
    {
        std::size_t shards;
        std::size_t threads_per_shard;
    };
    for (const Config &c : {Config{1, 2}, Config{2, 2}, Config{4, 2},
                            Config{1, 8}}) {
        Cluster::Options opts;
        opts.shards = c.shards;
        opts.threadsPerShard = c.threads_per_shard;
        opts.planCacheCapacityPerShard = kCachePerShard;
        Cluster cluster(opts);

        double wall =
            hammer(cluster, wl, kClients, kRequestsPerClient);
        const double hit_rate = hitRate(cluster);
        double total =
            static_cast<double>(kClients * kRequestsPerClient);
        double req_per_s = total / wall;
        if (c.shards == 1 && c.threads_per_shard == 2)
            base_req_per_s = req_per_s;
        if (c.shards == 1 && c.threads_per_shard == 8)
            equal_workers_req_per_s = req_per_s;
        double speedup = req_per_s / base_req_per_s;
        if (c.shards == 4)
            speedup_4v1 = speedup;
        char label[16];
        std::snprintf(label, sizeof(label), "%zux%zu", c.shards,
                      c.threads_per_shard);
        std::printf("%-8s %10.0f %10.2fms %10.0f %9.0f%% %8.2fx\n",
                    label, total, wall * 1e3, req_per_s,
                    hit_rate * 100.0, speedup);
        json->push_back(
            {"shard_scaling",
             {{"shards", std::to_string(c.shards)},
              {"threads_per_shard",
               std::to_string(c.threads_per_shard)},
              {"clients", std::to_string(kClients)},
              {"matrices", std::to_string(kMatrices)},
              {"cache_per_shard", std::to_string(kCachePerShard)},
              {"engine", "hex"}},
             {{"req_per_s", req_per_s},
              {"hit_rate", hit_rate},
              {"speedup_vs_1x2", speedup}}});
    }
    std::printf("4 shards vs 1 shard: %.2fx\n", speedup_4v1);
    std::printf("4x2 shards vs 1x8 equal-workers control: %.2fx "
                "(cache partitioning alone)\n",
                speedup_4v1 * base_req_per_s /
                    equal_workers_req_per_s);
}

/**
 * Fast vs simulate through the full cluster path: the same matrix
 * stream against a warm plan cache, so routing, caching, and thread
 * hand-off cost is identical and the delta is purely the execution
 * path — cycle-level stepping vs the bit-identical semantics replay.
 */
void
printModeAxis(std::vector<BenchJsonEntry> *json)
{
    const int kClients = 4;
    const int kMatrices = 16;
    const int kRequestsPerClient = 32;

    printHeader("CLUSTER-3",
                "execution mode: fast semantics replay vs cycle "
                "simulation through the cluster (warm cache)");
    std::printf("%-10s %12s %10s %9s\n", "mode", "wall", "req/s",
                "hit rate");

    HexWorkload wl = makeHexWorkload(kMatrices);
    double wall_by_mode[2] = {0, 0};
    for (int m = 0; m < 2; ++m) {
        ExecMode mode = m == 0 ? ExecMode::Simulate : ExecMode::Fast;
        Cluster::Options opts;
        opts.shards = 2;
        opts.threadsPerShard = 2;
        opts.planCacheCapacityPerShard = kMatrices;
        Cluster cluster(opts);

        // Warm pass: land every matrix's plan in its shard's cache
        // so the timed pass isolates the execution path.
        {
            std::vector<std::future<ServeResponse>> warm;
            for (int k = 0; k < kMatrices; ++k)
                warm.push_back(cluster.submit(hexRequest(
                    wl, k, static_cast<std::uint64_t>(4000 + k),
                    mode)));
            for (auto &f : warm)
                SAP_ASSERT(f.get().ok, "cluster warm-up failed");
        }

        double wall =
            hammer(cluster, wl, kClients, kRequestsPerClient, mode);
        wall_by_mode[m] = wall;
        const double hit_rate = hitRate(cluster);
        double total =
            static_cast<double>(kClients * kRequestsPerClient);
        double req_per_s = total / wall;
        std::printf("%-10s %10.2fms %10.0f %8.0f%%\n",
                    execModeName(mode).c_str(), wall * 1e3, req_per_s,
                    hit_rate * 100.0);
        json->push_back({"mode_axis",
                         {{"mode", execModeName(mode)},
                          {"engine", "hex"},
                          {"clients", std::to_string(kClients)},
                          {"matrices", std::to_string(kMatrices)}},
                         {{"req_per_s", req_per_s},
                          {"hit_rate", hit_rate}}});
    }
    std::printf("fast vs simulate: %.2fx\n",
                wall_by_mode[0] / wall_by_mode[1]);
}

void
print()
{
    std::vector<BenchJsonEntry> json;
    printShardScaling(&json);
    printModeAxis(&json);
    writeBenchJson("cluster_throughput", json);
}

//---------------------------------------------------------------------
// Tracked google-benchmark timers.
//---------------------------------------------------------------------

void
BM_ClusterSubmitRepeatedMatrices(benchmark::State &state)
{
    const std::size_t shards =
        static_cast<std::size_t>(state.range(0));
    const int kMatrices = 16;
    HexWorkload wl = makeHexWorkload(kMatrices);

    Cluster::Options opts;
    opts.shards = shards;
    opts.threadsPerShard = 2;
    opts.planCacheCapacityPerShard = 12;
    Cluster cluster(opts);

    std::size_t served = 0;
    int i = 0;
    for (auto _ : state) {
        std::vector<std::future<ServeResponse>> futures;
        for (int m = 0; m < kMatrices; ++m)
            futures.push_back(cluster.submit(hexRequest(
                wl, (i + m) % kMatrices,
                static_cast<std::uint64_t>(9000 + i + m))));
        for (auto &f : futures)
            served += f.get().ok ? 1 : 0;
        ++i;
    }
    state.counters["req/s"] = benchmark::Counter(
        static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClusterSubmitRepeatedMatrices)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);


} // namespace
} // namespace sap

SAP_BENCH_MAIN(sap::print)
