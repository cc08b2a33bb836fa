/**
 * @file
 * Network-layer demo: a TCP front end serving all three problem
 * kinds to concurrent external clients over loopback.
 *
 * A NetServer (4 shards behind it) binds an ephemeral loopback
 * port; N client threads each open their own connection and hammer
 * it with pipelined batches that mix mat-vec, mat-mul, and
 * triangular solves. Every response is cross-checked client-side
 * against the host oracle — the wire carries IEEE-754 bit patterns,
 * so integer workloads must come back bit-identical. The report
 * prints per-kind wire throughput, a PING round-trip, and the
 * per-(engine, kind, mode) breakdown fetched with a METRICS frame
 * (NetServer::metricsSnapshot() over the wire).
 *
 * The demo exits nonzero on any transport failure, serving failure,
 * or oracle mismatch. Set SAP_EXAMPLE_TINY=1 to shrink the workload
 * (used by the ctest smoke target).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "engine_breakdown.hh"
#include "mat/generate.hh"
#include "net/client.hh"
#include "net/server.hh"

using namespace sap;

namespace {

/** Requests of all three kinds, seeds derived from (client, round). */
std::vector<ServeRequest>
makeBatch(int client, int round, Index s, Index w)
{
    std::uint64_t seed = 1000 + 100 * static_cast<std::uint64_t>(client)
                         + static_cast<std::uint64_t>(round);
    std::vector<ServeRequest> batch;

    ServeRequest mv;
    mv.engine = "linear";
    mv.plan = EnginePlan::matVec(
        randomIntDense(s, s, seed), randomIntVec(s, seed + 1),
        randomIntVec(s, seed + 2), w);
    batch.push_back(std::move(mv));

    ServeRequest mm;
    mm.engine = "hex";
    mm.plan = EnginePlan::matMul(
        randomIntDense(s, s, seed + 3), randomIntDense(s, s, seed + 4),
        randomIntDense(s, s, seed + 5), w);
    batch.push_back(std::move(mm));

    ServeRequest tri;
    tri.engine = "tri";
    // Unit-diagonal: every forward-substitution intermediate is an
    // exact integer, so the oracle comparison is bit-exact.
    tri.plan = EnginePlan::triSolve(
        randomUnitLowerTriangular(s, seed + 6),
        randomIntVec(s, seed + 7), w);
    batch.push_back(std::move(tri));

    return batch;
}

} // namespace

int
main()
{
    const bool tiny = std::getenv("SAP_EXAMPLE_TINY") != nullptr;

    const int kClients = tiny ? 2 : 4;
    const int kRounds = tiny ? 3 : 10; // batches per client
    const Index s = tiny ? 6 : 12;     // problem size
    const Index w = 3;                 // array size

    NetServer::Options opts;
    opts.cluster.shards = 4;
    opts.cluster.threadsPerShard = 2;
    NetServer server(opts);
    if (!server.start()) {
        std::printf("server failed to start: %s\n",
                    server.error().c_str());
        return 1;
    }
    std::printf("net server: 127.0.0.1:%u fronting %zu shards x %zu "
                "workers; %d clients x %d rounds x 3 kinds "
                "(%lldx%lld, w=%lld)\n",
                unsigned(server.port()), server.cluster().shardCount(),
                server.cluster().shard(0).threadCount(), kClients,
                kRounds, (long long)s, (long long)s, (long long)w);

    std::atomic<std::uint64_t> served[3] = {{0}, {0}, {0}};
    std::atomic<std::uint64_t> bad{0};
    const auto t0 = std::chrono::steady_clock::now();

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            NetClient client;
            if (!client.connect("127.0.0.1", server.port())) {
                std::printf("client %d: %s\n", c,
                            client.lastError().c_str());
                bad.fetch_add(1);
                return;
            }
            for (int round = 0; round < kRounds; ++round) {
                std::vector<ServeRequest> batch =
                    makeBatch(c, round, s, w);
                std::vector<NetClient::Result> results =
                    client.submitBatch(batch);
                for (std::size_t i = 0; i < results.size(); ++i) {
                    const NetClient::Result &r = results[i];
                    bool ok = r.transportOk && r.response.ok &&
                              NetClient::matchesOracle(batch[i],
                                                       r.response);
                    if (!ok) {
                        std::printf(
                            "client %d round %d req %zu FAILED: %s%s\n",
                            c, round, i, r.transportError.c_str(),
                            r.response.error.c_str());
                        bad.fetch_add(1);
                        continue;
                    }
                    served[static_cast<int>(batch[i].plan.kind)]
                        .fetch_add(1);
                }
            }
            if (!client.ping()) {
                std::printf("client %d ping failed: %s\n", c,
                            client.lastError().c_str());
                bad.fetch_add(1);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    std::printf("\nper-kind wire throughput:\n");
    const char *names[3] = {"matvec", "matmul", "trisolve"};
    std::uint64_t total = 0;
    for (int k = 0; k < 3; ++k) {
        std::uint64_t n = served[k].load();
        total += n;
        std::printf("  %-8s %6llu requests  %8.0f req/s\n", names[k],
                    (unsigned long long)n,
                    secs > 0 ? static_cast<double>(n) / secs : 0.0);
    }

    // METRICS round-trip: the merged snapshot, per-engine breakdown
    // included.
    NetClient monitor;
    MetricsSnapshot snap;
    bool metrics_ok = monitor.connect("127.0.0.1", server.port()) &&
                      monitor.metrics(&snap);
    if (!metrics_ok) {
        std::printf("metrics fetch failed: %s\n",
                    monitor.lastError().c_str());
        bad.fetch_add(1);
    } else {
        std::printf("\naggregated server metrics (%llu requests, "
                    "cache %llu hits / %llu misses):\n",
                    (unsigned long long)
                        snap.counters["serve_requests_total"],
                    (unsigned long long)
                        snap.counters["plan_cache_hits_total"],
                    (unsigned long long)
                        snap.counters["plan_cache_misses_total"]);
        printEngineBreakdown(snap);
    }

    const std::uint64_t expected = static_cast<std::uint64_t>(
        kClients * kRounds * 3);
    bool ok = bad.load() == 0 && total == expected && metrics_ok &&
              snap.counters["serve_requests_total"] == expected &&
              snap.counters["serve_failures_total"] == 0;
    std::printf("\n%s: %llu/%llu responses verified bit-identical to "
                "the host oracle over TCP\n",
                ok ? "all good" : "FAILURES detected",
                (unsigned long long)total,
                (unsigned long long)expected);
    return ok ? 0 : 1;
}
