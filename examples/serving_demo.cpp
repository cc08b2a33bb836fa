/**
 * @file
 * Serving demo: a bursty multi-client workload across every
 * registered topology (all three problem kinds) through the serve/
 * layer.
 *
 * Several client threads fire bursts of requests at one Shard.
 * Within a burst a client reuses its own matrix (the realistic
 * serving pattern: a client's model/filter matrix is fixed while
 * its inputs stream), so after the first request of a burst every
 * request rides the cached DBT-transformed plan. Between bursts
 * clients switch matrices, churning the LRU plan cache.
 *
 * Every request is cross-checked against the host oracle; the demo
 * exits nonzero on any mismatch or serving failure. The final
 * report prints the per-(engine, kind, mode) request counts, cache
 * hits, and latency percentiles from the shard's metrics registry.
 *
 * Set SAP_EXAMPLE_TINY=1 to shrink the workload (used by the ctest
 * smoke target).
 */

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "engine/registry.hh"
#include "engine_breakdown.hh"
#include "mat/generate.hh"
#include "serve/shard.hh"

using namespace sap;

int
main()
{
    const bool tiny = std::getenv("SAP_EXAMPLE_TINY") != nullptr;

    const int kClients = tiny ? 2 : 4;
    const int kBursts = tiny ? 2 : 4;
    // Long enough that each registered topology recurs within a
    // burst — the repeats are what the plan cache amortizes.
    const int kRequestsPerBurst = tiny ? 10 : 15;
    const Index s = tiny ? 8 : 16; // problem size (s×s matrices)
    const Index w = 4;             // array size

    Shard::Options opts;
    opts.threads = 4;
    opts.planCacheCapacity = 16;
    Shard shard(opts);

    // Engine name -> problem kind, resolved once; requests only
    // need the kind to pick their operand shape.
    std::vector<std::pair<std::string, ProblemKind>> engines;
    for (const std::string &name : engineNames())
        engines.emplace_back(name, makeEngine(name)->kind());
    std::printf("serving %d clients × %d bursts × %d requests over "
                "%zu topologies (%lldx%lld, w=%lld)\n",
                kClients, kBursts, kRequestsPerBurst,
                engines.size(), (long long)s, (long long)s,
                (long long)w);

    std::vector<std::thread> clients;
    std::vector<int> client_failures(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int burst = 0; burst < kBursts; ++burst) {
                // One matrix (pair) per burst: request 1 builds the
                // plan, the rest hit the cache.
                std::uint64_t mat_seed =
                    1 + 100 * static_cast<std::uint64_t>(c) + burst;
                Dense<Scalar> a = randomIntDense(s, s, mat_seed);
                Dense<Scalar> bm = randomIntDense(s, s, mat_seed + 50);
                // Unit diagonal keeps the trisolve cross-check
                // exact in double (the divisions stay integral).
                Dense<Scalar> lt =
                    randomUnitLowerTriangular(s, mat_seed + 70);

                std::vector<std::future<ServeResponse>> burst_futures;
                for (int i = 0; i < kRequestsPerBurst; ++i) {
                    // Round-robin over the topologies: a mixed
                    // stream, not one queue per engine.
                    const auto &[name, kind] =
                        engines[(burst + i) % engines.size()];
                    std::uint64_t seed = 1000 + 10 * i + c;
                    ServeRequest req;
                    req.engine = name;
                    req.crossCheck = true; // golden-model check
                    req.plan =
                        kind == ProblemKind::MatVec
                            ? EnginePlan::matVec(
                                  a, randomIntVec(s, seed),
                                  randomIntVec(s, seed + 1), w)
                            : kind == ProblemKind::MatMul
                                ? EnginePlan::matMul(
                                      a, bm,
                                      randomIntDense(s, s, seed + 2),
                                      w)
                                : EnginePlan::triSolve(
                                      lt, randomIntVec(s, seed + 3),
                                      w);
                    burst_futures.push_back(
                        shard.submit(std::move(req)));
                }
                for (auto &f : burst_futures) {
                    ServeResponse resp = f.get();
                    if (!resp.ok || !resp.crossCheckOk)
                        ++client_failures[c];
                }
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    int failures = 0;
    for (int c = 0; c < kClients; ++c)
        failures += client_failures[c];

    MetricsSnapshot snap = shard.metricsSnapshot();
    std::printf("\nper-(engine, kind, mode) serving metrics:\n");
    printEngineBreakdown(snap);

    const std::uint64_t requests = snap.counters["serve_requests_total"];
    const std::uint64_t served_failures =
        snap.counters["serve_failures_total"];
    const std::uint64_t cross_check_failures =
        snap.counters["serve_cross_check_failures_total"];
    const std::uint64_t hits = snap.counters["plan_cache_hits_total"];
    const std::uint64_t misses = snap.counters["plan_cache_misses_total"];
    std::printf("\ntotal: %llu requests, %llu failures, %llu "
                "cross-check failures\n",
                (unsigned long long)requests,
                (unsigned long long)served_failures,
                (unsigned long long)cross_check_failures);
    std::printf("plan cache: %llu hits / %llu misses (%.0f%% hit "
                "rate), %llu evictions\n",
                (unsigned long long)hits, (unsigned long long)misses,
                hits + misses ? 100.0 * hits / (hits + misses) : 0.0,
                (unsigned long long)
                    snap.counters["plan_cache_evictions_total"]);
    const HistogramSnapshot &lat = snap.histograms["serve_latency_micros"];
    std::printf("latency: p50 %.1fus p99 %.1fus max %.1fus\n",
                lat.quantile(0.5), lat.quantile(0.99), lat.max);

    bool ok = failures == 0 && served_failures == 0 &&
              cross_check_failures == 0 && hits > 0;
    std::printf("%s\n", ok ? "all requests served and verified"
                           : "FAILURES detected");
    return ok ? 0 : 1;
}
