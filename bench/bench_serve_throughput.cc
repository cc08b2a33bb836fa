/**
 * @file
 * PERF: throughput of the serving layer (engineering data, not a
 * paper artifact).
 *
 * Two claims are measured:
 *
 *  1. Amortization: for repeated-matrix workloads, one prepare()
 *     followed by one runPrepared() per request — the path a shard
 *     runs on plan-cache hits — beats per-request
 *     SystolicEngine::run() (which rebuilds the DBT transform every
 *     time).
 *  2. Scaling: a mixed-topology request stream through one Shard
 *     speeds up with worker threads (engines are stateless, so
 *     requests parallelize; scaling flattens at the host's core
 *     count).
 *
 * The print section reports both directly; google-benchmark timers
 * cover the same paths for tracked history.
 */

#include "bench/bench_common.hh"

#include <chrono>

#include "mat/generate.hh"
#include "serve/shard.hh"

namespace sap {
namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One repeated-matrix workload: R (x, b) pairs against one A. */
struct MatVecWorkload
{
    Dense<Scalar> a;
    Index w;
    std::vector<EngineInputs> inputs;
};

MatVecWorkload
makeMatVecWorkload(Index s, Index w, int requests)
{
    MatVecWorkload wl;
    wl.a = randomIntDense(s, s, 1);
    wl.w = w;
    for (int i = 0; i < requests; ++i)
        wl.inputs.push_back(EngineInputs::matVec(
            randomIntVec(s, 100 + 2 * i), randomIntVec(s, 101 + 2 * i)));
    return wl;
}

/**
 * Cached-vs-uncached comparison on one engine. Uncached issues each
 * request through run() (per-request dense→band rebuild); cached
 * streams the same requests through one prepared plan.
 */
void
printAmortization(std::vector<BenchJsonEntry> *json)
{
    printHeader("SERVE-1", "plan amortization: one prepare + runPrepared "
                           "vs per-request run (repeated matrix)");
    std::printf("%-10s %-22s %10s %10s %8s\n", "engine", "workload",
                "uncached", "cached", "speedup");

    struct Case
    {
        const char *engine;
        Index s, w;
        int requests;
    };
    for (const Case &c : {Case{"linear", 64, 8, 24},
                          Case{"overlapped", 64, 8, 24},
                          Case{"hex", 12, 2, 12},
                          Case{"spiral", 12, 3, 12}}) {
        auto engine = requireEngine(c.engine);
        std::vector<EngineInputs> inputs;
        EnginePlan plan = engine->kind() == ProblemKind::MatVec
            ? EnginePlan::matVec(randomIntDense(c.s, c.s, 1),
                                 Vec<Scalar>(c.s), Vec<Scalar>(c.s),
                                 c.w)
            : EnginePlan::matMul(randomIntDense(c.s, c.s, 1),
                                 randomIntDense(c.s, c.s, 2), c.w);
        for (int i = 0; i < c.requests; ++i) {
            if (engine->kind() == ProblemKind::MatVec)
                inputs.push_back(EngineInputs::matVec(
                    randomIntVec(c.s, 100 + 2 * i),
                    randomIntVec(c.s, 101 + 2 * i)));
            else
                inputs.push_back(EngineInputs::matMul(
                    randomIntDense(c.s, c.s, 100 + i)));
        }

        auto t0 = std::chrono::steady_clock::now();
        for (const EngineInputs &in : inputs) {
            EnginePlan request = plan;
            if (engine->kind() == ProblemKind::MatVec) {
                request.x = in.x;
                request.b = in.b;
            } else {
                request.e = in.e;
            }
            EngineRunResult r = engine->run(request);
            benchmark::DoNotOptimize(r);
        }
        double uncached = secondsSince(t0);

        t0 = std::chrono::steady_clock::now();
        std::shared_ptr<const PreparedPlan> prepared =
            engine->prepare(plan);
        for (const EngineInputs &in : inputs) {
            EngineRunResult r = engine->runPrepared(*prepared, in);
            benchmark::DoNotOptimize(r);
        }
        double cached = secondsSince(t0);

        char workload[64];
        std::snprintf(workload, sizeof(workload),
                      "%lldx%lld w=%lld R=%d", (long long)c.s,
                      (long long)c.s, (long long)c.w, c.requests);
        std::printf("%-10s %-22s %8.2fms %8.2fms %7.2fx\n",
                    c.engine, workload, uncached * 1e3, cached * 1e3,
                    uncached / cached);
        json->push_back(
            {"amortization",
             {{"engine", c.engine},
              {"s", std::to_string(c.s)},
              {"w", std::to_string(c.w)},
              {"requests", std::to_string(c.requests)}},
             {{"uncached_ms", uncached * 1e3},
              {"cached_ms", cached * 1e3},
              {"speedup", uncached / cached}}});
    }
}

/**
 * Fast (semantics replay) vs simulate on cached plans: both paths
 * stream the same requests through one prepared plan, so the only
 * difference is cycle-level stepping vs the blocked replay — with
 * results bit-identical by construction (test_semantics proves it;
 * here we measure what that equivalence buys).
 */
void
printModeComparison(std::vector<BenchJsonEntry> *json)
{
    printHeader("SERVE-3", "execution mode: fast semantics replay vs "
                           "cycle simulation (cached plans)");
    std::printf("%-10s %-22s %10s %10s %8s\n", "engine", "workload",
                "simulate", "fast", "speedup");

    struct Case
    {
        const char *engine;
        Index s, w;
        int requests;
    };
    for (const Case &c : {Case{"linear", 256, 64, 16},
                          Case{"overlapped", 256, 16, 16},
                          Case{"hex", 36, 6, 6},
                          Case{"mesh", 64, 8, 8},
                          Case{"tri", 256, 32, 12}}) {
        auto engine = requireEngine(c.engine);
        EnginePlan plan;
        std::vector<EngineInputs> inputs;
        switch (engine->kind()) {
        case ProblemKind::MatVec:
            plan = EnginePlan::matVec(randomIntDense(c.s, c.s, 1),
                                      Vec<Scalar>(c.s),
                                      Vec<Scalar>(c.s), c.w);
            for (int i = 0; i < c.requests; ++i)
                inputs.push_back(EngineInputs::matVec(
                    randomIntVec(c.s, 300 + 2 * i),
                    randomIntVec(c.s, 301 + 2 * i)));
            break;
        case ProblemKind::MatMul:
            plan = EnginePlan::matMul(randomIntDense(c.s, c.s, 1),
                                      randomIntDense(c.s, c.s, 2),
                                      c.w);
            for (int i = 0; i < c.requests; ++i)
                inputs.push_back(EngineInputs::matMul(
                    randomIntDense(c.s, c.s, 300 + i)));
            break;
        case ProblemKind::TriSolve:
            plan = EnginePlan::triSolve(
                randomUnitLowerTriangular(c.s, 1), Vec<Scalar>(c.s),
                c.w);
            for (int i = 0; i < c.requests; ++i)
                inputs.push_back(
                    EngineInputs::triSolve(randomIntVec(c.s, 300 + i)));
            break;
        }
        auto prepared = engine->prepare(plan);

        double wall[2] = {0, 0};
        for (int m = 0; m < 2; ++m) {
            ExecMode mode =
                m == 0 ? ExecMode::Simulate : ExecMode::Fast;
            {
                // Untimed warm-up: touch the path once so one-time
                // allocation noise does not land on either side.
                EngineInputs in = inputs.front();
                in.mode = mode;
                EngineRunResult r =
                    engine->runPrepared(*prepared, in);
                benchmark::DoNotOptimize(r);
            }
            auto t0 = std::chrono::steady_clock::now();
            for (const EngineInputs &base : inputs) {
                EngineInputs in = base;
                in.mode = mode;
                EngineRunResult r =
                    engine->runPrepared(*prepared, in);
                benchmark::DoNotOptimize(r);
            }
            wall[m] = secondsSince(t0);
        }
        double sim_rps = c.requests / wall[0];
        double fast_rps = c.requests / wall[1];

        char workload[64];
        std::snprintf(workload, sizeof(workload),
                      "%lldx%lld w=%lld R=%d", (long long)c.s,
                      (long long)c.s, (long long)c.w, c.requests);
        std::printf("%-10s %-22s %8.2fms %8.2fms %7.2fx\n",
                    c.engine, workload, wall[0] * 1e3, wall[1] * 1e3,
                    wall[0] / wall[1]);
        json->push_back({"mode_comparison",
                         {{"engine", c.engine},
                          {"s", std::to_string(c.s)},
                          {"w", std::to_string(c.w)},
                          {"requests", std::to_string(c.requests)}},
                         {{"simulate_req_per_s", sim_rps},
                          {"fast_req_per_s", fast_rps},
                          {"speedup", wall[0] / wall[1]}}});
    }
}

/** Mixed-topology request stream through one Shard, 1..4 workers. */
void
printThreadScaling(std::vector<BenchJsonEntry> *json)
{
    printHeader("SERVE-2", "server scaling: mixed-topology stream, "
                           "1..4 worker threads");
    std::printf("(host has %u hardware threads; scaling flattens "
                "beyond that)\n",
                std::thread::hardware_concurrency());
    std::printf("%-8s %10s %12s %10s\n", "threads", "requests",
                "wall", "req/s");

    const Index s = 24, w = 4;
    const int kRounds = 10;
    Dense<Scalar> a = randomIntDense(s, s, 1);
    Dense<Scalar> bm = randomIntDense(s, s, 2);
    Dense<Scalar> lt = randomUnitLowerTriangular(s, 6);

    // Hoisted out of the timed loop: only the kind is needed to
    // build each request, not a fresh engine instance.
    std::vector<std::pair<std::string, ProblemKind>> kinds;
    for (const std::string &name : engineNames())
        kinds.emplace_back(name, requireEngine(name)->kind());

    for (std::size_t threads : {1u, 2u, 4u}) {
        Shard::Options opts;
        opts.threads = threads;
        Shard shard(opts);

        std::vector<std::future<ServeResponse>> futures;
        auto t0 = std::chrono::steady_clock::now();
        for (int round = 0; round < kRounds; ++round) {
            for (const auto &[name, kind] : kinds) {
                ServeRequest req;
                req.engine = name;
                std::uint64_t seed = 100 + 10 * round;
                req.plan = kind == ProblemKind::MatVec
                    ? EnginePlan::matVec(a, randomIntVec(s, seed),
                                         randomIntVec(s, seed + 1),
                                         w)
                    : kind == ProblemKind::MatMul
                        ? EnginePlan::matMul(
                              a, bm, randomIntDense(s, s, seed + 2),
                              w)
                        : EnginePlan::triSolve(
                              lt, randomIntVec(s, seed + 3), w);
                futures.push_back(shard.submit(std::move(req)));
            }
        }
        std::size_t ok = 0;
        for (auto &f : futures)
            ok += f.get().ok ? 1 : 0;
        double wall = secondsSince(t0);
        SAP_ASSERT(ok == futures.size(), "serving failures in bench");
        double req_per_s = static_cast<double>(futures.size()) / wall;
        std::printf("%-8zu %10zu %10.2fms %10.0f\n", threads,
                    futures.size(), wall * 1e3, req_per_s);
        json->push_back({"thread_scaling",
                         {{"threads", std::to_string(threads)},
                          {"s", std::to_string(s)},
                          {"w", std::to_string(w)}},
                         {{"wall_ms", wall * 1e3},
                          {"req_per_s", req_per_s}}});
    }
}

void
print()
{
    std::vector<BenchJsonEntry> json;
    printAmortization(&json);
    printModeComparison(&json);
    printThreadScaling(&json);
    writeBenchJson("serve_throughput", json);
}

//---------------------------------------------------------------------
// Tracked google-benchmark timers.
//---------------------------------------------------------------------

void
BM_MatVecPerRequestUncached(benchmark::State &state)
{
    const Index w = state.range(0), s = 8 * w;
    auto engine = requireEngine("linear");
    MatVecWorkload wl = makeMatVecWorkload(s, w, 1);
    EnginePlan plan = EnginePlan::matVec(wl.a, wl.inputs[0].x,
                                         wl.inputs[0].b, w);
    for (auto _ : state) {
        EngineRunResult r = engine->run(plan);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_MatVecPerRequestUncached)->Arg(4)->Arg(8);

void
BM_MatVecPerRequestCached(benchmark::State &state)
{
    const Index w = state.range(0), s = 8 * w;
    auto engine = requireEngine("linear");
    MatVecWorkload wl = makeMatVecWorkload(s, w, 1);
    EnginePlan plan = EnginePlan::matVec(wl.a, wl.inputs[0].x,
                                         wl.inputs[0].b, w);
    auto prepared = engine->prepare(plan);
    for (auto _ : state) {
        EngineRunResult r =
            engine->runPrepared(*prepared, wl.inputs[0]);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_MatVecPerRequestCached)->Arg(4)->Arg(8);

void
BM_ServerMixedStream(benchmark::State &state)
{
    const std::size_t threads =
        static_cast<std::size_t>(state.range(0));
    const Index s = 24, w = 4;
    Dense<Scalar> a = randomIntDense(s, s, 1);
    Dense<Scalar> bm = randomIntDense(s, s, 2);
    Vec<Scalar> x = randomIntVec(s, 3), b = randomIntVec(s, 4);
    Dense<Scalar> e = randomIntDense(s, s, 5);
    Dense<Scalar> lt = randomUnitLowerTriangular(s, 6);

    Shard::Options opts;
    opts.threads = threads;
    Shard shard(opts);
    std::vector<std::pair<std::string, ProblemKind>> kinds;
    for (const std::string &name : engineNames())
        kinds.emplace_back(name, requireEngine(name)->kind());

    std::size_t served = 0;
    for (auto _ : state) {
        std::vector<std::future<ServeResponse>> futures;
        for (const auto &[name, kind] : kinds) {
            ServeRequest req;
            req.engine = name;
            req.plan = kind == ProblemKind::MatVec
                ? EnginePlan::matVec(a, x, b, w)
                : kind == ProblemKind::MatMul
                    ? EnginePlan::matMul(a, bm, e, w)
                    : EnginePlan::triSolve(lt, b, w);
            futures.push_back(shard.submit(std::move(req)));
        }
        for (auto &f : futures)
            served += f.get().ok ? 1 : 0;
    }
    state.counters["req/s"] = benchmark::Counter(
        static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServerMixedStream)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace sap

SAP_BENCH_MAIN(sap::print)
