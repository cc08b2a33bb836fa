/**
 * @file
 * Shared infrastructure for the reproduction benchmarks.
 *
 * Every bench binary regenerates one figure or analytic table of
 * the paper: it first prints the paper-style rows to stdout (so
 * running all binaries reproduces the evaluation) and then runs
 * google-benchmark timers over the simulator hot paths.
 *
 * Benchmarks drive the simulators through the unified engine layer
 * (engine/registry.hh) instead of hand-rolled per-topology loops:
 * a plan factory plus an engine name is a complete benchmark, and
 * newly registered topologies are picked up automatically by
 * registerEngineSweep().
 */

#ifndef SAP_BENCH_BENCH_COMMON_HH
#define SAP_BENCH_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "engine/engine.hh"
#include "engine/registry.hh"

namespace sap {

/** Print a section header for one reproduced artifact. */
inline void
printHeader(const std::string &experiment_id, const std::string &title)
{
    std::printf("\n=== %s: %s ===\n", experiment_id.c_str(),
                title.c_str());
}

/** Print one measured engine run as a paper-style table row. */
inline void
printEngineRow(const std::string &engine, const EngineRunResult &r)
{
    std::printf("%-10s  A=%-5lld T=%-7lld macs=%-8lld e=%.4f\n",
                engine.c_str(), (long long)r.stats.peCount,
                (long long)r.stats.cycles,
                (long long)r.stats.usefulMacs, r.stats.utilization());
}

/** Instantiate a registered engine or die with a clear message. */
inline std::unique_ptr<SystolicEngine>
requireEngine(const std::string &name)
{
    auto engine = makeEngine(name);
    if (!engine)
        SAP_FATAL("engine '", name, "' is not registered");
    return engine;
}

/** Run @p plan once through the named engine. */
inline EngineRunResult
runOnEngine(const std::string &name, const EnginePlan &plan)
{
    return requireEngine(name)->run(plan);
}

/**
 * Time one (engine, plan) pair: the body every engine benchmark
 * shares. Reports raw edge-to-edge simulated cycles per wall-clock
 * second (totalCycles, matching the historic per-topology benches).
 *
 * Note this measures the *end-to-end* engine cost: each run()
 * rebuilds the DBT plan from the dense matrix before stepping the
 * array. For the simulator-only hot-loop numbers, hoist a
 * MatVecPlan/MatMulPlan out of the loop as
 * BM_LinearArrayCyclesPerSec / BM_HexArrayCyclesPerSec do;
 * BM_Prepare times the plan build alone.
 */
inline void
timeEngine(benchmark::State &state, const std::string &name,
           const EnginePlan &plan)
{
    auto engine = requireEngine(name);
    Cycle cycles = 0;
    for (auto _ : state) {
        EngineRunResult r = engine->run(plan);
        cycles += r.totalCycles;
        benchmark::DoNotOptimize(r);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

/**
 * Register one google-benchmark timer per registered engine of
 * @p kind, each running the plan produced by @p make_plan. Call
 * from main() before benchmark::Initialize (see SAP_BENCH_MAIN).
 *
 * @param label Benchmark family name, e.g. "engine_matvec".
 * @param make_plan Factory invoked once per engine registration.
 */
inline void
registerEngineSweep(const std::string &label, ProblemKind kind,
                    const std::function<EnginePlan()> &make_plan)
{
    for (const std::string &name : engineNames(kind)) {
        benchmark::RegisterBenchmark(
            (label + "/" + name).c_str(),
            [name, make_plan](benchmark::State &state) {
                timeEngine(state, name, make_plan());
            });
    }
}

//---------------------------------------------------------------------
// Machine-readable benchmark emission: BENCH_<name>.json files that
// the perf trajectory can be tracked from across PRs, next to the
// human-readable stdout tables.
//---------------------------------------------------------------------

/** One measured point: a name, its configuration, its metrics. */
struct BenchJsonEntry
{
    /** Measurement name, e.g. "amortization" or "shard_scaling". */
    std::string name;
    /** Configuration key/values (engine, shape, threads, ...). */
    std::vector<std::pair<std::string, std::string>> config;
    /** Metric key/values (req_per_s, speedup, cycles_per_s, ...). */
    std::vector<std::pair<std::string, double>> metrics;
};

/** Minimal JSON string escaping (quotes and backslashes). */
inline std::string
benchJsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/**
 * Write @p entries as BENCH_<bench>.json into $SAP_BENCH_JSON_DIR
 * (default: the working directory) and return the path written.
 */
inline std::string
writeBenchJson(const std::string &bench,
               const std::vector<BenchJsonEntry> &entries)
{
    const char *dir = std::getenv("SAP_BENCH_JSON_DIR");
    std::string path = (dir ? std::string(dir) + "/" : std::string()) +
                       "BENCH_" + bench + ".json";
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "warning: cannot write %s\n",
                     path.c_str());
        return path;
    }
    os << "{\n  \"bench\": \"" << benchJsonEscape(bench)
       << "\",\n  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const BenchJsonEntry &e = entries[i];
        os << "    {\"name\": \"" << benchJsonEscape(e.name)
           << "\", \"config\": {";
        for (std::size_t j = 0; j < e.config.size(); ++j)
            os << (j ? ", " : "") << "\""
               << benchJsonEscape(e.config[j].first) << "\": \""
               << benchJsonEscape(e.config[j].second) << "\"";
        os << "}, \"metrics\": {";
        char num[32];
        for (std::size_t j = 0; j < e.metrics.size(); ++j) {
            std::snprintf(num, sizeof(num), "%.6g",
                          e.metrics[j].second);
            os << (j ? ", " : "") << "\""
               << benchJsonEscape(e.metrics[j].first) << "\": " << num;
        }
        os << "}}" << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::printf("wrote %s (%zu entries)\n", path.c_str(),
                entries.size());
    return path;
}

/**
 * Standard main: emit the reproduction table(s), then run any
 * registered google-benchmark timers.
 */
#define SAP_BENCH_MAIN(print_fn)                                        \
    int main(int argc, char **argv)                                     \
    {                                                                   \
        print_fn();                                                     \
        ::benchmark::Initialize(&argc, argv);                           \
        ::benchmark::RunSpecifiedBenchmarks();                          \
        return 0;                                                       \
    }

/**
 * Main for benches that also register per-engine sweeps at runtime:
 * @p register_fn runs before benchmark::Initialize so registered
 * timers honor --benchmark_filter.
 */
#define SAP_BENCH_MAIN_WITH_REGISTRATION(print_fn, register_fn)         \
    int main(int argc, char **argv)                                     \
    {                                                                   \
        print_fn();                                                     \
        register_fn();                                                  \
        ::benchmark::Initialize(&argc, argv);                           \
        ::benchmark::RunSpecifiedBenchmarks();                          \
        return 0;                                                       \
    }

} // namespace sap

#endif // SAP_BENCH_BENCH_COMMON_HH
