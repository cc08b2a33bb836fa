/**
 * @file
 * PERF: wall-clock throughput of the simulators themselves (not a
 * paper artifact — engineering data for users of the library):
 * simulated cycles per second of every registered engine, plus
 * scaling of the cycle-level simulators and the block-level oracle.
 *
 * All topologies run through the unified engine layer, so a newly
 * registered engine is benchmarked here with zero code changes.
 * BM_Prepare times the plan build alone (the plan-cache miss path),
 * with a plan of the shape live and, for hex, without. BM_FastRun
 * times Fast mode on a live plan (the band kernel and its x̄/b̄/y
 * plumbing), BM_HitConfirm the bit-for-bit confirm of a plan-cache
 * hit, and BM_WireCodec the wire codec and the receive path on a
 * 2.1 MB SUBMIT, beside a memcpy of the frame for reference.
 */

#include "bench/bench_common.hh"

#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/socket_util.hh"
#include "dbt/matmul_plan.hh"
#include "dbt/matvec_plan.hh"
#include "mat/generate.hh"
#include "net/framed_socket.hh"
#include "net/protocol.hh"
#include "sim/mesh_array.hh"
#include "solve/trisolve_plan.hh"

namespace sap {
namespace {

void
print()
{
    printHeader("PERF", "simulator wall-clock throughput "
                        "(google-benchmark timings follow)");

    // One calibration row per engine so the raw numbers are on
    // stdout even without the timers; the same rows are emitted as
    // BENCH_sim_throughput.json for the cross-PR perf trajectory.
    const Index w = 4, s = 4 * w;
    EnginePlan mv = EnginePlan::matVec(randomIntDense(s, s, 1),
                                       randomIntVec(s, 2),
                                       randomIntVec(s, 3), w);
    EnginePlan mm = EnginePlan::matMul(randomIntDense(s, s, 1),
                                       randomIntDense(s, s, 2), w);
    EnginePlan ts = EnginePlan::triSolve(
        randomUnitLowerTriangular(s, 1), randomIntVec(s, 2), w);
    std::vector<BenchJsonEntry> json;
    for (const std::string &name : engineNames()) {
        auto engine = requireEngine(name);
        EngineRunResult r = engine->run(
            engine->kind() == ProblemKind::MatVec   ? mv
            : engine->kind() == ProblemKind::MatMul ? mm
                                                    : ts);
        printEngineRow(name, r);

        BenchJsonEntry e;
        e.name = "calibration";
        e.config = {{"engine", name},
                    {"kind", problemKindName(engine->kind())},
                    {"w", std::to_string(w)},
                    {"s", std::to_string(s)}};
        e.metrics = {
            {"cycles", static_cast<double>(r.stats.cycles)},
            {"useful_macs", static_cast<double>(r.stats.usefulMacs)},
            {"utilization", r.stats.utilization()}};
        json.push_back(std::move(e));
    }
    writeBenchJson("sim_throughput", json);
}

/**
 * Per-engine sweeps over one mid-size problem per kind. These time
 * the end-to-end engine path (DBT transform + simulation per run);
 * the BM_* benches below time the simulators alone.
 */
void
registerSweeps()
{
    registerEngineSweep("engine_matvec", ProblemKind::MatVec, [] {
        const Index w = 8, s = 8 * w;
        return EnginePlan::matVec(randomIntDense(s, s, 1),
                                  randomIntVec(s, 2),
                                  randomIntVec(s, 3), w);
    });
    registerEngineSweep("engine_matmul", ProblemKind::MatMul, [] {
        const Index w = 3, s = 3 * w;
        return EnginePlan::matMul(randomIntDense(s, s, 1),
                                  randomIntDense(s, s, 2), w);
    });
    registerEngineSweep("engine_trisolve", ProblemKind::TriSolve, [] {
        const Index w = 8, s = 8 * w;
        return EnginePlan::triSolve(randomUnitLowerTriangular(s, 1),
                                    randomIntVec(s, 2), w);
    });
}

void
BM_LinearArrayCyclesPerSec(benchmark::State &state)
{
    Index w = state.range(0);
    Index s = 8 * w;
    Dense<Scalar> a = randomIntDense(s, s, 1);
    Vec<Scalar> x = randomIntVec(s, 2);
    Vec<Scalar> b = randomIntVec(s, 3);
    // Plan hoisted out of the loop: this times the simulator alone,
    // comparable with historical numbers.
    MatVecPlan plan(a, w);
    Cycle cycles = 0;
    for (auto _ : state) {
        MatVecPlanResult r = plan.run(x, b);
        cycles += r.stats.cycles;
        benchmark::DoNotOptimize(r.y);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LinearArrayCyclesPerSec)->Arg(4)->Arg(8)->Arg(16);

/**
 * Args (w, s): the s×s product on a w×w array. The one shape timed
 * is the one perfbench's mm48_sim_hot serves (48², w = 4), where the
 * cycle loop dominates; on 6²–12² problems per-run set-up does.
 */
void
BM_HexArrayCyclesPerSec(benchmark::State &state)
{
    const Index w = state.range(0), s = state.range(1);
    Dense<Scalar> a = randomIntDense(s, s, 1);
    Dense<Scalar> b = randomIntDense(s, s, 2);
    Dense<Scalar> e(s, s);
    MatMulPlan plan(a, b, w);
    Cycle cycles = 0;
    for (auto _ : state) {
        MatMulPlanResult r = plan.run(e);
        cycles += r.totalCycles;
        benchmark::DoNotOptimize(r.c);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HexArrayCyclesPerSec)->Args({4, 48});

void
BM_MeshArrayCyclesPerSec(benchmark::State &state)
{
    Index w = state.range(0);
    Index s = 3 * w;
    Dense<Scalar> a = randomIntDense(s, s, 1);
    Dense<Scalar> b = randomIntDense(s, s, 2);
    Dense<Scalar> e(s, s);
    MeshMatMulPlan plan(a, b, w);
    Cycle cycles = 0;
    for (auto _ : state) {
        MeshRunResult r = plan.run(e);
        cycles += r.stats.cycles;
        benchmark::DoNotOptimize(r.c);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MeshArrayCyclesPerSec)->Arg(2)->Arg(4)->Arg(8);

void
BM_TriArrayCyclesPerSec(benchmark::State &state)
{
    Index w = state.range(0);
    Index s = 8 * w;
    Dense<Scalar> l = randomUnitLowerTriangular(s, 1);
    Vec<Scalar> b = randomIntVec(s, 2);
    TriSolvePlan plan(l, w);
    Cycle cycles = 0;
    for (auto _ : state) {
        TriSolvePlanResult r = plan.run(b);
        cycles += r.stats.cycles;
        benchmark::DoNotOptimize(r.y);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TriArrayCyclesPerSec)->Arg(4)->Arg(8)->Arg(16);

/**
 * The plan-cache miss path: one engine prepare() at the shapes of
 * perfbench's mixed_cold_open workload, where every request builds a
 * plan. As in serving, where the plan caches hold plans of every
 * shape in use, a plan of the same shape stays live outside the
 * timing loop, so a hex prepare builds its bands and reuses the
 * shape's skeleton (dbt/matmul_plan.hh). hex_new_shape holds no plan,
 * so every iteration also builds the skeleton, as a shape's first
 * plan does.
 */
void
BM_Prepare(benchmark::State &state, const char *engine,
           EnginePlan (*make_plan)(), bool shape_live)
{
    auto eng = requireEngine(engine);
    const EnginePlan plan = make_plan();
    std::shared_ptr<const PreparedPlan> live;
    if (shape_live)
        live = eng->prepare(plan);
    for (auto _ : state) {
        std::shared_ptr<const PreparedPlan> prepared = eng->prepare(plan);
        benchmark::DoNotOptimize(prepared.get());
    }
}
EnginePlan
prepareLinear()
{
    return EnginePlan::matVec(randomIntDense(128, 128, 1),
                              randomIntVec(128, 2), randomIntVec(128, 3),
                              8);
}
EnginePlan
prepareTri()
{
    return EnginePlan::triSolve(randomUnitLowerTriangular(128, 1),
                                randomIntVec(128, 2), 8);
}
EnginePlan
prepareHex()
{
    return EnginePlan::matMul(randomIntDense(32, 32, 1),
                              randomIntDense(32, 32, 2), 4);
}
BENCHMARK_CAPTURE(BM_Prepare, linear, "linear", prepareLinear, true);
BENCHMARK_CAPTURE(BM_Prepare, tri, "tri", prepareTri, true);
BENCHMARK_CAPTURE(BM_Prepare, hex, "hex", prepareHex, true);
BENCHMARK_CAPTURE(BM_Prepare, hex_new_shape, "hex", prepareHex, false);

/** mv512_fast_hot's request: linear mat-vec, A 512×512, w=32. */
EnginePlan
linear512()
{
    return EnginePlan::matVec(randomIntDense(512, 512, 1),
                              randomIntVec(512, 2), randomIntVec(512, 3),
                              32);
}

/** mm48_sim_hot's request: hex mat-mul, A and B 48×48, w=4. */
EnginePlan
hex48()
{
    return EnginePlan::matMul(randomIntDense(48, 48, 1),
                              randomIntDense(48, 48, 2), 4);
}

/**
 * Fast mode on a live plan: one runPrepared, which builds x̄ and b̄,
 * replays the band (semantics/band_kernel.hh) and extracts y, or for
 * hex replays every O value (dbt/matmul_plan.hh) and extracts C. The
 * shapes are mv512_fast_hot's and mixed_cold_open's linear, tri and
 * hex; overlapped runs mv512's band as two halves of the same plan.
 */
void
BM_FastRun(benchmark::State &state, const char *engine,
           EnginePlan (*make_plan)())
{
    auto eng = requireEngine(engine);
    EnginePlan plan = make_plan();
    plan.mode = ExecMode::Fast;
    const std::shared_ptr<const PreparedPlan> prepared = eng->prepare(plan);
    const EngineInputs in = EngineInputs::of(plan);
    for (auto _ : state) {
        EngineRunResult r = eng->runPrepared(*prepared, in);
        benchmark::DoNotOptimize(r.y.elems());
        benchmark::DoNotOptimize(r.c.elems());
    }
}
BENCHMARK_CAPTURE(BM_FastRun, linear_512_32, "linear", linear512);
BENCHMARK_CAPTURE(BM_FastRun, overlapped_512_32, "overlapped", linear512);
BENCHMARK_CAPTURE(BM_FastRun, linear_128_8, "linear", prepareLinear);
BENCHMARK_CAPTURE(BM_FastRun, tri_128_8, "tri", prepareTri);
BENCHMARK_CAPTURE(BM_FastRun, hex_32_4, "hex", prepareHex);

/**
 * The plan-cache hit path after the digest: PreparedPlan::builtFrom
 * on a live plan of the request's own matrices, which compares the
 * shape and then the plan's stored data bit for bit. The shapes are
 * mm48_sim_hot's and mixed_cold_open's hex, and mv512_fast_hot's
 * linear.
 */
void
BM_HitConfirm(benchmark::State &state, const char *engine,
              EnginePlan (*make_plan)())
{
    auto eng = requireEngine(engine);
    const EnginePlan plan = make_plan();
    const std::shared_ptr<const PreparedPlan> live = eng->prepare(plan);
    if (!live->builtFrom(plan))
        state.SkipWithError("a plan does not confirm its own matrices");
    for (auto _ : state) {
        bool same = live->builtFrom(plan);
        benchmark::DoNotOptimize(same);
    }
}
BENCHMARK_CAPTURE(BM_HitConfirm, hex_48_4, "hex", hex48);
BENCHMARK_CAPTURE(BM_HitConfirm, hex_32_4, "hex", prepareHex);
BENCHMARK_CAPTURE(BM_HitConfirm, linear_512_32, "linear", linear512);

/** mv512_fast_hot's request: a 2.1 MB SUBMIT. */
ServeRequest
submit512()
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = linear512();
    return req;
}

/** One encodeSubmit or decodeSubmit per iteration, each into a
 *  freshly allocated output. */
void
wireEncodeDecode(benchmark::State &state, bool decode)
{
    const ServeRequest req = submit512();
    const std::vector<std::uint8_t> payload = encodeSubmit(req);
    for (auto _ : state) {
        if (decode) {
            ServeRequest back;
            std::string err;
            if (!decodeSubmit(payload, &back, &err))
                state.SkipWithError(err.c_str());
            benchmark::DoNotOptimize(back.plan.a.elems());
        } else {
            std::vector<std::uint8_t> bytes = encodeSubmit(req);
            benchmark::DoNotOptimize(bytes.data());
        }
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(payload.size()));
}

/** The SUBMIT frame encoded into one buffer kept across iterations,
 *  as NetClient encodes it: no allocation and no zero-fill. */
void
wireEncodeReused(benchmark::State &state)
{
    const ServeRequest req = submit512();
    std::vector<std::uint8_t> frame;
    std::uint64_t tag = 0;
    for (auto _ : state) {
        buildSubmitFrame(++tag, req, &frame);
        benchmark::DoNotOptimize(frame.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(frame.size()));
}

/** The reference both timers above and below are read against: a
 *  memcpy of the SUBMIT frame into a buffer kept across iterations. */
void
wireCopy(benchmark::State &state)
{
    const std::vector<std::uint8_t> frame = buildSubmitFrame(1, submit512());
    std::vector<std::uint8_t> copy(frame.size());
    for (auto _ : state) {
        std::memcpy(copy.data(), frame.data(), frame.size());
        benchmark::DoNotOptimize(copy.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(frame.size()));
}

/**
 * The SUBMIT frame received through FramedSocket::next over an
 * AF_UNIX socketpair, one frame per iteration, as a serving tier
 * receives it: the payload is read in place, into the buffer the
 * previous frame was consumed from. A second thread keeps the pair
 * full, sending the frame over and over; CPU time is the receiving
 * thread's alone.
 */
void
wireReceive(benchmark::State &state)
{
    const std::vector<std::uint8_t> frame = buildSubmitFrame(1, submit512());
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        state.SkipWithError("socketpair failed");
        return;
    }
    setNonBlocking(sv[1]);
    std::thread writer([&frame, fd = sv[0]] {
        for (;;)
            for (std::size_t off = 0; off < frame.size();) {
                const ssize_t n = ::send(fd, frame.data() + off,
                                         frame.size() - off, MSG_NOSIGNAL);
                if (n <= 0)
                    return; // the reader shut its end
                off += static_cast<std::size_t>(n);
            }
    });
    FramedSocket reader(sv[1]);
    Frame received;
    std::string err;
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        FramedSocket::Read r;
        while ((r = reader.next(&received, &err, &bytes)) ==
               FramedSocket::Read::Drained) {
            pollfd pfd = {sv[1], POLLIN, 0};
            ::poll(&pfd, 1, 1000);
        }
        if (r != FramedSocket::Read::Frame) {
            state.SkipWithError("receive failed");
            break;
        }
        benchmark::DoNotOptimize(received.payload.data());
    }
    ::shutdown(sv[1], SHUT_RDWR);
    writer.join();
    ::close(sv[0]);
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(frame.size()));
}

/** The wire codec and receive path on mv512_fast_hot's 2.1 MB
 *  SUBMIT (see the functions above). */
enum class Wire
{
    Encode,
    Decode,
    EncodeReused,
    Receive,
    Copy,
};

void
BM_WireCodec(benchmark::State &state, Wire what)
{
    switch (what) {
    case Wire::Encode:
    case Wire::Decode:
        return wireEncodeDecode(state, what == Wire::Decode);
    case Wire::EncodeReused:
        return wireEncodeReused(state);
    case Wire::Receive:
        return wireReceive(state);
    case Wire::Copy:
        return wireCopy(state);
    }
}
BENCHMARK_CAPTURE(BM_WireCodec, encode_submit_512, Wire::Encode);
BENCHMARK_CAPTURE(BM_WireCodec, decode_submit_512, Wire::Decode);
BENCHMARK_CAPTURE(BM_WireCodec, encode_submit_512_reused,
                  Wire::EncodeReused);
BENCHMARK_CAPTURE(BM_WireCodec, receive_submit_512, Wire::Receive);
BENCHMARK_CAPTURE(BM_WireCodec, memcpy_submit_512, Wire::Copy);

void
BM_BlockOracleVsCycleSim(benchmark::State &state)
{
    Index s = state.range(0);
    Dense<Scalar> a = randomIntDense(s, s, 1);
    Dense<Scalar> b = randomIntDense(s, s, 2);
    Dense<Scalar> e(s, s);
    MatMulPlan plan(a, b, 3);
    for (auto _ : state) {
        MatMulExecResult r = plan.runBlockLevel(e);
        benchmark::DoNotOptimize(r.c);
    }
}
BENCHMARK(BM_BlockOracleVsCycleSim)->Arg(6)->Arg(12)->Arg(24);

} // namespace
} // namespace sap

SAP_BENCH_MAIN_WITH_REGISTRATION(sap::print, sap::registerSweeps)
