#include "serve/shard.hh"

#include <chrono>

#include "analysis/formulas.hh"
#include "analysis/metrics.hh"
#include "base/error.hh"
#include "base/logging.hh"
#include "engine/registry.hh"

namespace sap {

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedMicros(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     t0)
        .count();
}

/**
 * Request validation that *reports* instead of throwing: the
 * engine-kind match plus exactly EnginePlan::check() — the serve
 * path reuses the library's own validation seam, so the two can
 * never drift apart again.
 */
std::string
validateRequest(const SystolicEngine &engine, const EnginePlan &plan)
{
    if (plan.kind != engine.kind())
        return "engine '" + engine.name() + "' serves " +
               problemKindName(engine.kind()) + " but the request is " +
               problemKindName(plan.kind);
    return plan.check();
}

/**
 * "engine n×m[×p] w=.. mode": the trace label of one request. The
 * shape lives here rather than in a metric label because clients
 * choose it, so it would make the number of series unbounded.
 */
std::string
shapeLabel(const std::string &engine_name, const EnginePlan &plan)
{
    std::string s = engine_name + " " + std::to_string(plan.a.rows()) +
                    "x" + std::to_string(plan.a.cols());
    if (plan.kind == ProblemKind::MatMul)
        s += "x" + std::to_string(plan.bmat.cols());
    return s + " w=" + std::to_string(plan.w) + " " +
           execModeName(plan.mode);
}

/**
 * The paper's closed-form cycle count for @p plan on @p engine_name
 * (§4–§5 via analysis/formulas.hh), or -1 when no formula covers the
 * engine (grouped/spiral/no-feedback have extra scheduling slack the
 * closed forms do not model). Feeds the measured-vs-analytic drift
 * gauge: continuous serving-time evidence that the simulators still
 * track the formulas.
 */
Cycle
formulaCycles(const std::string &engine_name, const EnginePlan &plan)
{
    const Index w = plan.w;
    if (w <= 0)
        return -1;
    auto bar = [w](Index n) { return (n + w - 1) / w; };
    if (engine_name == "linear")
        return formulas::tMatVec(w, bar(plan.a.rows()),
                                 bar(plan.a.cols()));
    if (engine_name == "overlapped")
        return formulas::tMatVecOverlap(w, bar(plan.a.rows()),
                                        bar(plan.a.cols()));
    if (engine_name == "hex")
        return formulas::tMatMul(w, bar(plan.a.cols()),
                                 bar(plan.a.rows()),
                                 bar(plan.bmat.cols()));
    if (engine_name == "mesh")
        return formulas::tMesh(w, bar(plan.a.cols()),
                               bar(plan.a.rows()),
                               bar(plan.bmat.cols()));
    if (engine_name == "tri")
        return formulas::tTriSolve(w, bar(plan.a.rows()));
    return -1;
}

} // namespace

MetricLabels
engineLabels(const std::string &engine, ProblemKind kind, ExecMode mode)
{
    return {{"engine", engine},
            {"kind", problemKindName(kind)},
            {"mode", execModeName(mode)}};
}

Shard::Shard(const Options &opts)
    : cache_(opts.planCacheCapacity), pool_(opts.threads)
{
    inst_.requests = &metrics_.counter("serve_requests_total");
    inst_.failures = &metrics_.counter("serve_failures_total");
    inst_.crossCheckFailures =
        &metrics_.counter("serve_cross_check_failures_total");
    inst_.queueDepth =
        &metrics_.gauge("serve_queue_depth", GaugeAgg::Sum);
    inst_.cyclesDrift =
        &metrics_.gauge("serve_cycles_formula_drift", GaugeAgg::Max);
    inst_.queueWait = &metrics_.histogram("serve_queue_wait_micros");
    inst_.latency = &metrics_.histogram("serve_latency_micros");
}

const Shard::EngineSeries &
Shard::seriesFor(const std::string &engine, ProblemKind kind,
                 ExecMode mode)
{
    std::lock_guard<std::mutex> lock(series_mutex_);
    auto [it, inserted] = series_.try_emplace({engine, mode});
    EngineSeries &series = it->second;
    if (inserted) {
        const MetricLabels labels = engineLabels(engine, kind, mode);
        series.requests = &metrics_.counter(
            seriesKey("serve_engine_requests_total", labels));
        series.cacheHits = &metrics_.counter(
            seriesKey("serve_engine_cache_hits_total", labels));
        series.skeletonHits = &metrics_.counter(
            seriesKey("serve_engine_skeleton_hits_total", labels));
        series.simCycles = &metrics_.counter(
            seriesKey("serve_engine_sim_cycles_total", labels));
        series.latency = &metrics_.histogram(
            seriesKey("serve_engine_latency_micros", labels));
    }
    return series;
}

std::future<ServeResponse>
Shard::submit(ServeRequest req)
{
    auto promise = std::make_shared<std::promise<ServeResponse>>();
    std::future<ServeResponse> fut = promise->get_future();
    submitAsync(std::move(req), [promise](ServeResponse resp) {
        promise->set_value(std::move(resp));
    });
    return fut;
}

void
Shard::submitAsync(ServeRequest req, CompletionFn done)
{
    SAP_ASSERT(done, "submitAsync() needs a completion callback");
    // One shared holder: std::function requires copyable targets,
    // and the request is worth not copying per post. Hashing, when
    // no tier above did it, happens on the worker (inside handle),
    // keeping the submitting thread free of O(rows·cols) work.
    const Clock::time_point tq = Clock::now();
    inst_.queueDepth->add(1);
    auto job = std::make_shared<std::pair<ServeRequest, CompletionFn>>(
        std::move(req), std::move(done));
    pool_.post([this, job, tq] {
        traceStamp(job->first.trace, TraceStage::Dequeue);
        inst_.queueDepth->add(-1);
        inst_.queueWait->record(elapsedMicros(tq));
        job->second(handle(job->first));
    });
}

const SystolicEngine *
Shard::engineFor(const std::string &name)
{
    std::lock_guard<std::mutex> lock(engines_mutex_);
    auto it = engines_.find(name);
    if (it != engines_.end())
        return it->second.get();
    std::unique_ptr<SystolicEngine> engine = makeEngine(name);
    if (!engine)
        return nullptr;
    return engines_.emplace(name, std::move(engine))
        .first->second.get();
}

ServeResponse
Shard::handle(const ServeRequest &req)
{
    const Clock::time_point t0 = Clock::now();
    const SystolicEngine *engine = engineFor(req.engine);
    if (!engine) {
        ServeResponse resp =
            fail("unknown engine '" + req.engine + "'", t0);
        resp.trace = req.trace;
        return resp;
    }
    std::string error = validateRequest(*engine, req.plan);
    if (!error.empty()) {
        ServeResponse resp = fail(std::move(error), t0);
        resp.trace = req.trace;
        return resp;
    }

    // Preparation and execution can fail recoverably (a singular
    // triangular system, a validate-mode divergence): an error
    // response, not a dead shard.
    try {
        PlanCache::Prepared cached =
            cache_.prepare(*engine, req.plan, req.digest);
        if (req.trace) {
            req.trace->stamp(TraceStage::Prepare);
            req.trace->cacheHit = cached.hit;
        }
        ServeResponse resp =
            finish(req, *engine, *cached.plan, cached.hit, t0);
        resp.trace = req.trace;
        return resp;
    } catch (const EngineError &e) {
        ServeResponse resp = fail(e.what(), t0);
        resp.trace = req.trace;
        return resp;
    }
}

ServeResponse
Shard::fail(std::string error, Clock::time_point t0)
{
    ServeResponse resp;
    resp.error = std::move(error);
    inst_.failures->add();
    resp.latencyMicros = elapsedMicros(t0);
    return resp;
}

ServeResponse
Shard::finish(const ServeRequest &req, const SystolicEngine &engine,
              const PreparedPlan &prepared, bool cacheHit,
              Clock::time_point t0)
{
    ServeResponse resp;
    resp.cacheHit = cacheHit;
    resp.result =
        engine.runPrepared(prepared, EngineInputs::of(req.plan));
    resp.ok = true;
    traceStamp(req.trace, TraceStage::Execute);

    if (req.crossCheck) {
        resp.crossCheckOk =
            req.plan.matchesOracle(resp.result.y, resp.result.c);
        if (!resp.crossCheckOk)
            inst_.crossCheckFailures->add();
    }

    resp.latencyMicros = elapsedMicros(t0);
    const Cycle cycles = resp.result.stats.cycles;
    inst_.requests->add();
    inst_.latency->record(resp.latencyMicros);
    const EngineSeries &series =
        seriesFor(req.engine, req.plan.kind, req.plan.mode);
    series.requests->add();
    if (cacheHit)
        series.cacheHits->add();
    else if (prepared.reusedSkeleton())
        series.skeletonHits->add();
    series.simCycles->add(static_cast<std::uint64_t>(cycles));
    series.latency->record(resp.latencyMicros);
    // Measured-vs-analytic drift: how far the served cycle count
    // strayed from the paper's closed form for this engine/shape
    // (Max-aggregated — the gauge reports the worst case seen).
    const Cycle predicted = formulaCycles(req.engine, req.plan);
    if (predicted > 0)
        inst_.cyclesDrift->setMax(relDiff(static_cast<double>(cycles),
                                          static_cast<double>(predicted)));
    if (req.trace) {
        req.trace->label = shapeLabel(req.engine, req.plan);
        req.trace->kind = problemKindName(req.plan.kind);
        req.trace->cacheHit = cacheHit;
    }
    return resp;
}

MetricsSnapshot
Shard::metricsSnapshot() const
{
    MetricsSnapshot snap = metrics_.snapshot();
    // The plan cache keeps its own counters; inject them here rather
    // than double-count on the request path.
    const PlanCacheStats cache_stats = cache_.stats();
    snap.counters["plan_cache_hits_total"] = cache_stats.hits;
    snap.counters["plan_cache_misses_total"] = cache_stats.misses;
    snap.counters["plan_cache_evictions_total"] =
        cache_stats.evictions;
    snap.counters["plan_cache_collisions_total"] =
        cache_stats.collisions;
    return snap;
}

double
Shard::queueDepth() const
{
    return inst_.queueDepth->value();
}

} // namespace sap
