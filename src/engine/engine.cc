#include "engine/engine.hh"

#include <cmath>
#include <type_traits>

#include "base/error.hh"
#include "base/logging.hh"
#include "baseline/block_no_feedback.hh"
#include "dbt/matmul_plan.hh"
#include "dbt/matvec_plan.hh"
#include "engine/registry.hh"
#include "mat/ops.hh"
#include "sim/mesh_array.hh"
#include "solve/trisolve_plan.hh"

namespace sap {

std::string
problemKindName(ProblemKind k)
{
    switch (k) {
      case ProblemKind::MatVec:
        return "matvec";
      case ProblemKind::MatMul:
        return "matmul";
      case ProblemKind::TriSolve:
        return "trisolve";
    }
    SAP_PANIC("unknown ProblemKind ", static_cast<int>(k));
}

std::string
execModeName(ExecMode m)
{
    switch (m) {
      case ExecMode::Simulate:
        return "simulate";
      case ExecMode::Fast:
        return "fast";
      case ExecMode::Validate:
        return "validate";
    }
    SAP_PANIC("unknown ExecMode ", static_cast<int>(m));
}

bool
parseExecMode(const std::string &name, ExecMode *out)
{
    if (name == "simulate")
        *out = ExecMode::Simulate;
    else if (name == "fast")
        *out = ExecMode::Fast;
    else if (name == "validate")
        *out = ExecMode::Validate;
    else
        return false;
    return true;
}

EnginePlan
EnginePlan::matVec(Dense<Scalar> a, Vec<Scalar> x, Vec<Scalar> b,
                   Index w)
{
    EnginePlan p;
    p.kind = ProblemKind::MatVec;
    p.a = std::move(a);
    p.x = std::move(x);
    p.b = std::move(b);
    p.w = w;
    p.validate();
    return p;
}

EnginePlan
EnginePlan::matMul(Dense<Scalar> a, Dense<Scalar> bmat, Dense<Scalar> e,
                   Index w)
{
    EnginePlan p;
    p.kind = ProblemKind::MatMul;
    p.a = std::move(a);
    p.bmat = std::move(bmat);
    p.e = std::move(e);
    p.w = w;
    p.validate();
    return p;
}

EnginePlan
EnginePlan::matMul(Dense<Scalar> a, Dense<Scalar> bmat, Index w)
{
    Dense<Scalar> zero(a.rows(), bmat.cols());
    return matMul(std::move(a), std::move(bmat), std::move(zero), w);
}

EnginePlan
EnginePlan::triSolve(Dense<Scalar> l, Vec<Scalar> b, Index w)
{
    EnginePlan p;
    p.kind = ProblemKind::TriSolve;
    p.a = std::move(l);
    p.b = std::move(b);
    p.w = w;
    p.validate();
    return p;
}

std::string
EnginePlan::check() const
{
    if (w < 1)
        return "array size w must be >= 1";
    if (a.rows() <= 0 || a.cols() <= 0)
        return "empty matrix A";
    if (kind == ProblemKind::MatVec) {
        if (x.size() != a.cols())
            return "x length " + std::to_string(x.size()) +
                   " != A cols " + std::to_string(a.cols());
        if (b.size() != a.rows())
            return "b length " + std::to_string(b.size()) +
                   " != A rows " + std::to_string(a.rows());
    } else if (kind == ProblemKind::MatMul) {
        if (bmat.rows() != a.cols())
            return "B rows " + std::to_string(bmat.rows()) +
                   " != A cols " + std::to_string(a.cols());
        if (e.rows() != a.rows() || e.cols() != bmat.cols())
            return "E shape " + std::to_string(e.rows()) + "x" +
                   std::to_string(e.cols()) + " != " +
                   std::to_string(a.rows()) + "x" +
                   std::to_string(bmat.cols());
    } else {
        if (a.rows() != a.cols())
            return "L must be square, got " +
                   std::to_string(a.rows()) + "x" +
                   std::to_string(a.cols());
        if (b.size() != a.rows())
            return "b length " + std::to_string(b.size()) +
                   " != order " + std::to_string(a.rows());
        for (Index i = 0; i < a.rows(); ++i)
            if (a(i, i) == 0)
                return "zero diagonal at " + std::to_string(i);
    }
    if (mode == ExecMode::Fast && recordTrace)
        return "recordTrace requires simulate or validate mode";
    return {};
}

void
EnginePlan::validate() const
{
    std::string error = check();
    if (!error.empty())
        throw EngineError(error);
}

bool
EnginePlan::matchesOracle(const Vec<Scalar> &y,
                          const Dense<Scalar> &c) const
{
    if (kind == ProblemKind::MatMul)
        return c == matMulAdd(a, bmat, e);
    // sap::matVec, the host oracle — not the EnginePlan factory.
    Vec<Scalar> gold = kind == ProblemKind::MatVec
        ? sap::matVec(a, x, b)
        : forwardSolve(a, b);
    return y.size() == gold.size() && maxAbsDiff(y, gold) == 0.0;
}

EngineInputs
EngineInputs::matVec(Vec<Scalar> x, Vec<Scalar> b)
{
    EngineInputs in;
    in.x = std::move(x);
    in.b = std::move(b);
    return in;
}

EngineInputs
EngineInputs::matMul(Dense<Scalar> e)
{
    EngineInputs in;
    in.e = std::move(e);
    return in;
}

EngineInputs
EngineInputs::triSolve(Vec<Scalar> b)
{
    EngineInputs in;
    in.b = std::move(b);
    return in;
}

EngineInputs
EngineInputs::of(const EnginePlan &plan)
{
    EngineInputs in;
    if (plan.kind == ProblemKind::MatVec) {
        in.x = plan.x;
        in.b = plan.b;
    } else if (plan.kind == ProblemKind::MatMul) {
        in.e = plan.e;
    } else {
        in.b = plan.b;
    }
    in.recordTrace = plan.recordTrace;
    in.mode = plan.mode;
    return in;
}

PreparedPlan::PreparedPlan(const EnginePlan &plan)
    : kind_(plan.kind), w_(plan.w), rows_(plan.a.rows()),
      cols_(plan.a.cols()),
      out_cols_(plan.kind == ProblemKind::MatMul ? plan.bmat.cols() : 0)
{
}

void
PreparedPlan::validateInputs(const EngineInputs &in) const
{
    if (kind_ == ProblemKind::MatVec) {
        SAP_ASSERT(in.x.size() == cols_, "x length ", in.x.size(),
                   " != bound A cols ", cols_);
        SAP_ASSERT(in.b.size() == rows_, "b length ", in.b.size(),
                   " != bound A rows ", rows_);
    } else if (kind_ == ProblemKind::MatMul) {
        SAP_ASSERT(in.e.rows() == rows_ && in.e.cols() == out_cols_,
                   "E shape ", in.e.rows(), "x", in.e.cols(),
                   " != bound C shape ", rows_, "x", out_cols_);
    } else {
        SAP_ASSERT(in.b.size() == rows_, "b length ", in.b.size(),
                   " != bound order ", rows_);
    }
}

bool
PreparedPlan::builtFrom(const EnginePlan &plan) const
{
    const Index out_cols =
        plan.kind == ProblemKind::MatMul ? plan.bmat.cols() : 0;
    return plan.kind == kind_ && plan.w == w_ && plan.a.rows() == rows_ &&
           plan.a.cols() == cols_ && out_cols == out_cols_ &&
           storesDataOf(plan);
}

namespace {

/** True if @p a and @p b hold the same @p n elements bit for bit, any
 *  NaN matching any NaN (see diffOrThrow). */
bool
sameResultBits(const Scalar *a, const Scalar *b, Index n)
{
    for (Index i = 0; i < n; ++i)
        if (!(std::isnan(a[i]) && std::isnan(b[i])) &&
            !sameBits(a + i, b + i, 1))
            return false;
    return true;
}

/**
 * The per-engine mode switch: every engine's runPrepared() body is a
 * (sim, fast) lambda pair behind this dispatcher. Fast mode cannot
 * trace — the semantics path has no cycle timeline — so the
 * combination is rejected rather than silently dropping events.
 */
template <typename SimFn, typename FastFn>
EngineRunResult
dispatchMode(ExecMode mode, const std::string &engine,
             bool record_trace, const SimFn &sim, const FastFn &fast)
{
    switch (mode) {
      case ExecMode::Simulate:
        return sim();
      case ExecMode::Fast:
        if (record_trace)
            throw EngineError(
                engine +
                ": recordTrace requires simulate or validate mode");
        return fast();
      case ExecMode::Validate: {
        EngineRunResult s = sim();
        EngineRunResult f = fast();
        diffOrThrow(engine, s, f);
        return s;
      }
    }
    SAP_PANIC("unknown ExecMode ", static_cast<int>(mode));
}

} // namespace

void
diffOrThrow(const std::string &engine, const EngineRunResult &sim,
            const EngineRunResult &fast)
{
    auto fail = [&](const char *field) {
        throw EngineError("validate mode: " + engine +
                          " fast path diverged from the simulator in "
                          "field '" + field + "'");
    };
    if (fast.y.size() != sim.y.size() ||
        !sameResultBits(fast.y.elems(), sim.y.elems(), sim.y.size()))
        fail("y");
    if (fast.c.rows() != sim.c.rows() ||
        fast.c.cols() != sim.c.cols() ||
        !sameResultBits(fast.c.elems(), sim.c.elems(),
                        sim.c.rows() * sim.c.cols()))
        fail("c");
    if (fast.stats.cycles != sim.stats.cycles)
        fail("stats.cycles");
    if (fast.stats.peCount != sim.stats.peCount)
        fail("stats.peCount");
    if (fast.stats.usefulMacs != sim.stats.usefulMacs)
        fail("stats.usefulMacs");
    if (fast.totalCycles != sim.totalCycles)
        fail("totalCycles");
    if (fast.feedbackDelay != sim.feedbackDelay)
        fail("feedbackDelay");
    if (fast.feedbackRegisters != sim.feedbackRegisters)
        fail("feedbackRegisters");
    if (fast.conflictFree != sim.conflictFree)
        fail("conflictFree");
    if (fast.topologyRespected != sim.topologyRespected)
        fail("topologyRespected");
}

EngineRunResult
SystolicEngine::run(const EnginePlan &plan) const
{
    return runPrepared(*prepare(plan), EngineInputs::of(plan));
}

namespace {

// The family half of PreparedPlan::builtFrom(), one per plan family:
// the plan's stored data against the request's bound matrices.

bool
storesDataOf(const MatVecPlan &plan, const EnginePlan &p)
{
    return plan.transform().builtFrom(p.a);
}

bool
storesDataOf(const MatMulPlan &plan, const EnginePlan &p)
{
    return sameBits(plan.transform().a(), p.a) &&
           sameBits(plan.transform().b(), p.bmat);
}

bool
storesDataOf(const MeshMatMulPlan &plan, const EnginePlan &p)
{
    return plan.builtFrom(p.a, p.bmat);
}

bool
storesDataOf(const TriSolvePlan &plan, const EnginePlan &p)
{
    return plan.builtFrom(p.a);
}

bool
storesDataOf(const BlockNoFeedbackPlan &plan, const EnginePlan &p)
{
    return plan.builtFrom(p.a);
}

/** A prepared artifact of plan family @p Plan: the DBT plan of the
 *  bound matrices, A and B for the mat-mul families, A alone for the
 *  others. Every engine of the family runs it. */
template <typename Plan>
class Prepared : public PreparedPlan
{
  public:
    explicit Prepared(const EnginePlan &p) : PreparedPlan(p), plan(build(p))
    {
    }

    bool
    reusedSkeleton() const override
    {
        if constexpr (std::is_same_v<Plan, MatMulPlan>)
            return plan.reusedSkeleton();
        else
            return false;
    }

    Plan plan;

  private:
    static Plan
    build(const EnginePlan &p)
    {
        if constexpr (std::is_constructible_v<Plan, const Dense<Scalar> &,
                                              const Dense<Scalar> &, Index>)
            return Plan(p.a, p.bmat, p.w);
        else
            return Plan(p.a, p.w);
    }

    bool
    storesDataOf(const EnginePlan &p) const override
    {
        return sap::storesDataOf(plan, p);
    }
};

// The result converters, one per plan result type.

EngineRunResult
toResult(MatVecPlanResult r)
{
    EngineRunResult out;
    out.y = std::move(r.y);
    out.stats = r.stats;
    out.totalCycles = r.stats.cycles;
    out.trace = std::move(r.trace);
    out.feedbackDelay = r.observedFeedbackDelay;
    out.feedbackRegisters = r.feedbackRegisters;
    return out;
}

/** A grouped run reports ȳ; its y is extracted through @p plan. */
EngineRunResult
toResult(const MatVecPlan &plan, GroupedRunResult r)
{
    EngineRunResult out;
    out.y = plan.transform().extractY(r.logical.ybar);
    out.stats = r.grouped;
    out.totalCycles = r.grouped.cycles;
    out.trace = std::move(r.logical.trace);
    out.feedbackDelay = r.logical.observedFeedbackDelay;
    out.feedbackRegisters = r.logical.feedbackRegisters;
    out.conflictFree = r.conflictFree;
    return out;
}

EngineRunResult
toResult(MatMulPlanResult r)
{
    EngineRunResult out;
    out.c = std::move(r.c);
    out.stats = r.stats;
    out.totalCycles = r.totalCycles;
    out.feedback = r.feedback;
    out.topologyRespected = !r.feedback || r.feedback->topologyRespected();
    return out;
}

EngineRunResult
toResult(MeshRunResult r)
{
    EngineRunResult out;
    out.c = std::move(r.c);
    out.stats = r.stats;
    out.totalCycles = r.stats.cycles;
    out.trace = std::move(r.trace);
    return out;
}

EngineRunResult
toResult(TriSolvePlanResult r)
{
    EngineRunResult out;
    out.y = std::move(r.y);
    out.stats = r.stats;
    out.totalCycles = r.stats.cycles;
    out.trace = std::move(r.trace);
    return out;
}

/** No feedback loop exists; the defaults (delay −1, zero registers)
 *  are the honest report. */
EngineRunResult
toResult(BlockNoFeedbackResult r)
{
    EngineRunResult out;
    out.y = std::move(r.y);
    out.stats = r.stats;
    out.totalCycles = r.stats.cycles;
    return out;
}

/** The spiral engine's audit: a topology violation is a hard
 *  failure instead of a reported flag. */
EngineRunResult
audited(EngineRunResult r)
{
    SAP_ASSERT(r.topologyRespected, "spiral feedback topology violated");
    return r;
}

/**
 * Every built-in topology: one plan family's prepared plan, run by a
 * simulate path and a fast path behind dispatchMode. Engines of one
 * family (linear, grouped and overlapped; hex and spiral) share their
 * prepared plans; any other family's is refused.
 */
template <typename Plan>
class PlanEngine : public SystolicEngine
{
  public:
    /** One way to run a request through the plan. */
    using Path = EngineRunResult (*)(const Plan &, const EngineInputs &);

    PlanEngine(const char *name, ProblemKind kind, const char *description,
               Path sim, Path fast)
        : name_(name), kind_(kind), description_(description), sim_(sim),
          fast_(fast)
    {
    }

    std::string name() const override { return name_; }
    ProblemKind kind() const override { return kind_; }
    std::string description() const override { return description_; }

    std::shared_ptr<const PreparedPlan>
    prepare(const EnginePlan &plan) const override
    {
        SAP_ASSERT(plan.kind == kind_, name_, " engine needs a ",
                   problemKindName(kind_), " plan");
        return std::make_shared<Prepared<Plan>>(plan);
    }

    EngineRunResult
    runPrepared(const PreparedPlan &prepared,
                const EngineInputs &in) const override
    {
        const auto *p = dynamic_cast<const Prepared<Plan> *>(&prepared);
        SAP_ASSERT(p != nullptr, name_,
                   " engine got a foreign prepared plan");
        prepared.validateInputs(in);
        return dispatchMode(
            in.mode, name_, in.recordTrace,
            [&] { return sim_(p->plan, in); },
            [&] { return fast_(p->plan, in); });
    }

  private:
    std::string name_;
    ProblemKind kind_;
    std::string description_;
    Path sim_;
    Path fast_;
};

/** Register one row of the engine table. */
template <typename Plan>
void
addEngine(const char *name, ProblemKind kind, const char *description,
          typename PlanEngine<Plan>::Path sim,
          typename PlanEngine<Plan>::Path fast)
{
    registerEngine(name, [=] {
        return std::make_unique<PlanEngine<Plan>>(name, kind, description,
                                                  sim, fast);
    });
}

} // namespace

void
registerBuiltinEngines()
{
    using In = const EngineInputs &;
    const ProblemKind mv = ProblemKind::MatVec, mm = ProblemKind::MatMul;
    addEngine<MatVecPlan>(
        "linear", mv, "contraflow linear array with w-register feedback",
        [](const MatVecPlan &p, In in) {
            return toResult(p.run(in.x, in.b, in.recordTrace));
        },
        [](const MatVecPlan &p, In in) {
            return toResult(p.runSemantics(in.x, in.b));
        });
    addEngine<MatVecPlan>(
        "grouped", mv, "linear array with 2:1 PE grouping",
        [](const MatVecPlan &p, In in) {
            return toResult(p, p.runGroupedPlan(in.x, in.b));
        },
        [](const MatVecPlan &p, In in) {
            return toResult(p, p.runGroupedSemantics(in.x, in.b));
        });
    addEngine<MatVecPlan>(
        "overlapped", mv,
        "linear array, split problem interleaved on alternate cycles",
        [](const MatVecPlan &p, In in) {
            return toResult(p.runOverlapped(in.x, in.b));
        },
        [](const MatVecPlan &p, In in) {
            return toResult(p.runOverlappedSemantics(in.x, in.b));
        });
    addEngine<BlockNoFeedbackPlan>(
        "no-feedback", mv,
        "baseline: isolated per-block array runs, partial results "
        "accumulated on the host (no feedback)",
        [](const BlockNoFeedbackPlan &p, In in) {
            return toResult(p.run(in.x, in.b));
        },
        [](const BlockNoFeedbackPlan &p, In in) {
            return toResult(p.runSemantics(in.x, in.b));
        });
    addEngine<MatMulPlan>(
        "hex", mm, "hexagonal array with spiral feedback",
        [](const MatMulPlan &p, In in) { return toResult(p.run(in.e)); },
        [](const MatMulPlan &p, In in) {
            return toResult(p.runSemantics(in.e));
        });
    addEngine<MatMulPlan>(
        "spiral", mm, "hexagonal array, spiral feedback topology audited",
        [](const MatMulPlan &p, In in) {
            return audited(toResult(p.run(in.e)));
        },
        [](const MatMulPlan &p, In in) {
            return audited(toResult(p.runSemantics(in.e)));
        });
    addEngine<MeshMatMulPlan>(
        "mesh", mm, "output-stationary w×w mesh, C resident in the PEs",
        [](const MeshMatMulPlan &p, In in) {
            return toResult(p.run(in.e, in.recordTrace));
        },
        [](const MeshMatMulPlan &p, In in) {
            return toResult(p.runSemantics(in.e));
        });
    addEngine<TriSolvePlan>(
        "tri", ProblemKind::TriSolve,
        "blocked forward substitution: panels on the linear array, "
        "diagonal blocks on the back-substitution array",
        [](const TriSolvePlan &p, In in) {
            return toResult(p.run(in.b, in.recordTrace));
        },
        [](const TriSolvePlan &p, In in) {
            return toResult(p.runSemantics(in.b));
        });
}

} // namespace sap
